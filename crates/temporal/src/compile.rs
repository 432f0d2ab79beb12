//! Compiling scenarios to `L≈` knowledge bases.
//!
//! Two frame representations, mirroring the paper's §7.1 discussion:
//!
//! * [`Representation::NaiveShared`] / [`Representation::NaiveDistinct`] —
//!   the "most straightforward representation": every fluent gets an
//!   unconditional persistence default `||F_{t+1} | F_t|| ≈ 1` (both
//!   polarities), action effects are hard axioms. On conflicting
//!   projections (the Yale Shooting Problem) this yields a standoff: a
//!   middling belief under a shared tolerance, a non-robust limit under
//!   distinct ones.
//! * [`Representation::Causal`] — the \[Hun89\]/\[BGHK94a\] repair: a fluent
//!   affected by the step's action has its persistence default conditioned
//!   on the action's precondition *failing*, so the frame statistic simply
//!   does not apply where the effect axiom does. Intended projections then
//!   violate nothing, and both prediction and explanation queries come out
//!   with belief 0 or 1.
//!
//! The compiler emits concrete `L≈` source (inspectable via
//! [`compile_source`]) and parses it into a [`KnowledgeBase`]; the scenario
//! constant is always `S`.

use crate::scenario::{Fluent, Literal, Scenario};
use rw_core::{BeliefResult, EngineError, RandomWorlds};
use rw_logic::{KnowledgeBase, ParseError};

/// Which frame representation to compile.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Representation {
    /// Unconditional persistence defaults, all sharing one tolerance.
    NaiveShared,
    /// Unconditional persistence defaults, one tolerance each.
    NaiveDistinct,
    /// Persistence conditioned on the executing action's precondition
    /// failing (distinct tolerances; they never compete).
    Causal,
}

fn conjoin(lits: &[Literal], t: usize) -> String {
    lits.iter()
        .map(|l| l.render(t))
        .collect::<Vec<_>>()
        .join(" & ")
}

/// The `L≈` source text for a scenario under a representation.
pub fn compile_source(scenario: &Scenario, rep: Representation) -> String {
    let mut statements: Vec<String> = Vec::new();
    let mut tol = 0usize;
    let mut next_tol = || -> usize {
        match rep {
            Representation::NaiveShared => 1,
            _ => {
                tol += 1;
                tol
            }
        }
    };

    for (t, step) in scenario.steps.iter().enumerate() {
        // Effect axioms: hard universals for deterministic effects,
        // proportion statements for statistical ones.
        if let Some(action) = step {
            for e in &action.effects {
                let eff = e.literal.render(t + 1);
                match e.percent {
                    None => {
                        if action.preconditions.is_empty() {
                            statements.push(format!("forall x ({eff})"));
                        } else {
                            statements.push(format!(
                                "forall x ({} => {eff})",
                                conjoin(&action.preconditions, t)
                            ));
                        }
                    }
                    Some(p) => {
                        let cond = if action.preconditions.is_empty() {
                            "x = x".to_string()
                        } else {
                            conjoin(&action.preconditions, t)
                        };
                        let value = match p {
                            100 => "1".to_string(),
                            0 => "0".to_string(),
                            p => format!("0.{p:02}"),
                        };
                        statements.push(format!("||{eff} | {cond}||_x ~=_{} {value}", next_tol()));
                    }
                }
            }
        }

        // Frame statements, per fluent and polarity.
        for f in &scenario.fluents {
            let affected = step.as_ref().is_some_and(|a| a.affects(f));
            let guard = match (rep, affected, step) {
                (Representation::Causal, true, Some(a)) => {
                    if a.preconditions.is_empty() {
                        // The effect always fires: no frame statement.
                        continue;
                    }
                    // Persist only where the precondition fails.
                    Some(format!("!({})", conjoin(&a.preconditions, t)))
                }
                _ => None,
            };
            for positive in [true, false] {
                let lit = Literal {
                    fluent: f.clone(),
                    positive,
                };
                let mut condition = lit.render(t);
                if let Some(g) = &guard {
                    condition = format!("{condition} & {g}");
                }
                statements.push(format!(
                    "||{} | {condition}||_x ~=_{} 1",
                    lit.render(t + 1),
                    next_tol()
                ));
            }
        }
    }

    for lit in &scenario.init {
        statements.push(render_fact(lit, 0));
    }
    for (t, lit) in &scenario.observations {
        statements.push(render_fact(lit, *t));
    }
    statements.join("; ")
}

fn render_fact(lit: &Literal, t: usize) -> String {
    let atom = format!("{}(S)", lit.fluent.at(t));
    if lit.positive {
        atom
    } else {
        format!("!{atom}")
    }
}

/// Compiles a scenario into a knowledge base.
pub fn compile(scenario: &Scenario, rep: Representation) -> Result<KnowledgeBase, ParseError> {
    KnowledgeBase::parse(&compile_source(scenario, rep))
}

/// The degree of belief that `fluent` holds at `time` in the scenario,
/// using the default engine configuration.
pub fn project(
    scenario: &Scenario,
    rep: Representation,
    fluent: &Fluent,
    time: usize,
) -> Result<BeliefResult, EngineError> {
    project_with(&RandomWorlds::new(), scenario, rep, fluent, time)
}

/// [`project`] with a caller-configured engine. Temporal KBs have one
/// tolerance index per frame statement, and the engine's non-robustness
/// probes sweep each index separately — on larger horizons a trimmed
/// [`rw_core::EngineConfig::sweep`] (fewer steps, or probes disabled when
/// only point beliefs matter) saves most of the cost.
pub fn project_with(
    engine: &RandomWorlds,
    scenario: &Scenario,
    rep: Representation,
    fluent: &Fluent,
    time: usize,
) -> Result<BeliefResult, EngineError> {
    let kb = compile(scenario, rep).map_err(EngineError::Parse)?;
    engine.degree_of_belief(&kb, &format!("{}(S)", fluent.at(time)))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenario::Action;

    fn yale_shooting() -> (Scenario, Fluent, Fluent) {
        let mut s = Scenario::new();
        let loaded = s.fluent("L");
        let alive = s.fluent("A");
        s.initially(Literal::pos(loaded.clone()));
        s.initially(Literal::pos(alive.clone()));
        s.wait();
        s.then(
            Action::new("shoot")
                .requires(Literal::pos(loaded.clone()))
                .causes(Literal::neg(alive.clone())),
        );
        (s, loaded, alive)
    }

    #[test]
    fn source_contains_effect_axiom_and_frames() {
        let (s, _, _) = yale_shooting();
        let src = compile_source(&s, Representation::Causal);
        assert!(src.contains("forall x (L1(x) => !A2(x))"), "{src}");
        // Unaffected fluent persists unconditionally...
        assert!(src.contains("||L2(x) | L1(x)||"), "{src}");
        // ...the affected one persists only where the precondition fails.
        assert!(src.contains("||A2(x) | A1(x) & !(L1(x))||"), "{src}");
        assert!(src.contains("L0(S)"), "{src}");
    }

    #[test]
    fn naive_shared_uses_one_tolerance_index() {
        let (s, _, _) = yale_shooting();
        let src = compile_source(&s, Representation::NaiveShared);
        assert!(src.contains("~=_1"), "{src}");
        assert!(!src.contains("~=_2"), "{src}");
        let distinct = compile_source(&s, Representation::NaiveDistinct);
        assert!(distinct.contains("~=_2"), "{distinct}");
    }

    #[test]
    fn all_representations_parse() {
        let (s, _, _) = yale_shooting();
        for rep in [
            Representation::NaiveShared,
            Representation::NaiveDistinct,
            Representation::Causal,
        ] {
            compile(&s, rep).unwrap_or_else(|e| panic!("{rep:?}: {e}"));
        }
    }

    #[test]
    fn unconditional_effects_suppress_frame_statements() {
        let mut s = Scenario::new();
        let f = s.fluent("F");
        s.then(Action::new("make").causes(Literal::pos(f)));
        let src = compile_source(&s, Representation::Causal);
        assert!(src.contains("forall x (F1(x))"), "{src}");
        assert!(!src.contains("||F1(x)"), "{src}");
    }

    #[test]
    fn statistical_effects_render_as_proportions() {
        let mut s = Scenario::new();
        let loaded = s.fluent("L");
        let alive = s.fluent("A");
        s.initially(Literal::pos(loaded.clone()));
        s.initially(Literal::pos(alive.clone()));
        s.then(
            Action::new("shoot")
                .requires(Literal::pos(loaded))
                .causes_with_chance(Literal::neg(alive), 70),
        );
        let src = compile_source(&s, Representation::Causal);
        assert!(src.contains("||!A1(x) | L0(x)||_x ~=_1 0.70"), "{src}");
        // The frame statement for Alive still guards on ¬L0.
        assert!(src.contains("||A1(x) | A0(x) & !(L0(x))||"), "{src}");
    }

    #[test]
    fn chance_boundaries_render_exactly() {
        for (p, expect) in [(100u32, " 1"), (0, " 0"), (7, " 0.07")] {
            let mut s = Scenario::new();
            let f = s.fluent("F");
            let g = s.fluent("G");
            s.then(
                Action::new("a")
                    .requires(Literal::pos(g))
                    .causes_with_chance(Literal::pos(f), p),
            );
            let src = compile_source(&s, Representation::Causal);
            assert!(
                src.contains(&format!("||F1(x) | G0(x)||_x ~=_1{expect}")),
                "p={p}: {src}"
            );
        }
    }

    #[test]
    #[should_panic(expected = "chance must be 0..=100")]
    fn chance_over_100_rejected() {
        let f = Fluent::new("F");
        let _ = Action::new("a").causes_with_chance(Literal::pos(f), 101);
    }

    #[test]
    fn observations_render_at_their_time() {
        let (mut s, loaded, _) = yale_shooting();
        s.observe(1, Literal::neg(loaded));
        let src = compile_source(&s, Representation::Causal);
        assert!(src.ends_with("!L1(S)"), "{src}");
    }
}
