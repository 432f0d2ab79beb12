//! Reference-class reasoning baselines (paper §2).
//!
//! Before random worlds, the standard route from statistics to degrees of
//! belief was Reichenbach's: find a *single* reference class containing the
//! individual, with "suitable statistics", and adopt its statistic —
//! refined by a specificity rule (prefer the narrowest class; Reichenbach,
//! Kyburg, Pollock) and by Kyburg's *strength* rule (prefer a tighter
//! interval from a broader class when it does not contradict the narrower
//! class). The paper's §2 argues these systems fail exactly where no single
//! class summarizes the evidence: this crate implements the classical
//! selection rules so the experiment harness can show, side by side, where
//! they answer `[0, 1]` (no opinion) and random worlds still produces a
//! well-motivated value (e.g. Dempster combination for the Nixon diamond,
//! §2.3/Thm 5.26).
//!
//! The implementation reuses the workspace's statistical-statement
//! classifier and atom-set taxonomy, so a `KnowledgeBase` written for the
//! random-worlds engine can be handed to the baseline unchanged.

use rw_core::patterns::{classify, const_atom_set, synthetic_var};
use rw_logic::{analysis, canon, KnowledgeBase, ParseError};
use rw_unary::AtomSet;
use rw_util::Rat;

/// Which classical selection discipline to apply.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SelectionRule {
    /// Reichenbach: narrowest class only; incomparable survivors → no opinion.
    Specificity,
    /// Kyburg: specificity, then adopt a broader class's strictly tighter
    /// interval when it is nested in the narrower class's interval.
    SpecificityThenStrength,
}

/// A full reference-class policy: the selection rule plus Kyburg's and
/// Pollock's *syntactic restriction* on permissible classes.
///
/// §2.2: to block spurious classes like `Jaun ∧ (¬Hep ∨ x = Eric)`, Kyburg
/// and Pollock disallow **disjunctive** reference classes — and thereby
/// also lose legitimate ones like the Tay-Sachs population
/// `EEJ(x) ∨ FC(x)`. Setting `allow_disjunctive: false` reproduces that
/// restriction (and its cost); random worlds needs no such restriction
/// (Examples 5.11 / 5.22).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct RefClassPolicy {
    pub rule: SelectionRule,
    pub allow_disjunctive: bool,
}

impl Default for RefClassPolicy {
    fn default() -> RefClassPolicy {
        RefClassPolicy {
            rule: SelectionRule::SpecificityThenStrength,
            allow_disjunctive: true,
        }
    }
}

/// Does the class-defining formula use a disjunction (counting `⇒`/`⇔`,
/// which hide one)?
fn is_disjunctive(f: &rw_logic::Formula) -> bool {
    use rw_logic::Formula::*;
    match f {
        Or(..) | Implies(..) | Iff(..) => true,
        Not(g) | Forall(_, g) | Exists(_, g) => is_disjunctive(g),
        And(parts) => parts.iter().any(is_disjunctive),
        True | False | Pred(..) | TermEq(..) | Cmp(..) => false,
    }
}

/// A reference-class answer.
#[derive(Clone, Debug, PartialEq)]
pub enum RefClassAnswer {
    /// A single class was selected; its interval is the degree of belief.
    Interval { lo: f64, hi: f64, class: String },
    /// Competing incomparable classes (or no class at all): the classical
    /// systems return the trivial interval.
    NoOpinion { reason: String },
}

impl RefClassAnswer {
    pub fn as_interval(&self) -> Option<(f64, f64)> {
        match self {
            RefClassAnswer::Interval { lo, hi, .. } => Some((*lo, *hi)),
            RefClassAnswer::NoOpinion { .. } => None,
        }
    }
}

#[derive(Clone)]
struct Class {
    atoms: AtomSet,
    lo: Rat,
    hi: Rat,
    label: String,
}

/// Computes the classical reference-class degree of belief for `query`
/// (a single-constant unary query) against the KB, permitting disjunctive
/// classes.
pub fn reference_class_belief(
    kb: &KnowledgeBase,
    query: &str,
    rule: SelectionRule,
) -> Result<RefClassAnswer, ParseError> {
    reference_class_belief_policy(
        kb,
        query,
        &RefClassPolicy {
            rule,
            allow_disjunctive: true,
        },
    )
}

/// [`reference_class_belief`] under a full [`RefClassPolicy`].
pub fn reference_class_belief_policy(
    kb: &KnowledgeBase,
    query: &str,
    policy: &RefClassPolicy,
) -> Result<RefClassAnswer, ParseError> {
    let rule = policy.rule;
    let mut kb = kb.clone();
    let q = kb.parse_query(query)?;
    let consts: Vec<_> = analysis::constants(&q).into_iter().collect();
    if consts.len() != 1 {
        return Ok(RefClassAnswer::NoOpinion {
            reason: "query must concern a single individual".to_string(),
        });
    }
    let c = consts[0];
    let vocab = kb.vocab();
    let cls = classify(&kb);
    let Some(taxonomy) = &cls.taxonomy else {
        return Ok(RefClassAnswer::NoOpinion {
            reason: "vocabulary too large for class analysis".to_string(),
        });
    };
    let phi = analysis::generalize_const(&q, c, synthetic_var(0));
    let phi_canon = canon::canonical_formula_over(vocab, &phi, &[synthetic_var(0)]);

    // Candidate classes: statistics about φ whose class contains c.
    let facts = const_atom_set(&cls, c, vocab);
    let mut classes: Vec<Class> = Vec::new();
    for s in &cls.stats {
        if s.vars.len() != 1 || s.body_key != phi_canon {
            continue;
        }
        let Some(atoms) = s.class.clone() else {
            continue;
        };
        if !policy.allow_disjunctive && is_disjunctive(&s.cond) {
            continue; // Kyburg/Pollock: disjunctive classes impermissible.
        }
        if !taxonomy.entails(&facts, &atoms) {
            continue; // c is not known to belong to this class
        }
        // "Suitable statistics": a nontrivial interval (paper §2.1).
        if s.lo == Rat::ZERO && s.hi == Rat::ONE {
            continue;
        }
        classes.push(Class {
            atoms,
            lo: s.lo,
            hi: s.hi,
            label: format!("{}", rw_logic::Pretty::new(vocab, &s.cond)),
        });
    }
    if classes.is_empty() {
        return Ok(RefClassAnswer::NoOpinion {
            reason: "no reference class with suitable statistics".to_string(),
        });
    }

    // Specificity: keep classes with no strictly narrower competitor.
    let strictly_narrower = |a: &Class, b: &Class| {
        taxonomy.entails(&a.atoms, &b.atoms) && !taxonomy.entails(&b.atoms, &a.atoms)
    };
    let minimal: Vec<Class> = classes
        .iter()
        .filter(|a| !classes.iter().any(|b| strictly_narrower(b, a)))
        .cloned()
        .collect();

    let mut selected = minimal;
    if rule == SelectionRule::SpecificityThenStrength {
        // Kyburg's strength rule: a broader class with a strictly tighter
        // interval nested in the selected class's interval replaces it.
        let mut improved = Vec::new();
        for m in &selected {
            let mut best = m.clone();
            for b in &classes {
                let broader = taxonomy.entails(&m.atoms, &b.atoms);
                let tighter =
                    b.lo >= best.lo && b.hi <= best.hi && (b.lo > best.lo || b.hi < best.hi);
                if broader && tighter {
                    best = b.clone();
                }
            }
            improved.push(best);
        }
        selected = improved;
    }

    // All survivors must agree (identical intervals); otherwise the
    // classical systems give up.
    let (lo, hi) = (selected[0].lo, selected[0].hi);
    if selected.iter().all(|s| s.lo == lo && s.hi == hi) {
        Ok(RefClassAnswer::Interval {
            lo: lo.to_f64(),
            hi: hi.to_f64(),
            class: selected[0].label.clone(),
        })
    } else {
        Ok(RefClassAnswer::NoOpinion {
            reason: format!(
                "{} incomparable reference classes with conflicting statistics",
                selected.len()
            ),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn kb(src: &str) -> KnowledgeBase {
        KnowledgeBase::parse(src).unwrap()
    }

    #[test]
    fn basic_direct_inference() {
        // Reichenbach handles the textbook case just like random worlds.
        let k = kb("||Hep(x) | Jaun(x)||_x ~=_1 0.8; Jaun(Eric)");
        let a = reference_class_belief(&k, "Hep(Eric)", SelectionRule::Specificity).unwrap();
        assert_eq!(a.as_interval(), Some((0.8, 0.8)));
    }

    #[test]
    fn specificity_prefers_subclass() {
        let k = kb("Bird(x) ->_1 Fly(x); Penguin(x) ->_2 !Fly(x); \
             forall x (Penguin(x) => Bird(x)); Penguin(Tweety)");
        let a = reference_class_belief(&k, "Fly(Tweety)", SelectionRule::Specificity).unwrap();
        assert_eq!(a.as_interval(), Some((0.0, 0.0)));
    }

    #[test]
    fn strength_rule_magpies() {
        // Paper §2.3: the magpie interval [0, 0.99] is replaced by the
        // tighter bird interval [0.7, 0.8] under Kyburg's strength rule —
        // but NOT under pure specificity.
        let k = kb("0.7 <~_1 ||Chirps(x) | Bird(x)||_x <~_2 0.8; \
             0 <~_3 ||Chirps(x) | Magpie(x)||_x <~_4 0.99; \
             forall x (Magpie(x) => Bird(x)); Magpie(Tweety)");
        let strict =
            reference_class_belief(&k, "Chirps(Tweety)", SelectionRule::Specificity).unwrap();
        assert_eq!(strict.as_interval(), Some((0.0, 0.99)));
        let strong =
            reference_class_belief(&k, "Chirps(Tweety)", SelectionRule::SpecificityThenStrength)
                .unwrap();
        assert_eq!(strong.as_interval(), Some((0.7, 0.8)));
    }

    #[test]
    fn incomparable_classes_give_up() {
        // Paper §2.3 (Fred the smoker with high cholesterol): neither class
        // dominates, so the baseline answers "no opinion" — random worlds
        // combines the evidence via Thm 5.26 instead.
        let k = kb("||Heart-disease(x) | Cholesterol(x)||_x ~=_1 0.15; \
             ||Heart-disease(x) | Smoker(x)||_x ~=_2 0.09; \
             Cholesterol(Fred); Smoker(Fred)");
        let a = reference_class_belief(
            &k,
            "Heart-disease(Fred)",
            SelectionRule::SpecificityThenStrength,
        )
        .unwrap();
        assert!(matches!(a, RefClassAnswer::NoOpinion { .. }), "{a:?}");
    }

    #[test]
    fn agreeing_incomparable_classes_still_answer() {
        // Footnote 14: Republican bankers — both classes say 0.2, Kyburg
        // answers 0.2 (random worlds disagrees: δ(0.2, 0.2) = 1/17 ≈ 0.059).
        let k = kb("||Pacifist(x) | Republican(x)||_x ~=_1 0.2; \
             ||Pacifist(x) | Banker(x)||_x ~=_2 0.2; \
             Republican(Morgan); Banker(Morgan)");
        let a = reference_class_belief(
            &k,
            "Pacifist(Morgan)",
            SelectionRule::SpecificityThenStrength,
        )
        .unwrap();
        assert_eq!(a.as_interval(), Some((0.2, 0.2)));
        let rw = rw_core::theorems::dempster_rule(&[0.2, 0.2]);
        assert!((rw - 1.0 / 17.0).abs() < 1e-9); // 0.04/(0.04+0.64)
    }

    #[test]
    fn no_class_at_all() {
        let k = kb("Jaun(Eric)");
        let a = reference_class_belief(&k, "Hep(Eric)", SelectionRule::Specificity).unwrap();
        assert!(matches!(a, RefClassAnswer::NoOpinion { .. }));
    }

    #[test]
    fn trivial_statistics_are_not_suitable() {
        // A [0,1] interval is not a "suitable statistic" (paper §2.1).
        let k = kb("0 <~_1 ||Hep(x) | Jaun(x)||_x <~_2 1; Jaun(Eric)");
        let a = reference_class_belief(&k, "Hep(Eric)", SelectionRule::Specificity).unwrap();
        assert!(matches!(a, RefClassAnswer::NoOpinion { .. }));
    }

    #[test]
    fn disallowing_disjunctive_classes_loses_tay_sachs() {
        // §2.2: the Tay-Sachs population is a disjunction. Kyburg's and
        // Pollock's restriction throws the statistic away; permitting the
        // class recovers the paper's answer 0.02 (Example 5.22).
        let k = kb("||TS(x) | EEJ(x) or FC(x)||_x ~=_1 0.02; EEJ(Eric)");
        let permissive =
            reference_class_belief_policy(&k, "TS(Eric)", &RefClassPolicy::default()).unwrap();
        assert_eq!(permissive.as_interval(), Some((0.02, 0.02)));
        let restricted = reference_class_belief_policy(
            &k,
            "TS(Eric)",
            &RefClassPolicy {
                allow_disjunctive: false,
                ..RefClassPolicy::default()
            },
        )
        .unwrap();
        assert!(
            matches!(restricted, RefClassAnswer::NoOpinion { .. }),
            "{restricted:?}"
        );
    }

    #[test]
    fn implication_classes_count_as_disjunctive() {
        // `A ⇒ B` hides `¬A ∨ B`; the restriction must catch it. Eric is
        // known to satisfy the class via ¬Q.
        let k = kb("||P(x) | Q(x) => R(x)||_x ~=_1 0.4; !Q(Eric)");
        let permissive =
            reference_class_belief_policy(&k, "P(Eric)", &RefClassPolicy::default()).unwrap();
        assert_eq!(permissive.as_interval(), Some((0.4, 0.4)));
        let restricted = reference_class_belief_policy(
            &k,
            "P(Eric)",
            &RefClassPolicy {
                allow_disjunctive: false,
                ..RefClassPolicy::default()
            },
        )
        .unwrap();
        assert!(matches!(restricted, RefClassAnswer::NoOpinion { .. }));
    }
}
