//! §7.1 temporal-representation experiments (E40): the Yale Shooting
//! Problem under naive frame defaults (the anomaly, faithfully reproduced)
//! and under past-state-conditioned causal statistics (the repair).

use random_worlds::prelude::*;

const FACTS: &str = "forall x (L1(x) => !A2(x)); L0(S); A0(S)";

fn belief(kb_src: &str, query: &str) -> Belief {
    let kb = KnowledgeBase::parse(kb_src).unwrap();
    RandomWorlds::new()
        .degree_of_belief(&kb, query)
        .unwrap()
        .belief
}

#[test]
fn e40a_naive_representation_shared_tolerance_standoff() {
    // Intended outcome violates alive-persistence; anomalous outcome
    // violates loaded-persistence. At equal strengths random worlds
    // declines to conclude death — the §7.1 "unintuitive result".
    let kb = format!(
        "||L1(x) | L0(x)||_x ~=_1 1; ||A1(x) | A0(x)||_x ~=_1 1; \
         ||A2(x) | A1(x)||_x ~=_1 1; {FACTS}"
    );
    let b = belief(&kb, "A2(S)");
    let v = b
        .as_point()
        .unwrap_or_else(|| panic!("expected point, got {b}"));
    assert!(v > 0.05 && v < 0.95, "expected a standoff, got {v}");
}

#[test]
fn e40b_naive_representation_distinct_tolerances_non_robust() {
    // With unspecified relative strengths the limit depends on the path
    // τ⃗ → 0 — the analogue of competing extensions in minimization
    // frameworks (Hanks–McDermott).
    let kb = format!(
        "||L1(x) | L0(x)||_x ~=_1 1; ||A1(x) | A0(x)||_x ~=_2 1; \
         ||A2(x) | A1(x)||_x ~=_3 1; {FACTS}"
    );
    let b = belief(&kb, "A2(S)");
    assert!(matches!(b, Belief::NonRobust(_)), "got {b}");
}

#[test]
fn e40c_causal_representation_concludes_death() {
    // Conditioning each fluent's next value on the full previous state
    // (the [Hun89]/[BGHK94a] repair): the intended outcome violates no
    // default, so persistence chains and the shooting kills.
    let kb = format!(
        "||L1(x) | L0(x)||_x ~=_1 1; ||A1(x) | A0(x)||_x ~=_2 1; \
         ||A2(x) | A1(x) & !L1(x)||_x ~=_3 1; {FACTS}"
    );
    assert!(belief(&kb, "L1(S)").is_one());
    assert!(belief(&kb, "A1(S)").is_one());
    assert!(belief(&kb, "A2(S)").is_zero());
}

#[test]
fn e40d_causal_representation_supports_explanation() {
    // Backward (explanation) query: observing Fred alive at 2, the gun
    // must have been unloaded at 1 — conditioning handles abduction with
    // no extra machinery.
    let kb = format!(
        "||L1(x) | L0(x)||_x ~=_1 1; ||A1(x) | A0(x)||_x ~=_2 1; \
         ||A2(x) | A1(x) & !L1(x)||_x ~=_3 1; {FACTS}; A2(S)"
    );
    assert!(belief(&kb, "L1(S)").is_zero());
}

mod scenario_compiler {
    //! The same experiments driven through `rw-temporal`'s scenario
    //! compiler instead of hand-written KBs: the representations are a
    //! switch, not a re-encoding.

    use random_worlds::prelude::*;
    use random_worlds::temporal::{
        project_with, Action, Fluent, Literal, Representation, Scenario,
    };

    /// Engine with a trimmed τ-sweep: temporal KBs carry a tolerance index
    /// per frame statement and the default asymmetry probes sweep each one,
    /// which is accuracy these coarse 0-vs-1-vs-standoff assertions don't
    /// need.
    fn engine(probe: bool) -> RandomWorlds {
        let mut config = EngineConfig::default();
        config.sweep.steps = 5;
        config.sweep.probe_asymmetry = probe;
        RandomWorlds::from(config)
    }

    fn project(
        s: &Scenario,
        rep: Representation,
        fluent: &Fluent,
        time: usize,
    ) -> Result<random_worlds::core::BeliefResult, random_worlds::core::EngineError> {
        // Probes are only needed where non-robustness is the point.
        project_with(
            &engine(rep == Representation::NaiveDistinct),
            s,
            rep,
            fluent,
            time,
        )
    }

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
    fn compiled_naive_shared_reproduces_the_standoff() {
        let (s, _, alive) = yale_shooting();
        let r = project(&s, Representation::NaiveShared, &alive, 2).unwrap();
        let v = r.belief.as_point().unwrap_or_else(|| panic!("{r}"));
        assert!(v > 0.05 && v < 0.95, "expected a standoff, got {v}");
    }

    #[test]
    fn compiled_naive_distinct_is_non_robust() {
        let (s, _, alive) = yale_shooting();
        let r = project(&s, Representation::NaiveDistinct, &alive, 2).unwrap();
        assert!(matches!(r.belief, Belief::NonRobust(_)), "{r}");
    }

    #[test]
    fn compiled_causal_concludes_death_and_persistence() {
        let (s, loaded, alive) = yale_shooting();
        assert!(project(&s, Representation::Causal, &loaded, 1)
            .unwrap()
            .belief
            .is_one());
        assert!(project(&s, Representation::Causal, &alive, 2)
            .unwrap()
            .belief
            .is_zero());
        // The gun also stays loaded after the shot (shooting affects only
        // Alive in this formulation).
        assert!(project(&s, Representation::Causal, &loaded, 2)
            .unwrap()
            .belief
            .is_one());
    }

    #[test]
    fn compiled_observation_supports_explanation() {
        // The stolen-bullet variant: observing Fred alive at 2 explains
        // away the load — the gun must have become unloaded by 1.
        let (mut s, loaded, alive) = yale_shooting();
        s.observe(2, Literal::pos(alive));
        let r = project(&s, Representation::Causal, &loaded, 1).unwrap();
        assert!(r.belief.is_zero(), "{r}");
    }

    #[test]
    fn statistical_effects_grade_the_projection() {
        // "Shooting a loaded gun kills 70% of the time": the statistical
        // language grades the projection where qualitative systems must
        // choose all-or-nothing. Pr(Alive₁) → 0.30.
        let mut s = Scenario::new();
        let loaded = s.fluent("L");
        let alive = s.fluent("A");
        s.initially(Literal::pos(loaded.clone()));
        s.initially(Literal::pos(alive.clone()));
        s.then(
            Action::new("shoot")
                .requires(Literal::pos(loaded))
                .causes_with_chance(Literal::neg(alive.clone()), 70),
        );
        let r = project(&s, Representation::Causal, &alive, 1).unwrap();
        let v = r.belief.as_point().unwrap_or_else(|| panic!("{r}"));
        assert!((v - 0.30).abs() < 5e-3, "expected ≈0.30, got {v}");
    }

    #[test]
    fn load_action_with_no_preconditions() {
        // load (unconditional) then shoot: death follows with no waiting.
        let mut s = Scenario::new();
        let loaded = s.fluent("L");
        let alive = s.fluent("A");
        s.initially(Literal::neg(loaded.clone()));
        s.initially(Literal::pos(alive.clone()));
        s.then(Action::new("load").causes(Literal::pos(loaded.clone())));
        s.then(
            Action::new("shoot")
                .requires(Literal::pos(loaded.clone()))
                .causes(Literal::neg(alive.clone())),
        );
        assert!(project(&s, Representation::Causal, &loaded, 1)
            .unwrap()
            .belief
            .is_one());
        assert!(project(&s, Representation::Causal, &alive, 2)
            .unwrap()
            .belief
            .is_zero());
    }
}

#[test]
fn causal_representation_is_elaboration_tolerant() {
    // An unrelated fluent (Fred wears a hat) persists independently of the
    // shooting — irrelevance carries over to the temporal setting.
    let kb = format!(
        "||L1(x) | L0(x)||_x ~=_1 1; ||A1(x) | A0(x)||_x ~=_2 1; \
         ||A2(x) | A1(x) & !L1(x)||_x ~=_3 1; \
         ||H1(x) | H0(x)||_x ~=_4 1; H0(S); {FACTS}"
    );
    assert!(belief(&kb, "H1(S)").is_one());
    assert!(belief(&kb, "A2(S)").is_zero());
}
