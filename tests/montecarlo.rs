//! Integration tests for the Monte-Carlo approximate-inference stage at
//! the pipeline level: determinism across worker thread counts, stage
//! placement, cache keyspace separation, and agreement with the exact
//! stages on trap queries.

use proptest::prelude::*;
use random_worlds::core::{Belief, EngineConfig, McConfig, Provenance, RandomWorlds};
use random_worlds::prelude::*;

fn trap_kb() -> KnowledgeBase {
    // PR-2's serving trap: conjunctions over individuals sharing one
    // statistic miss every theorem pattern (the shared predicate defeats
    // the independence product), so an exact engine answers through the
    // maxent stage.
    KnowledgeBase::parse("||Hep(x) | Jaun(x)||_x ~=_1 0.8; Jaun(Eric); Jaun(Tom)").unwrap()
}

/// An engine whose sampler stage runs under `config`.
fn sampling(config: McConfig) -> RandomWorlds {
    RandomWorlds::from(EngineConfig {
        approx: Some(config),
        ..EngineConfig::default()
    })
}

#[test]
fn approx_pipeline_answers_the_trap_in_the_sampling_stage() {
    let engine = sampling(McConfig::default());
    let r = engine.answer(&trap_kb(), "Hep(Eric) & Hep(Tom)").unwrap();
    let Belief::Approximate {
        value,
        ci_half_width,
    } = r.belief
    else {
        panic!("{r}");
    };
    assert!(ci_half_width > 0.0, "{r}");
    // True degree of belief: the two individuals are exchangeable and
    // asymptotically independent given the KB, so ≈ 0.8² = 0.64. The
    // finite-N sweep plus extrapolation lands near it.
    assert!((value - 0.64).abs() < 3.0 * ci_half_width + 0.05, "{r}");
    assert!(matches!(r.provenance, Provenance::MonteCarlo { .. }), "{r}");
    assert_eq!(r.trace.steps().last().unwrap().stage, "montecarlo");
    // The theorem stage declined first — the cascade order is intact.
    assert_eq!(r.trace.steps()[0].stage, "theorems");
}

#[test]
fn exact_queries_never_reach_the_sampler() {
    let engine = sampling(McConfig::default());
    let kb = trap_kb();
    for (q, expect) in [("Hep(Eric)", 0.8), ("Jaun(Eric)", 1.0), ("!Jaun(Tom)", 0.0)] {
        let r = engine.answer(&kb, q).unwrap();
        assert_eq!(r.belief.as_point(), Some(expect), "{q}: {r}");
        assert_eq!(r.trace.steps().len(), 1, "{q} must stop at theorems: {r}");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Satellite (b): `MonteCarloSolver` beliefs are identical across
    /// 1/2/4 worker threads for a fixed seed.
    #[test]
    fn beliefs_are_identical_across_worker_thread_counts(seed in 0u64..1_000_000) {
        let kb = trap_kb();
        let answer = |threads: usize| {
            let cfg = McConfig {
                seed,
                threads,
                max_samples: 1 << 14,
                ..McConfig::default()
            };
            let r = sampling(cfg)
                .answer(&kb, "Hep(Eric) & Hep(Tom)")
                .unwrap();
            (r.belief, r.provenance)
        };
        let reference = answer(1);
        prop_assert_eq!(&answer(2), &reference, "2 threads diverged (seed {})", seed);
        prop_assert_eq!(&answer(4), &reference, "4 threads diverged (seed {})", seed);
    }

    /// Different seeds give different draws but compatible beliefs.
    #[test]
    fn seeds_vary_the_draws_not_the_truth(seed in 1u64..1_000_000) {
        let kb = trap_kb();
        let at = |seed: u64| {
            let r = sampling(McConfig { seed, max_samples: 1 << 14, ..McConfig::default() })
                .answer(&kb, "Hep(Eric) & Hep(Tom)")
                .unwrap();
            r.belief
        };
        let (a, b) = (at(seed), at(seed.wrapping_mul(31).wrapping_add(7)));
        prop_assert!(a.approx_eq(&b, 0.02), "{} vs {}", a, b);
    }
}
