//! The draw reservoir never changes an answer: a sweep that replays
//! stored chunks returns the same [`SweepEstimate`] — every point's
//! `Tally` bit for bit — as a sweep that draws everything fresh.
//!
//! Each case runs several queries against one KB through one shared
//! [`Reservoir`], in a random order and under random seeds, stopping
//! targets, caps and worker counts, and compares each answer with the
//! single-threaded, reservoir-free [`estimate_sweep`]. The generated
//! cases cover:
//! * a later query that needs more chunks than the earlier ones stored
//!   (a tautology stops after the first wave; the others run on);
//! * caps that differ between queries sharing one store, so a stored
//!   chunk may be longer or shorter than the one a query needs;
//! * a budget of half the bytes the case stores unbounded, which evicts
//!   entries between queries.

use proptest::prelude::*;
use rw_logic::KnowledgeBase;
use rw_util::Rat;
use rw_worlds::mc::{estimate_sweep, estimate_sweep_stored, McConfig, Reservoir, SweepEstimate};

/// `(KB, queries)`: every proposal shape the plan compiles (biased and
/// conditional proportions, forced literals that can collide, function
/// entries drawn from the stream), each with a tautology among its
/// queries.
const CASES: &[(&str, &[&str])] = &[
    (
        "||Hep(x) | Jaun(x)||_x ~=_1 0.8; Jaun(Eric); Jaun(Tom)",
        &[
            "Hep(Eric) & Hep(Tom)",
            "Hep(Eric) & !Hep(Tom)",
            "Jaun(Eric) or !Jaun(Eric)",
        ],
    ),
    (
        "||P(x)||_x ~=_1 0.3; Q(C)",
        &["P(C)", "P(C) & Q(C)", "Q(C) or !Q(C)"],
    ),
    (
        "Likes(A, B); !Likes(B, A)",
        &[
            "Likes(A, A) or Likes(B, B)",
            "A = B",
            "Likes(A, B) or !Likes(A, B)",
        ],
    ),
    (
        "||P(x)||_x ~=_1 0.3; D = Next(C); P(Next(D))",
        &["P(C) & C = Next(Next(C))", "P(D)", "P(C) or !P(C)"],
    ),
];

/// Sweeps with odd and power-of-two domain sizes, so element slots are
/// packed both in full-width and in part-width fields.
const SWEEPS: &[&[(i128, i128, usize)]] = &[
    &[(1, 4, 4), (1, 8, 8)],
    &[(1, 4, 3), (1, 8, 6), (1, 16, 11)],
];

fn points(i: usize) -> Vec<(Rat, usize)> {
    SWEEPS[i]
        .iter()
        .map(|&(num, den, n)| (Rat::new(num, den), n))
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn replayed_answers_equal_fresh_ones(
        case in 0usize..CASES.len(),
        sweep in 0usize..SWEEPS.len(),
        seed in 0u64..1_000_000,
        order in 0usize..6,
        caps in (0usize..4, 0usize..4, 0usize..4),
        target in 0usize..3,
        threads in 1usize..3,
    ) {
        let (kb_src, queries) = CASES[case];
        let mut kb = KnowledgeBase::parse(kb_src).unwrap();
        let parsed: Vec<_> = queries.iter().map(|q| kb.parse_query(q).unwrap()).collect();
        let points = points(sweep);
        // Every permutation of the three queries, each asked twice so the
        // second round runs on a warm store.
        let perm = [[0, 1, 2], [0, 2, 1], [1, 0, 2], [1, 2, 0], [2, 0, 1], [2, 1, 0]][order];
        let cap_of = [2048u64, 1500, 4096, 777];
        let caps = [cap_of[caps.0], cap_of[caps.1], cap_of[caps.2]];
        let target_ci = [0.05, 0.02, 0.001][target];
        let run = |budget: usize| -> Result<Reservoir<_>, TestCaseError> {
            let reservoir = Reservoir::with_budget(budget);
            let store = reservoir.scope(());
            for round in 0..2 {
                for (k, &q) in perm.iter().enumerate() {
                    let cfg = McConfig {
                        seed,
                        max_samples: caps[(k + round) % 3],
                        target_ci,
                        chunk: 256,
                        ..McConfig::default()
                    };
                    // The stored sweep runs on `threads` workers and the
                    // reference on one: neither the worker count nor the
                    // store may show in the answer.
                    let fresh: SweepEstimate = estimate_sweep(&kb, &parsed[q], &points, &cfg);
                    let threaded = McConfig { threads, ..cfg.clone() };
                    let replayed =
                        estimate_sweep_stored(&kb, &parsed[q], &points, &threaded, Some(&store));
                    prop_assert_eq!(
                        &replayed, &fresh,
                        "`{}` ⊢ `{}` (round {}, cap {}, ci {}, budget {})",
                        kb_src, queries[q], round, cfg.max_samples, target_ci, budget
                    );
                }
            }
            prop_assert!(reservoir.bytes() <= reservoir.budget());
            Ok(reservoir)
        };
        let unbounded = run(usize::MAX)?;
        prop_assert!(unbounded.hits() > 0, "nothing was replayed");
        prop_assert_eq!(unbounded.evictions(), 0);
        let tight = run(unbounded.bytes() / 2)?;
        prop_assert!(tight.evictions() > 0, "half the budget never evicted");
    }
}

#[test]
fn a_query_past_the_stored_chunks_draws_the_rest_fresh() {
    let mut kb = KnowledgeBase::parse("||P(x)||_x ~=_1 0.3; Q(C)").unwrap();
    let tautology = kb.parse_query("Q(C) or !Q(C)").unwrap();
    let query = kb.parse_query("P(C)").unwrap();
    let points = [(Rat::new(1, 4), 4)];
    let cfg = McConfig {
        seed: 7,
        max_samples: 8192,
        target_ci: 0.02,
        chunk: 256,
        ..McConfig::default()
    };
    let reservoir = Reservoir::with_budget(1 << 20);
    let store = reservoir.scope(());
    let short = estimate_sweep_stored(&kb, &tautology, &points, &cfg, Some(&store));
    let long = estimate_sweep_stored(&kb, &query, &points, &cfg, Some(&store));
    assert!(
        short.drawn < long.drawn,
        "{} vs {}",
        short.drawn,
        long.drawn
    );
    assert_eq!(long, estimate_sweep(&kb, &query, &points, &cfg));
    // The second query found the first one's chunks and stored its own
    // beyond them: a third query replays all of it.
    assert_eq!((reservoir.hits(), reservoir.misses()), (1, 1));
    let again = estimate_sweep_stored(&kb, &query, &points, &cfg, Some(&store));
    assert_eq!(again, long);
    assert_eq!(reservoir.hits(), 2);
}

#[test]
fn a_point_whose_records_pass_the_budget_keeps_none() {
    let mut kb = KnowledgeBase::parse("||P(x)||_x ~=_1 0.3; Q(C)").unwrap();
    let query = kb.parse_query("P(C)").unwrap();
    let (small, large) = ((Rat::new(1, 4), 3), (Rat::new(1, 8), 16));
    let cfg = McConfig {
        seed: 5,
        max_samples: 16384,
        target_ci: 0.001,
        chunk: 256,
        ..McConfig::default()
    };
    // The small point alone, under the cap the two-point sweep gives it.
    let alone = Reservoir::with_budget(usize::MAX);
    let half = McConfig {
        max_samples: cfg.max_samples / 2,
        ..cfg.clone()
    };
    estimate_sweep_stored(&kb, &query, &[small], &half, Some(&alone.scope(())));
    let small_bytes = alone.bytes();
    assert!(small_bytes > 0);
    // Room for the small point and a little more: the large one's
    // records stop at the budget and are not saved.
    let reservoir = Reservoir::with_budget(small_bytes + 1024);
    let store = reservoir.scope(());
    let fresh = estimate_sweep(&kb, &query, &[small, large], &cfg);
    for _ in 0..2 {
        let stored = estimate_sweep_stored(&kb, &query, &[small, large], &cfg, Some(&store));
        assert_eq!(stored, fresh);
        assert_eq!((reservoir.len(), reservoir.bytes()), (1, small_bytes));
    }
    // Each sweep dropped the large point's records, counted as evictions.
    assert_eq!(reservoir.evictions(), 2);
    // The second sweep replayed the small point and drew the large again.
    assert_eq!((reservoir.hits(), reservoir.misses()), (1, 3));
}
