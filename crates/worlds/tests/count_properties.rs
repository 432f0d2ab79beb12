//! Property tests for the compiled branch-and-count engine's exactness
//! contract:
//!
//! * on generated small-`N` knowledge bases, compiled counts are
//!   **exactly equal** to the `for_each_world` oracle (both the `#KB`
//!   denominator and the `#(KB ∧ query)` numerator — so the Definition
//!   4.2 ratio can never drift);
//! * a count (value *and* visited/branched totals) is **bit-identical**
//!   across 1/2/4 worker threads;
//! * the full-assignment evaluator [`Program::holds`] (the Monte-Carlo
//!   acceptance kernel) agrees with the tree-walking `Evaluator` world by
//!   world on uniformly sampled worlds, on every shape it specialises
//!   (proportions over static bits, negated or not, summed from slot
//!   tables, by popcount where the bits are consecutive) and every shape
//!   it walks node by node instead (instances reading function or
//!   constant-argument atoms, or compound conditions), at domain sizes
//!   whose predicate bits fill part of a `u64` word and sizes whose
//!   predicate ranges straddle word boundaries.

mod common;

use proptest::prelude::*;
use rw_logic::ast::{Formula, TolId};
use rw_logic::{KnowledgeBase, Tolerances};
use rw_util::{Rat, StdRng};
use rw_worlds::eval::Evaluator;
use rw_worlds::sample::sample_world;
use rw_worlds::{count_models, for_each_world, CountOptions, Program};

/// `τ = 1/4` for every subscript but `_2`, which gets `1/8`: shapes
/// that mix subscripts check that each comparison reads its own.
fn tolerances() -> Tolerances {
    Tolerances::uniform(Rat::new(1, 4)).with(TolId(2), Rat::new(1, 8))
}

/// Small KBs spanning every compiled shape: unary and conditional
/// statistics, ground facts over constants, binary predicates (which the
/// unary engine rejects), equalities, quantifiers and disjunction.
/// Proportions are drawn from the `N`-stable alphabet
/// ([`common::stable_tenths`]) so no generated constraint can flip
/// satisfiability inside the scanned window and fail as a spurious
/// "inconsistent satisfiability" flake.
fn cases() -> impl Strategy<Value = (String, String, usize)> {
    let ks = common::stable_tenths(Rat::new(1, 4), 2, 6);
    let ks2 = ks.clone();
    prop_oneof![
        (0usize..ks.len(), 2usize..5).prop_map(move |(i, n)| (
            format!("||P(x)||_x ~=_1 0.{}; Q(C)", ks[i]),
            "P(C)".to_string(),
            n
        )),
        (0usize..ks2.len(), 3usize..5).prop_map(move |(i, n)| (
            format!("||Hep(x) | Jaun(x)||_x ~=_1 0.{}; Jaun(C); Jaun(D)", ks2[i]),
            "Hep(C) & Hep(D)".to_string(),
            n
        )),
        (2usize..5).prop_map(|n| ("Likes(A, B)".to_string(), "Likes(B, A)".to_string(), n)),
        (2usize..4).prop_map(|n| (
            "||Likes(x, y)||_{x,y} ~=_1 0.25; Likes(A, B)".to_string(),
            "Likes(B, A)".to_string(),
            n
        )),
        (2usize..5).prop_map(|n| (
            "C1 = C2 or C2 = C3 or C1 = C3".to_string(),
            "C1 = C2".to_string(),
            n
        )),
        (2usize..4).prop_map(|n| (
            "forall x (Penguin(x) => Bird(x)); Penguin(T)".to_string(),
            "exists x (Bird(x) & !Penguin(x))".to_string(),
            n
        )),
        (2usize..4).prop_map(|n| ("P(Next(C))".to_string(), "P(C)".to_string(), n)),
        (2usize..4).prop_map(|n| (
            "|| ||Rises(x, y) | Day(y)||_y ~=_1 1 ||_x ~=_1 0.5".to_string(),
            "Day(C)".to_string(),
            n
        )),
        // The condition is empty in many worlds: the measure-zero
        // convention decides those comparisons.
        (2usize..5).prop_map(|n| (
            "||Fly(x) | Bird(x) & Penguin(x)||_x ~=_1 0.1; Bird(T)".to_string(),
            "Fly(T) & C = Next(T)".to_string(),
            n
        )),
    ]
}

/// Further shapes for the full-assignment kernel alone: each proportion
/// shape it sums from slot tables and each it evaluates instance by
/// instance. Only the sampled-world property draws these, so the oracle
/// counts above walk exactly the worlds they always did.
fn kernel_cases() -> impl Strategy<Value = (String, String, usize)> {
    prop_oneof![
        // A conditional proportion over static bits whose condition is
        // empty in many worlds: the measure-zero convention on the
        // slot-table path.
        (2usize..5).prop_map(|n| (
            "||P(x) | Q(x)||_x ~=_1 0.5".to_string(),
            "Q(C) & P(C)".to_string(),
            n
        )),
        // Negated static bits in body and condition, two tolerance
        // subscripts, and a `⪯` beside the `≈`.
        (2usize..5).prop_map(|n| (
            "||!P(x) | !Q(x)||_x ~=_2 0.3; ||Q(x)||_x <~_1 0.6".to_string(),
            "P(C) or ||P(x)||_x <~_2 0.5".to_string(),
            n
        )),
        // Exact comparisons and proportion arithmetic.
        (2usize..5).prop_map(|n| (
            "||P(x)||_x <= ||Q(x)||_x + 1/4".to_string(),
            "||P(x) | Q(x)||_x = 1/2".to_string(),
            n
        )),
        // A conditional binary proportion: slot-pair tables over tuples.
        (2usize..5).prop_map(|n| (
            "||Likes(x, y) | Knows(x, y)||_{x,y} ~=_2 0.5; Knows(A, B)".to_string(),
            "Likes(A, B)".to_string(),
            n
        )),
        // Instances reading a constant-argument atom and a function atom
        // have no static bit: they are walked node by node.
        (2usize..5).prop_map(|n| (
            "||Likes(x, C)||_x ~=_1 0.5".to_string(),
            "Likes(C, C)".to_string(),
            n
        )),
        (2usize..5).prop_map(|n| (
            "||P(Next(x)) | Q(x)||_x ~=_2 0.5; Q(C)".to_string(),
            "P(C)".to_string(),
            n
        )),
    ]
}

/// The full-assignment kernel's unary and binary proportion shapes at
/// domain sizes whose predicate ranges straddle `u64` word boundaries:
/// 31, 33 and 65 bits per unary predicate, 81 per binary one. Only the
/// sampled-world property draws these; no oracle count could walk them.
fn straddling_cases() -> impl Strategy<Value = (String, String, usize)> {
    let ks = common::stable_tenths(Rat::new(1, 4), 2, 6);
    let ks2 = ks.clone();
    let unary = || (0usize..3).prop_map(|i| [31, 33, 65][i]);
    prop_oneof![
        (0usize..ks.len(), unary()).prop_map(move |(i, n)| (
            format!("||P(x)||_x ~=_1 0.{}; Q(C)", ks[i]),
            "P(C)".to_string(),
            n
        )),
        (0usize..ks2.len(), unary()).prop_map(move |(i, n)| (
            format!("||Hep(x) | Jaun(x)||_x ~=_1 0.{}; Jaun(C); Jaun(D)", ks2[i]),
            "Hep(C) & Hep(D)".to_string(),
            n
        )),
        unary().prop_map(|n| (
            "||P(x) | Q(x)||_x ~=_1 0.5".to_string(),
            "Q(C) & P(C)".to_string(),
            n
        )),
        unary().prop_map(|n| (
            "||!P(x) | !Q(x)||_x ~=_2 0.3; ||Q(x)||_x <~_1 0.6".to_string(),
            "P(C) or ||P(x)||_x <~_2 0.5".to_string(),
            n
        )),
        unary().prop_map(|n| (
            "||P(x)||_x <= ||Q(x)||_x + 1/4".to_string(),
            "||P(x) | Q(x)||_x = 1/2".to_string(),
            n
        )),
        Just((
            "||Likes(x, y)||_{x,y} ~=_1 0.25; Likes(A, B)".to_string(),
            "Likes(B, A)".to_string(),
            9
        )),
        Just((
            "||Likes(x, y) | Knows(x, y)||_{x,y} ~=_2 0.5; Knows(A, B)".to_string(),
            "Likes(A, B)".to_string(),
            9
        )),
    ]
}

/// The naive oracle: walk every interpretation, model-check `f`.
fn oracle_count(kb: &KnowledgeBase, f: &Formula, n: usize) -> u128 {
    let tol = tolerances();
    let mut count = 0u128;
    let mut valuation: Vec<Option<usize>> = Vec::new();
    for_each_world(kb.vocab(), n, |w| {
        let mut ev = Evaluator::with_valuation(w, kb.vocab(), &tol, std::mem::take(&mut valuation));
        if ev.eval(f) {
            count += 1;
        }
        valuation = ev.into_valuation();
    });
    count
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn compiled_counts_equal_the_oracle((kb_src, q_src, n) in cases()) {
        let mut kb = KnowledgeBase::parse(&kb_src).unwrap();
        let q = kb.parse_query(&q_src).unwrap();
        let tol = tolerances();
        let kb_formula = kb.as_formula();
        let numerator = Formula::and(kb_formula.clone(), q);
        for f in [&kb_formula, &numerator] {
            let prog = Program::compile(kb.vocab(), n, &tol, f).unwrap();
            let compiled = count_models(&prog, &CountOptions::default()).unwrap();
            let oracle = oracle_count(&kb, f, n);
            prop_assert_eq!(
                compiled.count, oracle,
                "count diverged on `{}` ⊢ `{}` at N={} (visited {})",
                kb_src, q_src, n, compiled.visited
            );
        }
    }

    #[test]
    fn parallel_counts_are_bit_identical((kb_src, q_src, n) in cases()) {
        let mut kb = KnowledgeBase::parse(&kb_src).unwrap();
        let q = kb.parse_query(&q_src).unwrap();
        let tol = tolerances();
        let f = Formula::and(kb.as_formula(), q);
        let prog = Program::compile(kb.vocab(), n, &tol, &f).unwrap();
        let base = count_models(&prog, &CountOptions { threads: 1, ..CountOptions::default() })
            .unwrap();
        for threads in [2usize, 4] {
            let par = count_models(&prog, &CountOptions { threads, ..CountOptions::default() })
                .unwrap();
            // Not just the count: the effort accounting surfaced in
            // traces must match too, or serving output would depend on
            // the worker count.
            prop_assert_eq!(
                par, base,
                "`{}` ⊢ `{}` at N={} diverged at {} threads",
                kb_src, q_src, n, threads
            );
        }
    }
}

proptest! {
    // Evaluation is cheap next to the counts above, so this property
    // samples both generators more densely: every shape, the rare
    // measure-zero ones included, shows up several times.
    #![proptest_config(ProptestConfig::with_cases(192))]

    #[test]
    fn full_assignment_evaluation_matches_the_evaluator(
        (kb_src, q_src, n) in prop_oneof![cases(), kernel_cases(), straddling_cases()],
        seed in 0u64..1_000_000,
    ) {
        let mut kb = KnowledgeBase::parse(&kb_src).unwrap();
        let q = kb.parse_query(&q_src).unwrap();
        let tol = tolerances();
        let kb_formula = kb.as_formula();
        let numerator = Formula::and(kb_formula.clone(), q.clone());
        let mut rng = StdRng::seed_from_u64(seed);
        for f in [&kb_formula, &q, &numerator] {
            let prog = Program::compile(kb.vocab(), n, &tol, f).unwrap();
            for _ in 0..64 {
                let world = sample_world(kb.vocab(), n, &mut rng);
                let packed = prog.layout().encode(&world);
                prop_assert_eq!(
                    prog.holds(&packed),
                    Evaluator::new(&world, kb.vocab(), &tol).eval(f),
                    "`{}` ⊢ `{}` at N={}: verdicts differ on {:?}",
                    kb_src, q_src, n, world
                );
            }
        }
    }
}
