//! Property tests for the symmetry-reduced counting subsystem's
//! exactness contract:
//!
//! * on generated in-fragment knowledge bases the orbit-weighted count
//!   (`Σ weight(rep)` over canonical representatives) is **exactly
//!   equal** to the `for_each_world` oracle and to the plain compiled
//!   branch-and-count — for both the `#KB` denominator and the
//!   `#(KB ∧ query)` numerator, so symmetry mode can never shift a
//!   Definition 4.2 ratio;
//! * a [`rw_worlds::SymmetryOutcome`] (count *and* representative
//!   total) is **bit-identical** across 1/2/4 worker threads.
//!
//! Domain sizes stay small enough for the naive oracle: `N ≤ 6` on
//! unary shapes, `N ≤ 3` once a binary predicate multiplies the world
//! space by `2^(N²)`. One arm names seven to nine binary atoms on three
//! constants, so the orbit counter's σ sweep runs over several words.

mod common;

use proptest::prelude::*;
use rw_logic::ast::Formula;
use rw_logic::{KnowledgeBase, Tolerances};
use rw_util::Rat;
use rw_worlds::eval::Evaluator;
use rw_worlds::{count_models, for_each_world, CountOptions, Program, SymmetrySpec};

fn tolerances() -> Tolerances {
    Tolerances::uniform(Rat::new(1, 4))
}

/// In-fragment KBs: single-variable unary proportions (conditional and
/// plain), ground unary and non-unary constant atoms, and boolean
/// combinations thereof. Proportions are drawn from the `N`-stable
/// alphabet ([`common::stable_tenths`]) so satisfiability cannot flip
/// inside the scanned window.
fn cases() -> impl Strategy<Value = (String, String, usize)> {
    let ks = common::stable_tenths(Rat::new(1, 4), 2, 6);
    let ks2 = ks.clone();
    let ks3 = ks.clone();
    prop_oneof![
        (0usize..ks.len(), 2usize..7).prop_map(move |(i, n)| (
            format!("||P(x)||_x ~=_1 0.{}; Q(C)", ks[i]),
            "P(C) & !Q(D)".to_string(),
            n
        )),
        (0usize..ks2.len(), 3usize..7).prop_map(move |(i, n)| (
            format!("||Hep(x) | Jaun(x)||_x ~=_1 0.{}; Jaun(C); Jaun(D)", ks2[i]),
            "Hep(C) & Hep(D)".to_string(),
            n
        )),
        // Non-unary constant atoms alone: the named-bit σ sweep.
        (2usize..4).prop_map(|n| (
            "Likes(A, B); !Likes(B, B)".to_string(),
            "Likes(B, A) or Likes(A, A)".to_string(),
            n
        )),
        // Unary proportion and binary ground atoms together.
        (0usize..ks3.len(), 2usize..4).prop_map(move |(i, n)| (
            format!("||P(x)||_x ~=_1 0.{}; Likes(A, B); P(A)", ks3[i]),
            "Likes(B, A) => P(B)".to_string(),
            n
        )),
        // Three constants and seven to nine named atoms: the σ sweep
        // spans two to eight 64-bit words.
        (0usize..3, 2usize..4).prop_map(|(extra, n)| (
            "Likes(A, B) or Likes(B, C); Likes(C, A) => !Likes(A, A); \
             Likes(B, B) <=> (P(C) or Likes(C, C))"
                .to_string(),
            [
                "Likes(B, A)",
                "Likes(B, A) or !Likes(A, C)",
                "Likes(B, A) or !Likes(A, C) or Likes(C, B)"
            ][extra]
                .to_string(),
            n
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
    fn orbit_weighted_counts_equal_oracle_and_plain((kb_src, q_src, n) in cases()) {
        let mut kb = KnowledgeBase::parse(&kb_src).unwrap();
        let q = kb.parse_query(&q_src).unwrap();
        let tol = tolerances();
        let kb_formula = kb.as_formula();
        let numerator = Formula::and(kb_formula.clone(), q);
        for f in [&kb_formula, &numerator] {
            let spec = SymmetrySpec::detect(kb.vocab(), f)
                .expect("generated cases stay inside the symmetry fragment");
            let sym = spec.count(n, &tol, &CountOptions::default()).unwrap();
            let sym_count = sym.count.exact().expect("small-N counts fit u128");
            let oracle = oracle_count(&kb, f, n);
            prop_assert_eq!(
                sym_count, oracle,
                "symmetry vs oracle diverged on `{}` ⊢ `{}` at N={} ({} reps)",
                kb_src, q_src, n, sym.reps
            );
            let prog = Program::compile(kb.vocab(), n, &tol, f).unwrap();
            let plain = count_models(&prog, &CountOptions::default()).unwrap();
            prop_assert_eq!(
                sym_count, plain.count,
                "symmetry vs branch-and-count diverged on `{}` ⊢ `{}` at N={}",
                kb_src, q_src, n
            );
        }
    }

    #[test]
    fn symmetry_outcomes_are_bit_identical_across_thread_counts(
        (kb_src, q_src, n) in cases()
    ) {
        let mut kb = KnowledgeBase::parse(&kb_src).unwrap();
        let q = kb.parse_query(&q_src).unwrap();
        let tol = tolerances();
        let f = Formula::and(kb.as_formula(), q);
        let spec = SymmetrySpec::detect(kb.vocab(), &f)
            .expect("generated cases stay inside the symmetry fragment");
        let base = spec
            .count(n, &tol, &CountOptions { threads: 1, ..CountOptions::default() })
            .unwrap();
        for threads in [2usize, 4] {
            let par = spec
                .count(n, &tol, &CountOptions { threads, ..CountOptions::default() })
                .unwrap();
            // Not just the count: the representative total surfaced in
            // provenance must match too, or serving output would depend
            // on the worker count.
            prop_assert_eq!(
                par, base,
                "`{}` ⊢ `{}` at N={} diverged at {} threads",
                kb_src, q_src, n, threads
            );
        }
    }
}
