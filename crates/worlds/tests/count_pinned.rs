//! Pinned exact counts: `CountOutcome` and `SymmetryOutcome` values for
//! the exact-count benchmark's family shapes.
//!
//! A degree of belief is the ratio of two of these counts (Definition
//! 4.2), and the serving layer's `enum.visited`, `enum.branched` and
//! `enum.orbits` metrics are their effort totals. These rows were
//! captured from the counters that decided every proportion comparison
//! on reduced `Rat` values; a change to how comparisons are decided must
//! leave the count, the visited and branched totals, and the orbit
//! representative total exactly as they are here.
//!
//! Coverage: the six exact-count family shapes (the benchmark's `{s}`
//! suffix set to `0`), each KB alone and with every family query, at the
//! finest default tolerance `τ = 1/16`. Branch-and-count runs at N = 2,
//! 3 and, for the plain families, the top of the scan window; orbit
//! counting runs the symmetry families at N = 2, 3 and the top of theirs
//! (32, 24, 16).

use rw_logic::ast::Formula;
use rw_logic::{KnowledgeBase, Tolerances};
use rw_util::Rat;
use rw_worlds::{count_formula_models, CountOptions, SymmetrySpec};

/// `(KB, query ("" for the KB alone), N, count, visited, branched)`.
type PlainRow = (&'static str, &'static str, usize, u128, u64, u64);

/// `(KB, query ("" for the KB alone), N, coeff, exp2, reps)`: the count
/// is `coeff · 2^exp2`.
type OrbitRow = (&'static str, &'static str, usize, u128, u64, u64);

#[rustfmt::skip]
const PLAIN: &[PlainRow] = &[
    ("||Likes(x, y)||_{x,y} ~=_1 0.25; Likes(A0, B0)", "", 2, 4, 63, 31),
    ("||Likes(x, y)||_{x,y} ~=_1 0.25; Likes(A0, B0)", "", 3, 72, 4560, 2244),
    ("||Likes(x, y)||_{x,y} ~=_1 0.25; Likes(A0, B0)", "Likes(B0, A0)", 2, 2, 47, 23),
    ("||Likes(x, y)||_{x,y} ~=_1 0.25; Likes(A0, B0)", "Likes(B0, A0)", 3, 30, 3040, 1484),
    ("||Likes(x, y)||_{x,y} ~=_1 0.25; Likes(A0, B0)", "Likes(A0, A0)", 2, 2, 47, 23),
    ("||Likes(x, y)||_{x,y} ~=_1 0.25; Likes(A0, B0)", "Likes(A0, A0)", 3, 30, 3032, 1480),
    ("||Likes(x, y)||_{x,y} ~=_1 0.25; Likes(A0, B0)", "!Likes(B0, A0)", 2, 2, 19, 9),
    ("||Likes(x, y)||_{x,y} ~=_1 0.25; Likes(A0, B0)", "!Likes(B0, A0)", 3, 42, 1544, 736),
    ("||Likes(x, y)||_{x,y} ~=_1 0.25; Likes(A0, B0)", "Likes(B0, B0) & Likes(B0, A0)", 2, 2, 39, 19),
    ("||Likes(x, y)||_{x,y} ~=_1 0.25; Likes(A0, B0)", "Likes(B0, B0) & Likes(B0, A0)", 3, 24, 2280, 1104),
    ("Likes(A0, B0); P(A0)", "", 2, 64, 7, 3),
    ("Likes(A0, B0); P(A0)", "", 3, 9216, 72, 0),
    ("Likes(A0, B0); P(A0)", "", 6, 39582418599936, 72, 0),
    ("Likes(A0, B0); P(A0)", "Likes(B0, A0)", 2, 48, 7, 3),
    ("Likes(A0, B0); P(A0)", "Likes(B0, A0)", 3, 6144, 72, 0),
    ("Likes(A0, B0); P(A0)", "Likes(B0, A0)", 6, 23089744183296, 72, 0),
    ("Likes(A0, B0); P(A0)", "P(B0)", 2, 48, 7, 3),
    ("Likes(A0, B0); P(A0)", "P(B0)", 3, 6144, 72, 0),
    ("Likes(A0, B0); P(A0)", "P(B0)", 6, 23089744183296, 72, 0),
    ("Likes(A0, B0); P(A0)", "Likes(B0, A0) & P(B0)", 2, 40, 7, 3),
    ("Likes(A0, B0); P(A0)", "Likes(B0, A0) & P(B0)", 3, 4608, 72, 0),
    ("Likes(A0, B0); P(A0)", "Likes(B0, A0) & P(B0)", 6, 14843406974976, 72, 0),
    ("Likes(A0, B0); P(A0)", "Likes(A0, A0)", 2, 48, 7, 3),
    ("Likes(A0, B0); P(A0)", "Likes(A0, A0)", 3, 6144, 72, 0),
    ("Likes(A0, B0); P(A0)", "Likes(A0, A0)", 6, 23089744183296, 72, 0),
    ("Likes(A0, B0); Likes(B0, C0)", "", 2, 40, 15, 7),
    ("Likes(A0, B0); Likes(B0, C0)", "", 3, 3840, 108, 0),
    ("Likes(A0, B0); Likes(B0, C0)", "", 5, 1090519040, 125, 0),
    ("Likes(A0, B0); Likes(B0, C0)", "Likes(A0, C0)", 2, 36, 15, 7),
    ("Likes(A0, B0); Likes(B0, C0)", "Likes(A0, C0)", 3, 3072, 108, 0),
    ("Likes(A0, B0); Likes(B0, C0)", "Likes(A0, C0)", 5, 754974720, 125, 0),
    ("Likes(A0, B0); Likes(B0, C0)", "Likes(C0, A0)", 2, 28, 15, 7),
    ("Likes(A0, B0); Likes(B0, C0)", "Likes(C0, A0)", 3, 2304, 108, 0),
    ("Likes(A0, B0); Likes(B0, C0)", "Likes(C0, A0)", 5, 587202560, 125, 0),
    ("Likes(A0, B0); Likes(B0, C0)", "Likes(B0, A0) & Likes(C0, B0)", 2, 32, 15, 7),
    ("Likes(A0, B0); Likes(B0, C0)", "Likes(B0, A0) & Likes(C0, B0)", 3, 2496, 108, 0),
    ("Likes(A0, B0); Likes(B0, C0)", "Likes(B0, A0) & Likes(C0, B0)", 5, 545259520, 125, 0),
    ("||P(x)||_x ~=_1 0.3; Likes(A0, B0); P(A0)", "", 2, 0, 15, 7),
    ("||P(x)||_x ~=_1 0.3; Likes(A0, B0); P(A0)", "", 3, 2304, 72, 0),
    ("||P(x)||_x ~=_1 0.3; Likes(A0, B0); P(A0)", "Likes(B0, A0)", 2, 0, 15, 7),
    ("||P(x)||_x ~=_1 0.3; Likes(A0, B0); P(A0)", "Likes(B0, A0)", 3, 1536, 72, 0),
    ("||P(x)||_x ~=_1 0.3; Likes(A0, B0); P(A0)", "P(B0)", 2, 0, 11, 5),
    ("||P(x)||_x ~=_1 0.3; Likes(A0, B0); P(A0)", "P(B0)", 3, 768, 72, 0),
    ("||P(x)||_x ~=_1 0.3; Likes(A0, B0); P(A0)", "Likes(B0, A0) & P(B0)", 2, 0, 11, 5),
    ("||P(x)||_x ~=_1 0.3; Likes(A0, B0); P(A0)", "Likes(B0, A0) & P(B0)", 3, 768, 72, 0),
    ("||P(x)||_x ~=_1 0.3; Likes(A0, B0); P(A0)", "Likes(A0, A0)", 2, 0, 15, 7),
    ("||P(x)||_x ~=_1 0.3; Likes(A0, B0); P(A0)", "Likes(A0, A0)", 3, 1536, 72, 0),
    ("||P(x)||_x ~=_1 0.5; Likes(A0, B0); P(A0)", "", 2, 32, 15, 7),
    ("||P(x)||_x ~=_1 0.5; Likes(A0, B0); P(A0)", "", 3, 0, 72, 0),
    ("||P(x)||_x ~=_1 0.5; Likes(A0, B0); P(A0)", "Likes(B0, A0)", 2, 24, 15, 7),
    ("||P(x)||_x ~=_1 0.5; Likes(A0, B0); P(A0)", "Likes(B0, A0)", 3, 0, 72, 0),
    ("||P(x)||_x ~=_1 0.5; Likes(A0, B0); P(A0)", "P(B0)", 2, 16, 11, 5),
    ("||P(x)||_x ~=_1 0.5; Likes(A0, B0); P(A0)", "P(B0)", 3, 0, 72, 0),
    ("||P(x)||_x ~=_1 0.5; Likes(A0, B0); P(A0)", "Likes(B0, A0) & P(B0)", 2, 16, 11, 5),
    ("||P(x)||_x ~=_1 0.5; Likes(A0, B0); P(A0)", "Likes(B0, A0) & P(B0)", 3, 0, 72, 0),
    ("||P(x)||_x ~=_1 0.4; Likes(A0, B0); Likes(B0, C0); P(C0)", "", 2, 0, 31, 15),
    ("||P(x)||_x ~=_1 0.4; Likes(A0, B0); Likes(B0, C0); P(C0)", "", 3, 0, 180, 36),
    ("||P(x)||_x ~=_1 0.4; Likes(A0, B0); Likes(B0, C0); P(C0)", "Likes(C0, A0)", 2, 0, 31, 15),
    ("||P(x)||_x ~=_1 0.4; Likes(A0, B0); Likes(B0, C0); P(C0)", "Likes(C0, A0)", 3, 0, 180, 36),
    ("||P(x)||_x ~=_1 0.4; Likes(A0, B0); Likes(B0, C0); P(C0)", "P(A0)", 2, 0, 23, 11),
    ("||P(x)||_x ~=_1 0.4; Likes(A0, B0); Likes(B0, C0); P(C0)", "P(A0)", 3, 0, 144, 18),
    ("||P(x)||_x ~=_1 0.4; Likes(A0, B0); Likes(B0, C0); P(C0)", "Likes(A0, C0) & P(B0)", 2, 0, 19, 9),
    ("||P(x)||_x ~=_1 0.4; Likes(A0, B0); Likes(B0, C0); P(C0)", "Likes(A0, C0) & P(B0)", 3, 0, 144, 18),
];

#[rustfmt::skip]
const ORBITS: &[OrbitRow] = &[
    ("||P(x)||_x ~=_1 0.3; Likes(A0, B0); P(A0)", "", 2, 0, 0, 48),
    ("||P(x)||_x ~=_1 0.3; Likes(A0, B0); P(A0)", "", 3, 9, 8, 69),
    ("||P(x)||_x ~=_1 0.3; Likes(A0, B0); P(A0)", "", 32, 18757635, 1035, 678),
    ("||P(x)||_x ~=_1 0.3; Likes(A0, B0); P(A0)", "Likes(B0, A0)", 2, 0, 0, 64),
    ("||P(x)||_x ~=_1 0.3; Likes(A0, B0); P(A0)", "Likes(B0, A0)", 3, 3, 9, 93),
    ("||P(x)||_x ~=_1 0.3; Likes(A0, B0); P(A0)", "Likes(B0, A0)", 32, 619001955, 1029, 934),
    ("||P(x)||_x ~=_1 0.3; Likes(A0, B0); P(A0)", "P(B0)", 2, 0, 0, 47),
    ("||P(x)||_x ~=_1 0.3; Likes(A0, B0); P(A0)", "P(B0)", 3, 3, 8, 67),
    ("||P(x)||_x ~=_1 0.3; Likes(A0, B0); P(A0)", "P(B0)", 32, 390754845, 1029, 647),
    ("||P(x)||_x ~=_1 0.3; Likes(A0, B0); P(A0)", "Likes(B0, A0) & P(B0)", 2, 0, 0, 63),
    ("||P(x)||_x ~=_1 0.3; Likes(A0, B0); P(A0)", "Likes(B0, A0) & P(B0)", 3, 3, 8, 91),
    ("||P(x)||_x ~=_1 0.3; Likes(A0, B0); P(A0)", "Likes(B0, A0) & P(B0)", 32, 428270115, 1028, 903),
    ("||P(x)||_x ~=_1 0.3; Likes(A0, B0); P(A0)", "Likes(A0, A0)", 2, 0, 0, 64),
    ("||P(x)||_x ~=_1 0.3; Likes(A0, B0); P(A0)", "Likes(A0, A0)", 3, 3, 9, 93),
    ("||P(x)||_x ~=_1 0.3; Likes(A0, B0); P(A0)", "Likes(A0, A0)", 32, 619001955, 1029, 934),
    ("||P(x)||_x ~=_1 0.5; Likes(A0, B0); P(A0)", "", 2, 1, 5, 48),
    ("||P(x)||_x ~=_1 0.5; Likes(A0, B0); P(A0)", "", 3, 0, 0, 69),
    ("||P(x)||_x ~=_1 0.5; Likes(A0, B0); P(A0)", "", 24, 17316999, 582, 510),
    ("||P(x)||_x ~=_1 0.5; Likes(A0, B0); P(A0)", "Likes(B0, A0)", 2, 3, 3, 64),
    ("||P(x)||_x ~=_1 0.5; Likes(A0, B0); P(A0)", "Likes(B0, A0)", 3, 0, 0, 93),
    ("||P(x)||_x ~=_1 0.5; Likes(A0, B0); P(A0)", "Likes(B0, A0)", 24, 144308325, 578, 702),
    ("||P(x)||_x ~=_1 0.5; Likes(A0, B0); P(A0)", "P(B0)", 2, 1, 4, 47),
    ("||P(x)||_x ~=_1 0.5; Likes(A0, B0); P(A0)", "P(B0)", 3, 0, 0, 67),
    ("||P(x)||_x ~=_1 0.5; Likes(A0, B0); P(A0)", "P(B0)", 24, 34790007, 580, 487),
    ("||P(x)||_x ~=_1 0.5; Likes(A0, B0); P(A0)", "Likes(B0, A0) & P(B0)", 2, 1, 4, 63),
    ("||P(x)||_x ~=_1 0.5; Likes(A0, B0); P(A0)", "Likes(B0, A0) & P(B0)", 3, 0, 0, 91),
    ("||P(x)||_x ~=_1 0.5; Likes(A0, B0); P(A0)", "Likes(B0, A0) & P(B0)", 24, 75352347, 578, 679),
    ("||P(x)||_x ~=_1 0.4; Likes(A0, B0); Likes(B0, C0); P(C0)", "", 2, 0, 0, 156),
    ("||P(x)||_x ~=_1 0.4; Likes(A0, B0); Likes(B0, C0); P(C0)", "", 3, 0, 0, 345),
    ("||P(x)||_x ~=_1 0.4; Likes(A0, B0); Likes(B0, C0); P(C0)", "", 16, 257257, 261, 1866),
    ("||P(x)||_x ~=_1 0.4; Likes(A0, B0); Likes(B0, C0); P(C0)", "Likes(C0, A0)", 2, 0, 0, 252),
    ("||P(x)||_x ~=_1 0.4; Likes(A0, B0); Likes(B0, C0); P(C0)", "Likes(C0, A0)", 3, 0, 0, 569),
    ("||P(x)||_x ~=_1 0.4; Likes(A0, B0); Likes(B0, C0); P(C0)", "Likes(C0, A0)", 16, 259259, 260, 3130),
    ("||P(x)||_x ~=_1 0.4; Likes(A0, B0); Likes(B0, C0); P(C0)", "P(A0)", 2, 0, 0, 154),
    ("||P(x)||_x ~=_1 0.4; Likes(A0, B0); Likes(B0, C0); P(C0)", "P(A0)", 3, 0, 0, 339),
    ("||P(x)||_x ~=_1 0.4; Likes(A0, B0); Likes(B0, C0); P(C0)", "P(A0)", 16, 107107, 261, 1808),
    ("||P(x)||_x ~=_1 0.4; Likes(A0, B0); Likes(B0, C0); P(C0)", "Likes(A0, C0) & P(B0)", 2, 0, 0, 186),
    ("||P(x)||_x ~=_1 0.4; Likes(A0, B0); Likes(B0, C0); P(C0)", "Likes(A0, C0) & P(B0)", 3, 0, 0, 467),
    ("||P(x)||_x ~=_1 0.4; Likes(A0, B0); Likes(B0, C0); P(C0)", "Likes(A0, C0) & P(B0)", 16, 1038037, 257, 2560),
];

fn tolerances() -> Tolerances {
    Tolerances::uniform(Rat::new(1, 16))
}

/// The formula a point counts, over the vocabulary the query extends:
/// the KB alone for the denominator, `KB ∧ query` for the numerator.
fn formula(kb_src: &str, query: &str) -> (KnowledgeBase, Formula) {
    let mut kb = KnowledgeBase::parse(kb_src).unwrap();
    let f = if query.is_empty() {
        kb.as_formula()
    } else {
        let q = kb.parse_query(query).unwrap();
        Formula::and(kb.as_formula(), q)
    };
    (kb, f)
}

#[test]
fn branch_and_count_outcomes_are_pinned() {
    for &(kb_src, query, n, count, visited, branched) in PLAIN {
        let (kb, f) = formula(kb_src, query);
        let out = count_formula_models(kb.vocab(), n, &tolerances(), &f, &CountOptions::default())
            .unwrap();
        assert_eq!(
            (out.count, out.visited, out.branched),
            (count, visited, branched),
            "`{kb_src}` ⊢ `{query}` at N={n}"
        );
    }
}

#[test]
fn orbit_outcomes_are_pinned() {
    for &(kb_src, query, n, coeff, exp2, reps) in ORBITS {
        let (kb, f) = formula(kb_src, query);
        let spec = SymmetrySpec::detect(kb.vocab(), &f).expect("in the symmetry fragment");
        let out = spec
            .count(n, &tolerances(), &CountOptions::default())
            .unwrap();
        assert_eq!(
            (out.count.coeff, out.count.exp2, out.reps),
            (coeff, exp2, reps),
            "`{kb_src}` ⊢ `{query}` at N={n}"
        );
    }
}
