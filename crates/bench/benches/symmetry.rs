//! Symmetry-reduced orbit counting vs plain branch-and-count (experiment
//! index B13) — the deep-domain reach the PR-6 subsystem exists to prove.
//!
//! For each KB shape in the symmetry fragment the harness measures two
//! things under the *same* default visited budget:
//!
//! * **max reachable N** — the deepest domain size each engine can count
//!   `#KB` and `#(KB ∧ q)` at before exhausting the budget (or the
//!   per-shape time cap): plain branch-and-count visits worlds, so it
//!   stalls near `N ≈ 8`; orbit counting visits canonical
//!   representatives, whose number grows polynomially, and must reach
//!   `N ≥ 32` on every shape or the run fails;
//! * **speedup over a common scan** — both engines count the same totals
//!   at every `N` in `2..=6` (asserted exactly equal first, so the
//!   Definition 4.2 ratio cannot drift) and the median wall-time ratio is
//!   reported. A sample is what one query's rising-`N` scan pays: the
//!   symmetry engine detects fresh specs, so the per-spec tables its
//!   first count builds are inside the timed rows.
//!
//! Results land in `BENCH_6.json` at the workspace root as
//! machine-readable `{shape, engine, max_n, median_us, speedup_vs_plain}`
//! rows plus the regression gate verdict.

use rw_logic::ast::Formula;
use rw_logic::{KnowledgeBase, Tolerances};
use rw_util::Rat;
use rw_worlds::{count_formula_models, CountOptions, SymmetrySpec};
use std::time::{Duration, Instant};

const SAMPLES: usize = 5;
/// The top of the common scan `2..=COMMON_N` both engines count in the
/// speedup comparison.
const COMMON_N: usize = 6;
/// The regression gate: orbit counting must reach at least this depth on
/// every shape (4× the plain engine's historical `MAX_COMPILED_N = 8`).
const REQUIRED_SYMMETRY_N: usize = 32;
/// Never scan past the engine's own window.
const N_CAP: usize = 64;
/// Per-engine wall-clock cap on the reachability scan, so a pathological
/// shape degrades the report instead of hanging the bench.
const SCAN_TIME_CAP: Duration = Duration::from_secs(5);

struct Shape {
    label: &'static str,
    kb_src: &'static str,
    query: &'static str,
}

fn shapes() -> Vec<Shape> {
    vec![
        Shape {
            label: "unary-proportion",
            kb_src: "||P(x)||_x ~=_1 0.5; P(C)",
            query: "P(C)",
        },
        Shape {
            label: "conditional-proportion",
            kb_src: "||Hep(x) | Jaun(x)||_x ~=_1 0.8; Jaun(C); Jaun(D)",
            query: "Hep(C) & Hep(D)",
        },
        Shape {
            label: "binary-ground",
            kb_src: "Likes(A, B)",
            query: "Likes(B, A)",
        },
        Shape {
            label: "unary-plus-binary",
            kb_src: "||P(x)||_x ~=_1 0.5; Likes(A, B); P(A)",
            query: "Likes(B, A)",
        },
    ]
}

fn median_us(samples: &mut [f64]) -> f64 {
    samples.sort_by(|a, b| a.total_cmp(b));
    samples[samples.len() / 2]
}

/// The deepest `N` at which both counts succeed within the default
/// budget, scanning upward until an engine-reported failure, the window
/// edge, or the time cap.
fn max_reachable_n(mut count_at: impl FnMut(usize) -> bool) -> usize {
    let started = Instant::now();
    let mut max_n = 0;
    for n in 2..=N_CAP {
        if started.elapsed() > SCAN_TIME_CAP || !count_at(n) {
            break;
        }
        max_n = n;
    }
    max_n
}

fn main() {
    let tol = Tolerances::uniform(Rat::new(1, 16));
    let opts = CountOptions::default();
    let mut rows = Vec::new();
    let mut min_symmetry_n = usize::MAX;

    println!("symmetry-reduced orbit counting vs plain branch-and-count\n");
    println!(
        "{:<24} {:>10} {:>10} {:>12} {:>12} {:>9}",
        "shape", "plain maxN", "sym maxN", "plain µs", "sym µs", "speedup"
    );

    for s in shapes() {
        let mut kb = KnowledgeBase::parse(s.kb_src).unwrap();
        let query = kb.parse_query(s.query).unwrap();
        let kb_formula = kb.as_formula();
        let numerator_formula = Formula::and(kb_formula.clone(), query);
        let num_spec = SymmetrySpec::detect(kb.vocab(), &numerator_formula)
            .expect("bench shapes stay inside the symmetry fragment");
        let kb_spec = SymmetrySpec::detect(kb.vocab(), &kb_formula)
            .expect("bench shapes stay inside the symmetry fragment");

        // Reachability: deepest N each engine can count both totals at.
        let plain_max = max_reachable_n(|n| {
            count_formula_models(kb.vocab(), n, &tol, &numerator_formula, &opts).is_ok()
                && count_formula_models(kb.vocab(), n, &tol, &kb_formula, &opts).is_ok()
        });
        let sym_max = max_reachable_n(|n| {
            num_spec.count(n, &tol, &opts).is_ok() && kb_spec.count(n, &tol, &opts).is_ok()
        });
        min_symmetry_n = min_symmetry_n.min(sym_max);

        // Speedup over the common scan, exactness asserted first.
        let mut plain_samples = Vec::with_capacity(SAMPLES);
        let mut plain_counts = Vec::new();
        for _ in 0..SAMPLES {
            let t = Instant::now();
            plain_counts = (2..=COMMON_N)
                .map(|n| {
                    let num = count_formula_models(kb.vocab(), n, &tol, &numerator_formula, &opts)
                        .unwrap();
                    let den =
                        count_formula_models(kb.vocab(), n, &tol, &kb_formula, &opts).unwrap();
                    (num.count, den.count)
                })
                .collect();
            plain_samples.push(t.elapsed().as_secs_f64() * 1e6);
        }
        let mut sym_samples = Vec::with_capacity(SAMPLES);
        let mut sym_counts = Vec::new();
        for _ in 0..SAMPLES {
            let t = Instant::now();
            let num_spec = SymmetrySpec::detect(kb.vocab(), &numerator_formula).unwrap();
            let kb_spec = SymmetrySpec::detect(kb.vocab(), &kb_formula).unwrap();
            sym_counts = (2..=COMMON_N)
                .map(|n| {
                    let num = num_spec.count(n, &tol, &opts).unwrap();
                    let den = kb_spec.count(n, &tol, &opts).unwrap();
                    (
                        num.count.exact().expect("common-scan counts fit u128"),
                        den.count.exact().expect("common-scan counts fit u128"),
                    )
                })
                .collect();
            sym_samples.push(t.elapsed().as_secs_f64() * 1e6);
        }
        assert_eq!(
            sym_counts, plain_counts,
            "count mismatch on `{}` ⊢ `{}` over N=2..={COMMON_N}",
            s.kb_src, s.query
        );

        let plain_us = median_us(&mut plain_samples);
        let sym_us = median_us(&mut sym_samples);
        let speedup = plain_us / sym_us;
        println!(
            "{:<24} {:>10} {:>10} {:>12.1} {:>12.1} {:>8.1}x",
            s.label, plain_max, sym_max, plain_us, sym_us, speedup
        );

        rows.push(format!(
            concat!(
                r#"{{"shape":"{}","engine":"plain","max_n":{},"median_us":{:.1},"#,
                r#""speedup_vs_plain":1.0}}"#
            ),
            s.label, plain_max, plain_us
        ));
        rows.push(format!(
            concat!(
                r#"{{"shape":"{}","engine":"symmetry","max_n":{},"median_us":{:.1},"#,
                r#""speedup_vs_plain":{:.2}}}"#
            ),
            s.label, sym_max, sym_us, speedup
        ));
    }

    let report = format!(
        "{{\"bench\":\"symmetry\",\"samples\":{},\"common_n\":{},\
         \"required_symmetry_n\":{},\"min_symmetry_n\":{},\"results\":[{}]}}\n",
        SAMPLES,
        COMMON_N,
        REQUIRED_SYMMETRY_N,
        min_symmetry_n,
        rows.join(",")
    );
    // `CARGO_MANIFEST_DIR` = crates/bench; the report lives at the
    // workspace root where CI (and readers) expect it.
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_6.json");
    std::fs::write(path, &report).expect("write BENCH_6.json");
    println!("\nwrote {path}");

    assert!(
        min_symmetry_n >= REQUIRED_SYMMETRY_N,
        "orbit counting must reach N≥{REQUIRED_SYMMETRY_N} on every shape within the \
         default budget, got N={min_symmetry_n}"
    );
    println!("symmetry reach ≥ N={REQUIRED_SYMMETRY_N}: ok (N={min_symmetry_n} min)");
}
