//! Compiled branch-and-count vs naive odometer enumeration (experiment
//! index B12) — the exact-counting speedup this harness exists to prove.
//!
//! Two workloads, both counted at the same domain size so the comparison
//! is count-for-count:
//!
//! * the **PR-2 trap shapes** — `!!φ(c)`, conjunctions over individuals
//!   sharing a statistic — against the 5-conjunct trap KB (4 unary
//!   predicates + 2 constants: 2^16·16 ≈ 1M interpretations at N=4);
//! * **binary-predicate KBs the unary engine rejects**, where one
//!   relation alone contributes `2^(N²)` interpretations.
//!
//! For every query the naive path walks all interpretations once
//! (`count_worlds` returns numerator and denominator in a single pass);
//! the compiled path counts the same two totals by branch-and-count.
//! The counts are asserted **exactly equal** — the Definition 4.2 ratio,
//! and therefore every served belief, is bit-identical — and the run
//! fails unless the compiled engine beats the floor declared by the
//! `min_speedup` gate in `workloads/trap_shapes.jsonl` on each trap
//! query. Results land in `BENCH_5.json` at the workspace root as
//! machine-readable `{query, engine, median_us, speedup_vs_naive}` rows.

use rw_logic::ast::Formula;
use rw_logic::{KnowledgeBase, Tolerances};
use rw_obs::escape;
use rw_util::Rat;
use rw_worlds::{count_formula_models, count_worlds, CountOptions};
use std::time::Instant;

const SAMPLES: usize = 5;

/// The ≥N× floor lives in the `min_speedup` gate of
/// `workloads/trap_shapes.jsonl`, so this bench and `rwq lab run`
/// enforce one number; editing the workload header moves both.
fn required_trap_speedup() -> f64 {
    let path = concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/../../workloads/trap_shapes.jsonl"
    );
    let workload = rw_lab::Workload::load(std::path::Path::new(path))
        .unwrap_or_else(|e| panic!("load {path}: {e}"));
    workload
        .gates
        .min_speedup
        .unwrap_or_else(|| panic!("{path} must declare a min_speedup gate"))
        .value
}

struct Workload {
    label: &'static str,
    kb_src: &'static str,
    query: &'static str,
    n: usize,
    /// Whether the ≥5× assertion applies (the trap workload).
    trap: bool,
}

fn workloads() -> Vec<Workload> {
    let trap_kb = "||Hep(x) | Jaun(x)||_x ~=_1 0.8; ||Over60(x) | Patient(x)||_x ~=_2 0.4; \
                   Jaun(Eric); Patient(Eric); Jaun(Tom)";
    vec![
        Workload {
            label: "trap",
            kb_src: trap_kb,
            query: "!!Hep(Eric)",
            n: 4,
            trap: true,
        },
        Workload {
            label: "trap",
            kb_src: trap_kb,
            query: "Hep(Eric) & Hep(Tom)",
            n: 4,
            trap: true,
        },
        Workload {
            label: "trap",
            kb_src: trap_kb,
            query: "Hep(Eric) & Over60(Eric)",
            n: 4,
            trap: true,
        },
        // A binary predicate: 2^(N²)·N² interpretations, out of the
        // unary engine's reach entirely.
        Workload {
            label: "binary",
            kb_src: "Likes(A, B)",
            query: "Likes(B, A)",
            n: 4,
            trap: false,
        },
        Workload {
            label: "binary",
            kb_src: "||Likes(x, y)||_{x,y} ~=_1 0.25; Likes(A, B)",
            query: "Likes(B, A)",
            n: 3,
            trap: false,
        },
    ]
}

fn median_us(samples: &mut [f64]) -> f64 {
    samples.sort_by(|a, b| a.total_cmp(b));
    samples[samples.len() / 2]
}

fn main() {
    let required_trap_speedup = required_trap_speedup();
    let tol = Tolerances::uniform(Rat::new(1, 4));
    let mut rows = Vec::new();
    let mut min_trap_speedup = f64::INFINITY;

    println!("compiled branch-and-count vs naive odometer enumeration\n");
    println!(
        "{:<28} {:>2} {:>12} {:>12} {:>9}   counts",
        "query", "N", "naive µs", "compiled µs", "speedup"
    );

    for w in workloads() {
        let mut kb = KnowledgeBase::parse(w.kb_src).unwrap();
        let query = kb.parse_query(w.query).unwrap();
        let kb_formula = kb.as_formula();
        let numerator_formula = Formula::and(kb_formula.clone(), query.clone());

        // Naive: one odometer pass over every interpretation computes
        // numerator and denominator together.
        let mut naive_samples = Vec::with_capacity(SAMPLES);
        let mut naive_counts = (0u128, 0u128);
        for _ in 0..SAMPLES {
            let t = Instant::now();
            naive_counts = count_worlds(kb.vocab(), w.n, &tol, &query, &kb_formula);
            naive_samples.push(t.elapsed().as_secs_f64() * 1e6);
        }

        // Compiled: branch-and-count the same two totals.
        let opts = CountOptions::default();
        let mut compiled_samples = Vec::with_capacity(SAMPLES);
        let mut compiled_counts = (0u128, 0u128);
        for _ in 0..SAMPLES {
            let t = Instant::now();
            let num =
                count_formula_models(kb.vocab(), w.n, &tol, &numerator_formula, &opts).unwrap();
            let den = count_formula_models(kb.vocab(), w.n, &tol, &kb_formula, &opts).unwrap();
            compiled_counts = (num.count, den.count);
            compiled_samples.push(t.elapsed().as_secs_f64() * 1e6);
        }

        // Exactness first: identical counts mean identical beliefs.
        assert_eq!(
            compiled_counts, naive_counts,
            "count mismatch on `{}` ⊢ `{}` at N={}",
            w.kb_src, w.query, w.n
        );

        let naive_us = median_us(&mut naive_samples);
        let compiled_us = median_us(&mut compiled_samples);
        let speedup = naive_us / compiled_us;
        if w.trap {
            min_trap_speedup = min_trap_speedup.min(speedup);
        }
        println!(
            "{:<28} {:>2} {:>12.1} {:>12.1} {:>8.1}x   {}/{}",
            w.query, w.n, naive_us, compiled_us, speedup, naive_counts.0, naive_counts.1
        );

        rows.push(format!(
            concat!(
                r#"{{"kb":"{}","query":"{}","n":{},"engine":"naive","median_us":{:.1},"#,
                r#""speedup_vs_naive":1.0}}"#
            ),
            w.label,
            escape(w.query),
            w.n,
            naive_us
        ));
        rows.push(format!(
            concat!(
                r#"{{"kb":"{}","query":"{}","n":{},"engine":"compiled","median_us":{:.1},"#,
                r#""speedup_vs_naive":{:.2}}}"#
            ),
            w.label,
            escape(w.query),
            w.n,
            compiled_us,
            speedup
        ));
    }

    let report = format!(
        "{{\"bench\":\"exact_count\",\"samples\":{},\"required_trap_speedup\":{},\
         \"min_trap_speedup\":{:.2},\"results\":[{}]}}\n",
        SAMPLES,
        required_trap_speedup,
        min_trap_speedup,
        rows.join(",")
    );
    // `CARGO_MANIFEST_DIR` = crates/bench; the report lives at the
    // workspace root where CI (and readers) expect it.
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_5.json");
    std::fs::write(path, &report).expect("write BENCH_5.json");
    println!("\nwrote {path}");

    assert!(
        min_trap_speedup >= required_trap_speedup,
        "compiled counting must beat naive enumeration by ≥{required_trap_speedup}× \
         on the trap workload, got {min_trap_speedup:.2}×"
    );
    println!("trap workload speedup ≥ {required_trap_speedup}x: ok ({min_trap_speedup:.1}x min)");
}
