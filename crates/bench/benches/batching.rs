//! Serving-path benchmarks (experiment index B9): one-thread
//! `answer_batch_report` batches against per-query `answer` loops, and the per-stage cost of a trace-carrying
//! pipeline walk versus the work the stages themselves do.
//!
//! Shapes to observe:
//! * batching amortizes pipeline construction, so the per-query gap
//!   widens as the batch grows on theorem-answerable queries (where the
//!   inference itself is nearly free);
//! * the pipeline/trace overhead is noise next to any stage that counts
//!   worlds or sweeps τ.

use rw_bench::{criterion_group, criterion_main, BenchmarkId, Criterion};
use rw_core::{PreparedKb, RandomWorlds};
use rw_logic::KnowledgeBase;
use std::hint::black_box;

fn medical_kb() -> KnowledgeBase {
    KnowledgeBase::parse(
        "||Hep(x) | Jaun(x)||_x ~=_1 0.8; Jaun(Eric); \
         ||Over60(x) | Patient(x)||_x ~=_2 0.4; Patient(Eric)",
    )
    .unwrap()
}

fn queries(n: usize) -> Vec<String> {
    (0..n)
        .map(|i| match i % 3 {
            0 => "Hep(Eric)".to_string(),
            1 => "Over60(Eric)".to_string(),
            _ => "Hep(Eric) & Over60(Eric)".to_string(),
        })
        .collect()
}

fn bench_batch_vs_loop(c: &mut Criterion) {
    let mut group = c.benchmark_group("batch_vs_loop");
    let engine = RandomWorlds::new();
    let kb = medical_kb();
    for n in [1usize, 8, 64] {
        let qs = queries(n);
        group.bench_with_input(BenchmarkId::new("answer_batch_report", n), &qs, |b, qs| {
            b.iter(|| {
                let prepared = PreparedKb::new(kb.clone());
                black_box(engine.answer_batch_report(&prepared, qs, 1))
            })
        });
        group.bench_with_input(BenchmarkId::new("answer_loop", n), &qs, |b, qs| {
            b.iter(|| {
                let results: Vec<_> = qs.iter().map(|q| engine.answer(&kb, q)).collect();
                black_box(results)
            })
        });
    }
    group.finish();
}

fn bench_pipeline_overhead(c: &mut Criterion) {
    let mut group = c.benchmark_group("pipeline_stage_mix");
    let engine = RandomWorlds::new();
    // Theorem-answered: one stage, trace of length 1.
    let kb = medical_kb();
    group.bench_function("theorem_hit", |b| {
        b.iter(|| black_box(engine.answer(&kb, "Hep(Eric)").unwrap()))
    });
    // Maxent-answered: the theorem stage declines first.
    let kb =
        KnowledgeBase::parse("||Black(x) | Bird(x)||_x ~=_1 0.2; ||Bird(x)||_x ~=_2 0.1").unwrap();
    group.bench_function("maxent_after_decline", |b| {
        b.iter(|| black_box(engine.answer(&kb, "Black(Clyde)").unwrap()))
    });
    group.finish();
}

criterion_group!(benches, bench_batch_vs_loop, bench_pipeline_overhead);
criterion_main!(benches);
