//! Maximum-entropy solver benchmarks (experiment index B5): the Gibbs-form
//! dual solver on an exceptional-subclass KB (whose `τ²`-scale coordinates
//! defeat additive-gap primal methods), scaling in the atom count, and the
//! full τ-sweep.

use rw_bench::{criterion_group, criterion_main, BenchmarkId, Criterion};
use rw_logic::{KnowledgeBase, Tolerances};
use rw_maxent::{compile, maximize_entropy_dual, SweepConfig};
use rw_util::Rat;
use std::hint::black_box;

fn penguin_kb() -> KnowledgeBase {
    KnowledgeBase::parse(
        "Bird(x) ->_1 Fly(x); Penguin(x) ->_2 !Fly(x); \
         Bird(x) ->_3 Warm-blooded(x); \
         forall x (Penguin(x) => Bird(x)); Penguin(Tweety)",
    )
    .unwrap()
}

fn bench_solvers(c: &mut Criterion) {
    let mut group = c.benchmark_group("entropy_solver");
    let kb = penguin_kb();
    let tol = Tolerances::uniform(Rat::new(1, 64));
    let sys = compile(&kb, &tol).unwrap();
    let rows: Vec<(Vec<f64>, f64)> = sys.rows.iter().map(|r| (r.coeffs.clone(), r.rhs)).collect();
    group.bench_function("dual_gibbs", |b| {
        b.iter(|| black_box(maximize_entropy_dual(&rows, &sys.zero, sys.atoms).unwrap()))
    });
    group.finish();
}

fn bench_atom_scaling(c: &mut Criterion) {
    let mut group = c.benchmark_group("maxent_vs_atoms");
    for preds in [2usize, 4, 6] {
        let stats: Vec<String> = (0..preds)
            .map(|i| format!("||P{i}(x)||_x ~=_{} 0.{}", i + 1, 2 + i))
            .collect();
        let kb = KnowledgeBase::parse(&stats.join("; ")).unwrap();
        let tol = Tolerances::uniform(Rat::new(1, 32));
        group.bench_with_input(
            BenchmarkId::from_parameter(1usize << preds),
            &preds,
            |b, _| b.iter(|| black_box(rw_maxent::maxent_point(&kb, &tol).unwrap())),
        );
    }
    group.finish();
}

fn bench_full_sweep(c: &mut Criterion) {
    let mut group = c.benchmark_group("tau_sweep");
    group.sample_size(20);
    let mut kb = penguin_kb();
    let q = kb.parse_query("Warm-blooded(Tweety)").unwrap();
    let config = SweepConfig::default();
    group.bench_function("exceptional_inheritance", |b| {
        b.iter(|| black_box(rw_maxent::degree_of_belief_limit(&kb, &q, &config).unwrap()))
    });
    let no_probe = SweepConfig {
        probe_asymmetry: false,
        ..SweepConfig::default()
    };
    group.bench_function("exceptional_inheritance_no_probes", |b| {
        b.iter(|| black_box(rw_maxent::degree_of_belief_limit(&kb, &q, &no_probe).unwrap()))
    });
    group.finish();
}

criterion_group!(benches, bench_solvers, bench_atom_scaling, bench_full_sweep);
criterion_main!(benches);
