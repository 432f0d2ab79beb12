//! Scaling benchmarks for the three world-counting engines and the theorem
//! engine (experiment index B1–B4).
//!
//! Shapes to observe (EXPERIMENTS.md):
//! * brute-force enumeration is doubly exponential in `N` — each +1 of
//!   domain size multiplies the world space by `2^(#preds)` per element;
//! * the unary profile engine is polynomial (`O(N^(A-1))` compositions);
//! * the theorem engine is effectively constant time in `N` (it never
//!   counts) and linear-ish in KB size;
//! * the full engine's fallback chain is dominated by its cheapest
//!   applicable layer.

use rw_bench::{criterion_group, criterion_main, BenchmarkId, Criterion};
use rw_logic::{KnowledgeBase, Tolerances};
use rw_util::Rat;
use std::hint::black_box;

fn bench_enumeration(c: &mut Criterion) {
    let mut group = c.benchmark_group("enumeration_vs_N");
    let mut kb = KnowledgeBase::parse("||Hep(x) | Jaun(x)||_x ~=_1 0.8; Jaun(Eric)").unwrap();
    let q = kb.parse_query("Hep(Eric)").unwrap();
    let tol = Tolerances::uniform(Rat::new(1, 4));
    for n in [2usize, 3, 4] {
        group.bench_with_input(BenchmarkId::from_parameter(n), &n, |b, &n| {
            b.iter(|| black_box(rw_worlds::degree_of_belief_at(&kb, &q, n, &tol).unwrap()))
        });
    }
    group.finish();
}

fn bench_unary_counting(c: &mut Criterion) {
    let mut group = c.benchmark_group("unary_profiles_vs_N");
    let mut kb = KnowledgeBase::parse("||Hep(x) | Jaun(x)||_x ~=_1 0.8; Jaun(Eric)").unwrap();
    let q = kb.parse_query("Hep(Eric)").unwrap();
    let tol = Tolerances::uniform(Rat::new(1, 10));
    for n in [16usize, 32, 64, 128] {
        group.bench_with_input(BenchmarkId::from_parameter(n), &n, |b, &n| {
            b.iter(|| black_box(rw_unary::degree_of_belief_at(&kb, &q, n, &tol).unwrap()))
        });
    }
    group.finish();
}

fn bench_unary_vs_predicates(c: &mut Criterion) {
    let mut group = c.benchmark_group("unary_profiles_vs_preds");
    // Profiles grow as C(N + 2^A - 1, 2^A - 1): the third point at N = 24
    // would enumerate ~2.6M compositions per iteration (minutes per sample),
    // so the group fixes N = 12 and trims the sample count. The
    // exponential-in-predicates shape is unchanged.
    group.sample_size(10);
    for preds in [1usize, 2, 3] {
        let stats: Vec<String> = (0..preds)
            .map(|i| format!("||P{i}(x)||_x ~=_{} 0.5", i + 1))
            .collect();
        let mut kb = KnowledgeBase::parse(&stats.join("; ")).unwrap();
        let q = kb.parse_query("P0(C)").unwrap();
        let tol = Tolerances::uniform(Rat::new(1, 8));
        group.bench_with_input(BenchmarkId::from_parameter(preds), &preds, |b, _| {
            b.iter(|| black_box(rw_unary::degree_of_belief_at(&kb, &q, 12, &tol).unwrap()))
        });
    }
    group.finish();
}

fn bench_theorem_engine(c: &mut Criterion) {
    let mut group = c.benchmark_group("theorem_engine");
    let engine = rw_core::RandomWorlds::default();

    let kb = KnowledgeBase::parse("||Hep(x) | Jaun(x)||_x ~=_1 0.8; Jaun(Eric)").unwrap();
    group.bench_function("direct_inference", |b| {
        b.iter(|| black_box(engine.degree_of_belief(&kb, "Hep(Eric)").unwrap()))
    });

    let kb = KnowledgeBase::parse(
        "Bird(x) ->_1 Fly(x); Penguin(x) ->_2 !Fly(x); \
         forall x (Penguin(x) => Bird(x)); Penguin(Tweety); Yellow(Tweety)",
    )
    .unwrap();
    group.bench_function("minimal_class", |b| {
        b.iter(|| black_box(engine.degree_of_belief(&kb, "Fly(Tweety)").unwrap()))
    });

    let kb = KnowledgeBase::parse(
        "||Pacifist(x) | Quaker(x)||_x ~=_1 0.8; ||Pacifist(x) | Republican(x)||_x ~=_2 0.8; \
         Quaker(Nixon); Republican(Nixon); exists! x (Quaker(x) & Republican(x))",
    )
    .unwrap();
    group.bench_function("dempster", |b| {
        b.iter(|| black_box(engine.degree_of_belief(&kb, "Pacifist(Nixon)").unwrap()))
    });

    // A resident serving tenant (the serve-theorems shape): 3 statistics,
    // a taxonomy rule and 100 individuals over five fact profiles, 165
    // conjuncts. Every answer misses (no cache installed): through a
    // prepared KB the theorem stage reuses one analysis; ad hoc, each
    // answer classifies and indexes the KB again.
    let kb = KnowledgeBase::parse(&served_tenant(100)).unwrap();
    let prepared = rw_core::PreparedKb::new(kb.clone());
    group.bench_function(BenchmarkId::new("served_tenant_100", "prepared"), |b| {
        b.iter(|| black_box(engine.answer_prepared(&prepared, "Hep(I1)").unwrap()))
    });
    group.bench_function(BenchmarkId::new("served_tenant_100", "ad_hoc"), |b| {
        b.iter(|| black_box(engine.answer(&kb, "Hep(I1)").unwrap()))
    });
    group.finish();
}

/// The serve-theorems tenant KB with `individuals` individuals `I{i}`,
/// individual `i` carrying fact profile `i % 5`.
fn served_tenant(individuals: usize) -> String {
    let profiles: [&[&str]; 5] = [
        &["Jaun"],
        &["Jaun", "Child"],
        &["Infant", "Jaun"],
        &["Fever"],
        &["Jaun", "Fever"],
    ];
    let mut lines = vec![
        "||Hep(x) | Jaun(x)||_x ~=_1 0.8".to_string(),
        "||Hep(x) | Jaun(x) & Child(x)||_x ~=_2 0.3".to_string(),
        "||Flu(x) | Fever(x)||_x ~=_3 0.6".to_string(),
        "forall x (Infant(x) => Child(x))".to_string(),
    ];
    for i in 0..individuals {
        lines.extend(profiles[i % 5].iter().map(|p| format!("{p}(I{i})")));
    }
    lines.push("Visitor(V0)".to_string());
    lines.join("; ")
}

fn bench_default_systems(c: &mut Criterion) {
    use rw_epsilon::prop::{DefaultRule, VarTable};
    let mut group = c.benchmark_group("propositional_systems_vs_rules");
    for m in [4usize, 8, 12] {
        // A chain taxonomy: c0 → c1 → ... plus a flying default per level.
        let mut vt = VarTable::new();
        let mut rules = Vec::new();
        for i in 0..m / 2 {
            rules.push(DefaultRule::new(
                vt.parse(&format!("c{i}")).unwrap(),
                vt.parse(&format!("c{}", i + 1)).unwrap(),
            ));
            rules.push(DefaultRule::new(
                vt.parse(&format!("c{i}")).unwrap(),
                vt.parse(&format!("f{i}")).unwrap(),
            ));
        }
        let prem = vt.parse("c0").unwrap();
        let concl = vt.parse("f0").unwrap();
        group.bench_with_input(BenchmarkId::new("system_p", m), &m, |b, _| {
            b.iter(|| black_box(rw_epsilon::p_entails(&rules, &prem, &concl)))
        });
        group.bench_with_input(BenchmarkId::new("system_z", m), &m, |b, _| {
            b.iter(|| black_box(rw_epsilon::z_entails(&rules, &prem, &concl)))
        });
    }
    group.finish();
}

criterion_group!(
    benches,
    bench_enumeration,
    bench_unary_counting,
    bench_unary_vs_predicates,
    bench_theorem_engine,
    bench_default_systems,
);
criterion_main!(benches);
