//! Approximate vs exact on the PR-2 trap queries (experiment index B11):
//! the Monte-Carlo sampling stage against the maximum-entropy stage on
//! query shapes that miss every theorem pattern.
//!
//! These are the shapes the PR-2 changelog flagged as the serving-path
//! trap — each one used to fall into a 1–14 s maxent sweep, which the
//! projected-Newton dual now answers in well under a millisecond:
//!
//! * `!!φ(c)` — double negation defeats the syntactic matchers (the
//!   answer cache canonicalizes it away, but only on a repeat);
//! * conjunctions over individuals sharing one statistic — the shared
//!   predicate defeats the Thm 5.27 independence product.
//!
//! The table reports, per query, the maxent wall time and value against
//! the sampler's wall time, estimate and 95% CI, plus the sampler's
//! speedup over maxent (below 1 now that maxent is the cheaper stage on
//! these unary shapes). Each run cross-checks that the sampler's
//! interval brackets the maxent value (within 3 half-widths plus
//! extrapolation slack) — the comparison is for a *compatible* answer,
//! not a different one. Bare asserted
//! facts, the third trap shape, no longer need either stage: the
//! theorem fast path answers them in microseconds (asserted below).
//!
//! A second table times the sampler's per-draw kernel on the
//! `||Hep(x) | Jaun(x)||_x ≈ 0.8; Jaun(Eric); Jaun(Tom)` shape at the
//! served diagonal's domain sizes, in ns per draw: the proposal (one
//! world drawn into a [`PackedWorld`]) and the acceptance check (the
//! compiled KB on each drawn world, the query on the accepted ones)
//! separately. The acceptance check is timed twice: over the whole KB,
//! and over the KB minus the ground literals the proposal forces
//! ([`SamplePlan::acceptance`], what the sampler runs) — the same
//! decisions, fewer atoms read per draw. The table's last three columns
//! time the draw reservoir through the public sweep API on one
//! [`SWEEP_DRAWS`]-draw sweep point, per accepted draw: what recording
//! adds to a fresh sweep (`estimate_sweep_stored` into an empty
//! reservoir against `estimate_sweep`), that addition as a share of the
//! fresh sweep, and what a replay of the recorded point costs.

use rw_core::solvers::{MaxEntSolver, MonteCarloSolver, TheoremSolver};
use rw_core::{Belief, Budget, Provenance, Solver, SolverOutcome};
use rw_logic::{KnowledgeBase, Tolerances};
use rw_util::{Rat, StdRng};
use rw_worlds::mc::{estimate_sweep, estimate_sweep_stored, McConfig, Reservoir, SamplePlan};
use rw_worlds::{PackedWorld, Program};
use std::hint::black_box;
use std::time::{Duration, Instant};

/// Draws per timed repetition of the kernel table.
const KERNEL_DRAWS: usize = 200_000;

/// Draws per sweep point in the reservoir columns: the whole sample cap
/// of a served `unary-limits` sweep.
const SWEEP_DRAWS: u64 = 16_384;

/// The kernel table's knowledge base and query.
const KERNEL_KB: &str = "||Hep(x) | Jaun(x)||_x ~=_1 0.8; Jaun(Eric); Jaun(Tom)";
const KERNEL_QUERY: &str = "Hep(Eric) & Hep(Tom)";

/// Best-of-5 ns per draw for the proposal and for the acceptance check
/// (whole KB, then trimmed) at domain size `n` under tolerance `tau`.
fn kernel_ns(n: usize, tau: Rat) -> (f64, f64, f64) {
    let mut kb = KnowledgeBase::parse(KERNEL_KB).unwrap();
    let q = kb.parse_query(KERNEL_QUERY).unwrap();
    let tol = Tolerances::uniform(tau);
    let kb_program = Program::compile(kb.vocab(), n, &tol, &kb.as_formula()).unwrap();
    let trimmed = Program::compile(kb.vocab(), n, &tol, &SamplePlan::acceptance(&kb)).unwrap();
    let q_program = Program::compile(kb.vocab(), n, &tol, &q).unwrap();
    let proposal = SamplePlan::build(&kb).proposal(kb_program.layout());
    let mut world = PackedWorld::new(kb_program.layout());
    let mut forced = Vec::new();
    // The acceptance check runs over a fixed set of drawn worlds, so it
    // is timed without the proposal's cost.
    let mut rng = StdRng::seed_from_u64(2);
    let worlds: Vec<PackedWorld> = (0..1024)
        .map(|_| {
            while proposal.draw(&mut world, &mut forced, &mut rng).is_none() {}
            world.clone()
        })
        .collect();
    let (mut propose, mut accept, mut accept_trimmed) = (f64::MAX, f64::MAX, f64::MAX);
    let time_accept = |acceptance: &Program| {
        let t = Instant::now();
        let mut hits = 0usize;
        for i in 0..KERNEL_DRAWS {
            let world = &worlds[i % worlds.len()];
            if acceptance.holds(world) {
                hits += 1 + q_program.holds(world) as usize;
            }
        }
        black_box(hits);
        t.elapsed().as_nanos() as f64 / KERNEL_DRAWS as f64
    };
    for _ in 0..5 {
        let mut rng = StdRng::seed_from_u64(1);
        let t = Instant::now();
        let mut total = 0.0;
        for _ in 0..KERNEL_DRAWS {
            total += proposal
                .draw(&mut world, &mut forced, &mut rng)
                .unwrap_or(0.0);
        }
        black_box(total);
        propose = propose.min(t.elapsed().as_nanos() as f64 / KERNEL_DRAWS as f64);
        accept = accept.min(time_accept(&kb_program));
        accept_trimmed = accept_trimmed.min(time_accept(&trimmed));
    }
    (propose, accept, accept_trimmed)
}

/// Best-of-5 ns per accepted draw at domain size `n` under tolerance
/// `tau`, on one [`SWEEP_DRAWS`]-draw sweep point: what recording adds
/// to a fresh sweep, that addition in percent of the fresh sweep, and a
/// replay of the recorded point.
fn reservoir_ns(n: usize, tau: Rat) -> (f64, f64, f64) {
    let mut kb = KnowledgeBase::parse(KERNEL_KB).unwrap();
    let q = kb.parse_query(KERNEL_QUERY).unwrap();
    let points = [(tau, n)];
    let cfg = McConfig {
        max_samples: SWEEP_DRAWS,
        target_ci: 0.0, // no early stop: every draw is made
        ..McConfig::default()
    };
    let (mut plain, mut record, mut replay) = (f64::MAX, f64::MAX, f64::MAX);
    let mut accepted = 0;
    for _ in 0..5 {
        let t = Instant::now();
        let fresh = black_box(estimate_sweep(&kb, &q, &points, &cfg));
        plain = plain.min(t.elapsed().as_nanos() as f64);
        let reservoir = Reservoir::with_budget(usize::MAX);
        let store = reservoir.scope(());
        let t = Instant::now();
        let recorded = black_box(estimate_sweep_stored(&kb, &q, &points, &cfg, Some(&store)));
        record = record.min(t.elapsed().as_nanos() as f64);
        let t = Instant::now();
        let replayed = black_box(estimate_sweep_stored(&kb, &q, &points, &cfg, Some(&store)));
        replay = replay.min(t.elapsed().as_nanos() as f64);
        assert_eq!(reservoir.hits(), 1, "the second sweep replays the first");
        assert_eq!(recorded, fresh);
        assert_eq!(replayed, fresh);
        accepted = fresh.accepted;
    }
    let per_draw = accepted.max(1) as f64;
    (
        (record - plain) / per_draw,
        100.0 * (record - plain) / plain,
        replay / per_draw,
    )
}

fn kb() -> KnowledgeBase {
    KnowledgeBase::parse(
        "||Hep(x) | Jaun(x)||_x ~=_1 0.8; ||Over60(x) | Patient(x)||_x ~=_2 0.4; \
         Jaun(Eric); Patient(Eric); Jaun(Tom)",
    )
    .unwrap()
}

fn solve_timed(solver: &dyn Solver, kb: &KnowledgeBase, query: &str) -> (Duration, SolverOutcome) {
    let mut kb = kb.clone();
    let q = kb.parse_query(query).unwrap();
    let t = Instant::now();
    let outcome = solver.solve(&kb, &q, &Budget::UNLIMITED, &|_, _| None);
    (t.elapsed(), outcome)
}

fn point_of(outcome: &SolverOutcome) -> Option<f64> {
    match outcome {
        SolverOutcome::Answered { belief, .. } => belief.as_point(),
        _ => None,
    }
}

fn main() {
    let kb = kb();
    let maxent = MaxEntSolver::default();
    let sampler = MonteCarloSolver::default();
    println!(
        "maxent vs montecarlo on theorem-missing trap queries ({} conjuncts)\n",
        kb.conjuncts().len()
    );
    println!(
        "{:<28} {:>12} {:>9}   {:>12} {:>9} {:>8}   {:>8}",
        "query", "maxent ms", "value", "sampler ms", "estimate", "±ci", "speedup"
    );

    let mut all_compatible = true;
    for query in [
        "!!Hep(Eric)",
        "Hep(Eric) & Hep(Tom)",
        "Hep(Eric) & Over60(Eric)",
    ] {
        let (me_t, me_o) = solve_timed(&maxent, &kb, query);
        let (mc_t, mc_o) = solve_timed(&sampler, &kb, query);
        let me_v = point_of(&me_o).expect("maxent must answer the trap queries");
        let (mc_v, mc_hw) = match &mc_o {
            SolverOutcome::Answered {
                belief:
                    Belief::Approximate {
                        value,
                        ci_half_width,
                    },
                provenance: Provenance::MonteCarlo { .. },
            } => (*value, *ci_half_width),
            other => panic!("sampler must answer approximately, got {other:?}"),
        };
        // 3 half-widths plus slack for the finite-N extrapolation error.
        let compatible = (mc_v - me_v).abs() <= 3.0 * mc_hw + 0.05;
        all_compatible &= compatible;
        println!(
            "{query:<28} {:>12.1} {me_v:>9.4}   {:>12.1} {mc_v:>9.4} {mc_hw:>8.4}   {:>7.3}x{}",
            me_t.as_secs_f64() * 1e3,
            mc_t.as_secs_f64() * 1e3,
            me_t.as_secs_f64() / mc_t.as_secs_f64().max(1e-9),
            if compatible { "" } else { "   <-- DISAGREES" }
        );
    }

    // The third trap shape needs no sampling at all any more: the
    // theorem fast path answers asserted ground facts directly.
    let (th_t, th_o) = solve_timed(&TheoremSolver, &kb, "Jaun(Eric) & Patient(Eric)");
    assert_eq!(point_of(&th_o), Some(1.0), "{th_o:?}");
    println!(
        "\nasserted-fact fast path: Jaun(Eric) & Patient(Eric) answered exactly in {:.3} ms",
        th_t.as_secs_f64() * 1e3
    );
    println!("sampler estimates compatible with maxent: {all_compatible}");
    assert!(all_compatible, "a sampler estimate left its own interval");

    println!(
        "\nper-draw kernel on {KERNEL_KB}\n\n{:>4} {:>6} {:>16} {:>18} {:>18} {:>18} {:>10} {:>18}",
        "N",
        "tau",
        "proposal ns",
        "accept (KB) ns",
        "accept (trim) ns",
        "record ns/acc",
        "record %",
        "replay ns/acc"
    );
    for (n, tau) in [
        (8, Rat::new(1, 4)),
        (16, Rat::new(1, 8)),
        (32, Rat::new(1, 16)),
    ] {
        let (propose, accept, trimmed) = kernel_ns(n, tau);
        let (record, record_pct, replay) = reservoir_ns(n, tau);
        println!(
            "{n:>4} {:>6} {propose:>16.1} {accept:>18.1} {trimmed:>18.1} {record:>18.1} {record_pct:>9.1}% {replay:>18.1}",
            tau.to_string()
        );
    }
}
