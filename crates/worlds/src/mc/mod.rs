//! Monte-Carlo approximate inference: a production sampling subsystem
//! for `Pr_N^τ(query | KB)` and its `N → ∞` extrapolation.
//!
//! The paper *defines* the degree of belief as the limiting fraction of
//! KB-worlds satisfying the query, so sampling `W_N` estimates the
//! definition itself — the fallback of choice when neither a theorem
//! pattern nor exact counting applies ("Random Worlds and Maximum
//! Entropy", Grove–Halpern–Koller). Plain rejection sampling draws
//! uniform worlds ([`crate::sample`]) and keeps those satisfying the KB;
//! this module builds a weighted, adaptive, parallel estimator on that
//! idea:
//!
//! * **KB-aware proposals** ([`plan::SamplePlan`]): asserted ground facts
//!   are forced, unary statistical constraints are sampled at their
//!   nominal rates, and importance weights keep the estimator exact.
//! * **A compiled, stream-identical kernel**: each draw is one
//!   [`crate::PackedWorld`] (predicate bits 64 to a `u64` word in
//!   [`crate::SlotLayout`] order, function entries and constants beside
//!   them), written by the plan bound to that layout ([`plan::Proposal`]:
//!   integer-threshold coins, fair bits read off the word's top bit, each
//!   word built in a register and stored once). The KB and query are
//!   lowered once per sweep point into [`crate::Program`]s checked with
//!   [`crate::Program::holds`] — integer counts summed from slot tables,
//!   by popcount where the bits run over consecutive slots, no per-draw
//!   gcds. Every draw consumes the same RNG words, makes the same accept
//!   decision and multiplies the same weight factors in the same order
//!   as the tree-walking sampler the kernel replaced, so tallies match
//!   bit for bit (`tests/mc_pinned.rs`).
//! * **Adaptive stopping** ([`estimate_point`]): draws proceed in fixed
//!   chunks and stop as soon as the 95% Wilson half-width undercuts the
//!   configured target, under a hard sample cap.
//! * **An `N`-sweep** ([`estimate_sweep`]): 2–4 domain sizes along a
//!   shrinking-τ schedule, with the same extrapolation shape the exact
//!   diagonal stages use applied to the estimates.
//! * **A draw reservoir** ([`reservoir`], [`estimate_sweep_stored`]):
//!   draws depend on the KB, never on the query, so a fresh chunk also
//!   records its KB-side sums and its accepted draws' packed worlds,
//!   words as the proposal wrote them. A later query against the same
//!   KB reads them back into a packed world and runs its own compiled
//!   program only, with every tally bit-identical to drawing afresh. A
//!   point keeps records only while they fit the reservoir's byte
//!   budget, so recording never holds more memory than that, whatever
//!   the cap.
//! * **Parallel workers** (the `workers` module): chunks run on the shared
//!   [`rw_util::par`] pool. Results are **bit-reproducible for a given
//!   seed at any thread count** — chunks own their RNG streams and are
//!   merged in index order.

pub mod plan;
pub mod reservoir;
pub mod stats;
mod workers;

pub use plan::{Proposal, SamplePlan};
pub use reservoir::{Reservoir, Scoped, StoredChunk};
pub use stats::{extrapolate, extrapolate_half_width, wilson_half_width, Tally, Z_95};

use crate::compile::Program;
use rw_logic::ast::Formula;
use rw_logic::{KnowledgeBase, Tolerances};
use rw_util::Rat;
use std::hash::Hash;
use std::sync::atomic::AtomicUsize;
use std::sync::OnceLock;
use workers::{run_chunks, ChunkCtx, Sampler};

/// Tuning for a Monte-Carlo run. `Default` is the production
/// configuration the engine stage uses.
#[derive(Clone, Debug, PartialEq)]
pub struct McConfig {
    /// Root seed; a run is a pure function of `(seed, KB, query, sweep)`.
    pub seed: u64,
    /// Worker threads (0 = one per core). Never affects the result —
    /// only how fast it arrives. Workers share one wave's chunks, so at
    /// most [`WAVE`] of them run at once.
    pub threads: usize,
    /// Hard cap on proposal draws across the whole sweep.
    pub max_samples: u64,
    /// Stop a sweep point once its 95% CI half-width is at or below this.
    pub target_ci: f64,
    /// Draws per chunk: the determinism (and scheduling) unit.
    pub chunk: u64,
}

/// Chunks between adaptive-stopping checks — and therefore the upper
/// bound on concurrent workers. Deliberately **not** derived from
/// [`McConfig::threads`]: the stopping boundary is part of the result,
/// and tying it to worker count would break the identical-answers-at-
/// any-thread-count contract.
pub const WAVE: u64 = 4;

impl McConfig {
    /// A stable rendering of every field that can affect a *result* —
    /// everything except `threads`, which only changes wall time — and
    /// of the fixed [`WAVE`], kept so existing cache keys stay valid. Cache
    /// keyspaces should fold in exactly this, so sessions differing only
    /// in worker count still share answers.
    pub fn result_fingerprint(&self) -> String {
        format!(
            "mc(seed={},samples={},ci={},chunk={},wave={})",
            self.seed, self.max_samples, self.target_ci, self.chunk, WAVE
        )
    }
}

impl Default for McConfig {
    fn default() -> McConfig {
        McConfig {
            seed: 0x5EED,
            threads: 1,
            max_samples: 1 << 18,
            target_ci: 0.02,
            chunk: 1024,
        }
    }
}

/// The estimate at one `(τ, N)` sweep point.
#[derive(Clone, Debug, PartialEq)]
pub struct PointEstimate {
    /// Domain size sampled.
    pub n: usize,
    /// Tolerance the KB was evaluated under.
    pub tau: Rat,
    /// `Pr_N^τ(query | KB)` estimate (`None` if no draw satisfied the KB).
    pub value: Option<f64>,
    /// 95% Wilson half-width at the effective sample size.
    pub ci_half_width: Option<f64>,
    /// The underlying sufficient statistics.
    pub tally: Tally,
}

/// A full sweep: per-point estimates plus the extrapolated belief.
#[derive(Clone, Debug, PartialEq)]
pub struct SweepEstimate {
    /// Per-point results, in sweep order.
    pub points: Vec<PointEstimate>,
    /// The extrapolated estimate of `Pr∞(query | KB)` over the points
    /// that produced values.
    pub value: Option<f64>,
    /// Conservative half-width of the extrapolated estimate.
    pub ci_half_width: Option<f64>,
    /// Total draws across the sweep.
    pub drawn: u64,
    /// Total KB-satisfying draws across the sweep.
    pub accepted: u64,
}

/// Estimates `Pr_N^τ(query | KB)` at a single `(τ, N)` point with at
/// most `cap` draws, stopping early once the CI target is met.
///
/// Deterministic: the result depends only on `(cfg.seed, kb, query, tau,
/// n, cap, cfg.chunk, cfg.target_ci)` — not on `cfg.threads`.
pub fn estimate_point(
    kb: &KnowledgeBase,
    query: &Formula,
    tau: Rat,
    n: usize,
    cap: u64,
    cfg: &McConfig,
) -> PointEstimate {
    estimate_point_planned::<()>(kb, &OnceLock::new(), query, (tau, n), cap, cfg, None)
}

/// [`estimate_point`] with the KB's [`SamplePlan`] shared across a sweep
/// (built on first need) and, with a `store`, chunks replayed from and
/// saved to it.
///
/// One chunk loop serves both: each chunk is replayed when the store
/// holds it at the length this point's cap gives it and drawn fresh
/// otherwise, and a replayed chunk's tally equals the fresh one's bit
/// for bit. So waves and the stopping check see the same tallies either
/// way. The acceptance check and the proposal are built on the first
/// fresh chunk: a point whose every chunk is stored compiles only the
/// query.
///
/// Fresh chunks are recorded while their records fit in the store's
/// budget beside the chunks loaded from it. Once one does not, the point
/// records nothing more and saves nothing: a point too large for the
/// store holds at most the budget while it runs, then lets it go.
fn estimate_point_planned<K: Eq + Hash + Clone>(
    kb: &KnowledgeBase,
    plan: &OnceLock<SamplePlan>,
    query: &Formula,
    (tau, n): (Rat, usize),
    cap: u64,
    cfg: &McConfig,
    store: Option<&Scoped<'_, K>>,
) -> PointEstimate {
    let tol = Tolerances::uniform(tau);
    let compile = |f: &Formula| {
        Program::compile(kb.vocab(), n, &tol, f).expect("world space overflows usize")
    };
    let query_program = compile(query);
    let build = || {
        let kb_program = compile(&SamplePlan::acceptance(kb));
        let proposal = plan
            .get_or_init(|| SamplePlan::build(kb))
            .proposal(kb_program.layout());
        Sampler {
            kb: kb_program,
            proposal,
        }
    };
    let sampler = OnceLock::new();
    let stored = store.map_or_else(Vec::new, |s| s.load(tau, n));
    let allowance = store.map_or(0, |s| {
        let held: usize = stored.iter().map(|c| c.bytes()).sum();
        s.budget().saturating_sub(held)
    });
    let chunk_size = cfg.chunk.max(1);
    let ctx = ChunkCtx {
        query: &query_program,
        sampler: &sampler,
        build: &build,
        stored: &stored,
        record_left: AtomicUsize::new(allowance),
        seed: cfg.seed,
        chunk_size,
        cap,
    };
    let total_chunks = cap.div_ceil(chunk_size);
    let mut tally = Tally::default();
    let mut fresh = Vec::new();
    let mut done = 0u64;
    while done < total_chunks {
        let end = (done + WAVE).min(total_chunks);
        for (chunk, (t, record)) in (done..end).zip(run_chunks(&ctx, done..end, cfg.threads)) {
            tally.absorb(&t);
            fresh.extend(record.map(|r| (chunk as usize, r)));
        }
        done = end;
        if let Some(hw) = tally.ci_half_width() {
            if hw <= cfg.target_ci {
                break;
            }
        }
    }
    // The sampler is built exactly when some chunk was drawn fresh.
    if let Some(store) = store.filter(|_| sampler.get().is_some()) {
        if ctx.recording_stopped() {
            store.refuse();
        } else {
            // Chunks run from 0 without gaps, so a fresh chunk either
            // replaces a stored one of another length or comes next.
            let mut chunks = stored;
            for (i, record) in fresh {
                match chunks.get_mut(i) {
                    Some(slot) => *slot = record,
                    None => chunks.push(record),
                }
            }
            store.save(tau, n, chunks);
        }
    }
    PointEstimate {
        n,
        tau,
        value: tally.estimate(),
        ci_half_width: tally.ci_half_width(),
        tally,
    }
}

/// Runs the full `N`-sweep: estimates each `(τ, N)` point under a share
/// of the `cfg.max_samples` budget (unused budget from early-stopping
/// points rolls forward), then extrapolates the per-point estimates with
/// the exact stages' diagonal shape.
///
/// ```
/// use rw_logic::KnowledgeBase;
/// use rw_util::Rat;
/// use rw_worlds::mc::{estimate_sweep, McConfig};
///
/// let mut kb = KnowledgeBase::parse("||P(x)||_x ~=_1 0.7; Q(C)").unwrap();
/// let q = kb.parse_query("P(C)").unwrap();
/// let points = [(Rat::new(1, 4), 4), (Rat::new(1, 8), 8)];
/// let sweep = estimate_sweep(&kb, &q, &points, &McConfig::default());
/// let v = sweep.value.unwrap();
/// assert!((v - 0.7).abs() < 0.1, "{sweep:?}");
/// assert!(sweep.ci_half_width.unwrap() > 0.0);
/// ```
pub fn estimate_sweep(
    kb: &KnowledgeBase,
    query: &Formula,
    points: &[(Rat, usize)],
    cfg: &McConfig,
) -> SweepEstimate {
    estimate_sweep_stored::<()>(kb, query, points, cfg, None)
}

/// [`estimate_sweep`] drawing through a reservoir: each point replays
/// the chunks `store` holds for it and saves the chunks it had to draw
/// fresh. The result equals [`estimate_sweep`]'s, every [`Tally`] bit
/// for bit, whatever the store holds — provided the store holds only
/// chunks drawn for this KB (the same statements in the same order,
/// over the same symbols) under this `cfg`'s seed and chunk size:
/// those pin a chunk's stream, and its length is checked per chunk
/// ([`reservoir`]).
pub fn estimate_sweep_stored<K: Eq + Hash + Clone>(
    kb: &KnowledgeBase,
    query: &Formula,
    points: &[(Rat, usize)],
    cfg: &McConfig,
    store: Option<&Scoped<'_, K>>,
) -> SweepEstimate {
    let plan = OnceLock::new();
    let mut out = Vec::with_capacity(points.len());
    let mut remaining = cfg.max_samples;
    for (i, &point) in points.iter().enumerate() {
        let left = (points.len() - i) as u64;
        let cap = (remaining / left.max(1)).min(remaining);
        let p = estimate_point_planned(kb, &plan, query, point, cap, cfg, store);
        remaining = remaining.saturating_sub(p.tally.drawn);
        out.push(p);
    }
    let values: Vec<f64> = out.iter().filter_map(|p| p.value).collect();
    let half_widths: Vec<f64> = out
        .iter()
        .filter(|p| p.value.is_some())
        .map(|p| p.ci_half_width.unwrap_or(0.5))
        .collect();
    SweepEstimate {
        value: extrapolate(&values),
        ci_half_width: extrapolate_half_width(&half_widths),
        drawn: out.iter().map(|p| p.tally.drawn).sum(),
        accepted: out.iter().map(|p| p.tally.accepted).sum(),
        points: out,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::enumerate::degree_of_belief_at;

    fn parsed(kb_src: &str, q_src: &str) -> (KnowledgeBase, Formula) {
        let mut kb = KnowledgeBase::parse(kb_src).unwrap();
        let q = kb.parse_query(q_src).unwrap();
        (kb, q)
    }

    #[test]
    fn point_estimate_matches_enumeration_within_ci() {
        let (kb, q) = parsed("||P(x)||_x ~=_1 0.5; Q(C)", "P(C)");
        let tau = Rat::new(1, 4);
        let tol = Tolerances::uniform(tau);
        let exact = degree_of_belief_at(&kb, &q, 4, &tol).unwrap().unwrap();
        let cfg = McConfig {
            target_ci: 0.01,
            ..McConfig::default()
        };
        let p = estimate_point(&kb, &q, tau, 4, 1 << 16, &cfg);
        let v = p.value.unwrap();
        let hw = p.ci_half_width.unwrap();
        assert!(
            (v - exact).abs() < 3.0 * hw.max(0.005),
            "exact {exact}, got {p:?}"
        );
    }

    #[test]
    fn adaptive_stopping_spends_less_than_the_cap() {
        let (kb, q) = parsed("P(C)", "P(C)");
        // Forced fact: every draw accepted, p̂ = 1 with tiny CI quickly.
        let cfg = McConfig {
            target_ci: 0.05,
            ..McConfig::default()
        };
        let p = estimate_point(&kb, &q, Rat::new(1, 4), 4, 1 << 18, &cfg);
        assert_eq!(p.value, Some(1.0));
        assert!(p.tally.drawn < 1 << 16, "stopped early: {p:?}");
        assert!(p.ci_half_width.unwrap() <= 0.05);
    }

    #[test]
    fn results_are_identical_across_thread_counts() {
        let (kb, q) = parsed(
            "||Hep(x) | Jaun(x)||_x ~=_1 0.8; Jaun(Eric); Jaun(Tom)",
            "Hep(Eric) & Hep(Tom)",
        );
        let points = [(Rat::new(1, 4), 4), (Rat::new(1, 8), 8)];
        let base = McConfig {
            max_samples: 1 << 14,
            ..McConfig::default()
        };
        let reference = estimate_sweep(&kb, &q, &points, &base);
        for threads in [2usize, 4, 0] {
            let cfg = McConfig {
                threads,
                ..base.clone()
            };
            let sweep = estimate_sweep(&kb, &q, &points, &cfg);
            assert_eq!(sweep, reference, "diverged at {threads} threads");
        }
        assert!(reference.value.is_some(), "{reference:?}");
    }

    #[test]
    fn different_seeds_differ_but_agree_within_ci() {
        let (kb, q) = parsed("||P(x)||_x ~=_1 0.6", "P(C)");
        let points = [(Rat::new(1, 4), 6)];
        let a = estimate_sweep(&kb, &q, &points, &McConfig::default());
        let b = estimate_sweep(
            &kb,
            &q,
            &points,
            &McConfig {
                seed: 999,
                ..McConfig::default()
            },
        );
        let (va, vb) = (a.value.unwrap(), b.value.unwrap());
        assert_ne!(a.points[0].tally, b.points[0].tally);
        let spread = a.ci_half_width.unwrap() + b.ci_half_width.unwrap();
        assert!((va - vb).abs() <= 3.0 * spread.max(0.005), "{va} vs {vb}");
    }

    #[test]
    fn impossible_kb_yields_no_value() {
        let (kb, q) = parsed("P(C) & !P(C)", "P(C)");
        let sweep = estimate_sweep(
            &kb,
            &q,
            &[(Rat::new(1, 4), 4)],
            &McConfig {
                max_samples: 2048,
                ..McConfig::default()
            },
        );
        assert_eq!(sweep.value, None);
        assert_eq!(sweep.accepted, 0);
        assert!(sweep.drawn > 0);
    }

    #[test]
    fn sweep_budget_is_respected() {
        // An improbable KB never meets the CI target, so the sweep runs
        // to its cap — and not beyond.
        let (kb, q) = parsed("||P(x)||_x ~=_1 0.95; ||Q(x)||_x ~=_2 0.05", "P(C) & Q(C)");
        let cap = 8192u64;
        let cfg = McConfig {
            max_samples: cap,
            target_ci: 1e-6,
            ..McConfig::default()
        };
        let sweep = estimate_sweep(&kb, &q, &[(Rat::new(1, 4), 8), (Rat::new(1, 8), 16)], &cfg);
        assert!(sweep.drawn <= cap, "{}", sweep.drawn);
        assert!(sweep.drawn >= cap / 2, "{}", sweep.drawn);
    }
}
