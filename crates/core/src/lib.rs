//! The random-worlds inference engine — the paper's primary contribution.
//!
//! Given a knowledge base in `L≈` and a query, [`RandomWorlds`] computes the
//! degree of belief `Pr∞(query | KB)` of Definition 4.3 by running a
//! **pipeline of [`Solver`] stages**. Each stage is an inference method
//! paired with a resource [`Budget`]; a query walks the stages in order
//! until one answers, and the walk is recorded stage-by-stage in the
//! [`Trace`] carried by every [`Response`] — so a caller can always see
//! which methods declined (and why) before one answered.
//!
//! The default pipeline is the paper's cascade, cheapest and most exact
//! first:
//!
//! 1. [`solvers::TheoremSolver`] — syntactic pattern matchers with fully
//!    checked side conditions for the paper's general theorems: direct
//!    inference (Thm 5.6 / Cor 5.7), minimal reference classes with
//!    irrelevant information (Thm 5.16 / Cor 5.17), Kyburg-style strength
//!    (Thm 5.23), Dempster combination (Thm 5.26), vocabulary independence
//!    (Thm 5.27), the unique-names bias (§5.5) and the Or rule (Thm 5.3),
//!    which splits a KB with one disjunction into its disjuncts. Handles
//!    non-unary KBs and produces exact rationals.
//! 2. [`solvers::MaxEntSolver`] — the §6 maximum-entropy asymptotics for
//!    unary KBs, with τ-sweeps and robustness probing.
//! 3. [`solvers::EnumerationDiagonalSolver`] — exact world counting at
//!    small `N`, the completeness backstop: one rising-`N` scan over the
//!    [`Counter`] its config picks. By default that is the compiled
//!    branch-and-count engine (`rw_worlds::count`): formulas are lowered
//!    into slot programs and counted by pruned search with free-slot
//!    multiplication, sharing `#worlds(KB)` denominators through a
//!    [`cache::DenomCache`] — orders of magnitude faster than the blind
//!    odometer enumeration it replaced (which survives as the
//!    cross-check oracle, [`Counter::Oracle`]). [`Counter::Orbits`]
//!    counts orbits of the unnamed-element group where a query allows.
//!
//! An engine is built once from an [`EngineConfig`] — budgets, diagonal,
//! τ-sweep, counting mode, scan window, sampler and the shared
//! denominator cache — via [`RandomWorlds::from`] (or
//! [`RandomWorlds::new`] for the defaults). Its settings never change
//! afterwards: the stage cascade and the cache-key fingerprint are
//! computed at construction, not per query. The per-KB options the
//! serving surfaces expose ([`ApproxParams`], [`ScanParams`]) are
//! checked by their `validate` and mapped to a config by
//! [`EngineConfig::with_options`].
//!
//! Enabling approximate inference ([`EngineConfig::approx`]) inserts [`solvers::MonteCarloSolver`] between the
//! theorem and maxent stages: Monte-Carlo sampling of the Definition 4.2
//! fraction along the diagonal's `N`-sweep (`rw_worlds::mc`), answering
//! with [`Belief::Approximate`] — a point estimate plus a 95% confidence
//! half-width — in bounded time where the exact fallbacks can take
//! seconds. Sampling is deterministic for a fixed seed at any worker
//! thread count, and the sampler configuration is part of the cache
//! keyspace, so exact and approximate answers never mix in an
//! [`cache::AnswerCache`].
//!
//! The pipeline is open: [`RandomWorlds::with_solvers`] installs any stage
//! list (custom [`Solver`] implementations included). Serving loops hold
//! the KB as a [`PreparedKb`] and answer through
//! [`RandomWorlds::answer_prepared`]:
//! the KB's fingerprint and the theorem stage's indexed analysis are
//! computed once per KB, not once per query. Answering has two halves,
//! and every entry point is the one followed by the other:
//! [`RandomWorlds::probe`] parses, canonicalises and looks the query up
//! in the cache without running a stage, returning a [`Probe::Hit`] or a
//! [`Probe::Miss`] carrying a [`PendingQuery`]; [`RandomWorlds::finish`]
//! runs the pipeline on that and caches the answer. A server probes on
//! its event loop and sends only misses to its workers.
//!
//! The serving path scales out in two orthogonal ways:
//!
//! * **Caching** ([`cache::AnswerCache`], installed via
//!   [`RandomWorlds::with_cache`]): answers are remembered under a
//!   canonical query key (`rw_logic::canon`), so repeats *and* syntactic
//!   variants — commuted conjunctions, double negations, alpha-renamed
//!   binders — are answered once. Cache hits set [`Response::cached`].
//! * **Batches** ([`RandomWorlds::answer_batch_report`]): a std-only
//!   worker pool shards a batch over one [`PreparedKb`] across threads
//!   with deterministic, input-ordered results, sharing the cache between
//!   workers, and returns a [`batch::BatchReport`] aggregating per-stage
//!   totals, cache hits and wall/CPU time. A streamed batch folds its
//!   answers one at a time through a [`batch::Batch`] into the same
//!   report; both fold through one [`batch::AnswerTally`].
//!
//! Every answer carries a [`Provenance`] naming the method (and theorem)
//! that produced it, plus the full [`Trace`].

pub mod batch;
pub mod belief;
pub mod cache;
pub mod engine;
pub mod klm;
pub mod patterns;
pub mod prepared;
pub mod solver;
pub mod solvers;
pub mod theorems;

pub use batch::{AnswerTally, Batch, BatchReport, BatchRun, StageTotals};
pub use belief::{Belief, Provenance};
pub use cache::{
    purge_draws, AnswerCache, CachedAnswer, DenomCache, DenomKey, DrawCache, DrawKey,
    DRAW_CACHE_BYTES,
};
pub use engine::{
    ApproxParams, BeliefResult, EngineConfig, EngineError, PendingQuery, Probe, RandomWorlds,
    Response, ScanParams,
};
pub use prepared::PreparedKb;
pub use solver::{
    Budget, Diagonal, Recurse, Solver, SolverOutcome, Stage, StageStatus, StageTrace, Trace,
};
pub use solvers::{Counter, MonteCarloSolver};
pub use theorems::dempster_rule;
// Re-exported so engine configuration (`EngineConfig::approx`) does not
// force downstream crates to depend on `rw-worlds` directly.
pub use rw_worlds::mc::McConfig;
pub use rw_worlds::ScaledCount;
