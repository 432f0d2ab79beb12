//! Engine orchestration: a configurable pipeline of [`Solver`](crate::Solver)
//! stages with per-stage budgets, batched queries, an optional answer
//! cache, and full per-query traces.

use crate::belief::{Belief, Provenance};
use crate::cache::{AnswerCache, CachedAnswer, DenomCache, DrawCache, DRAW_CACHE_BYTES};
use crate::prepared::PreparedKb;
use crate::solver::{Budget, Diagonal, SolverOutcome, Stage, StageStatus, Trace};
use crate::solvers::{
    Counter, EnumerationDiagonalSolver, MaxEntSolver, MonteCarloSolver, TheoremSolver,
};
use rw_logic::ast::Formula;
use rw_logic::canon;
use rw_logic::{KnowledgeBase, ParseError};
use rw_maxent::SweepConfig;
use std::fmt;
use std::sync::Arc;
use std::time::Instant;

/// The inference settings of a [`RandomWorlds`] engine: everything
/// besides the KB and the query that `Pr∞(φ | KB)` as computed here
/// depends on. `Default` is the paper's three-stage cascade with the
/// standard diagonal and counting budget.
///
/// An engine is built from its settings once ([`RandomWorlds::from`]);
/// they never change afterwards, so the stage cascade and the cache-key
/// fingerprint are computed at construction and never per query.
#[derive(Clone, Debug)]
pub struct EngineConfig {
    /// Maximum-entropy τ-sweep configuration (used by the default
    /// pipeline's maxent stage).
    pub sweep: SweepConfig,
    /// Budget for the exact counting stage, in the unit of
    /// [`Self::enum_counter`]: *visited search nodes* of branch-and-count
    /// (the default) — which prunes and multiplies out free slots, so its
    /// reach in domain size and vocabulary vastly exceeds the same number
    /// of blindly enumerated interpretations — orbit representatives, or
    /// the odometer oracle's interpretations.
    pub enum_max_worlds: u128,
    /// The exact counting stage's counter (default branch-and-count).
    /// [`Counter::Orbits`] counts weighted orbit representatives of the
    /// unnamed-element group where a query lands inside the orbit
    /// fragment, so the rising-`N` scan climbs toward
    /// [`crate::solvers::MAX_SYMMETRY_N`] instead of stopping near
    /// [`crate::solvers::MAX_COMPILED_N`]; outside the fragment it counts
    /// as branch-and-count does. [`Counter::Oracle`] is the naive
    /// odometer the others are cross-checked against. Folded into the
    /// cache keyspace: the counters can select different diagonal points
    /// and so different (equally exact) extrapolations.
    pub enum_counter: Counter,
    /// Worker threads for compiled counting (0 = one per core). Counting
    /// is chunk-deterministic, so — like the sampler's worker count —
    /// this never affects an answer and is *not* part of the cache
    /// keyspace.
    pub enum_threads: usize,
    /// Floor of the exact stage's rising-`N` scan (`None` = 2). Values
    /// below 2 are clamped up. Folded into the cache keyspace.
    pub enum_min_n: Option<usize>,
    /// Ceiling of the exact stage's rising-`N` scan (`None` = the mode
    /// default). Folded into the cache keyspace.
    pub enum_max_n: Option<usize>,
    /// The `(τ, N)` diagonal: the counting stage evaluates at its finest
    /// `τ`, and the Monte-Carlo stage, when enabled, sweeps its `N`s.
    pub diagonal: Diagonal,
    /// Approximate inference: `Some` inserts a [`MonteCarloSolver`] stage
    /// (sampling along the diagonal with the given configuration) right
    /// after the theorem stage, so un-matched queries get a bounded-cost
    /// estimated answer instead of falling into maxent/counting. The
    /// configuration is folded into the cache keyspace — an
    /// [`AnswerCache`] never mixes exact and approximate answers.
    ///
    /// ```
    /// use rw_core::{Belief, EngineConfig, McConfig, Provenance, RandomWorlds};
    /// use rw_logic::KnowledgeBase;
    ///
    /// let kb = KnowledgeBase::parse(
    ///     "||Hep(x) | Jaun(x)||_x ~=_1 0.8; Jaun(Eric); Jaun(Tom)",
    /// ).unwrap();
    /// let engine = RandomWorlds::from(EngineConfig {
    ///     approx: Some(McConfig::default()),
    ///     ..EngineConfig::default()
    /// });
    /// // A conjunction over individuals sharing statistics misses every
    /// // theorem pattern; the sampler stage, placed ahead of maxent,
    /// // answers it with a CI.
    /// let r = engine.answer(&kb, "Hep(Eric) & Hep(Tom)").unwrap();
    /// assert!(matches!(r.belief, Belief::Approximate { .. }));
    /// assert!(matches!(r.provenance, Provenance::MonteCarlo { .. }));
    /// ```
    pub approx: Option<rw_worlds::mc::McConfig>,
    /// The `#worlds_N^τ(KB)` denominator cache for the exact counting
    /// stage: one count per `(KB, vocabulary shape, N, τ)` sweep point
    /// instead of one per query. Pass a shared handle so several engines
    /// (per-KB serving sessions, batch workers) pool their counts —
    /// always safe, because entries are pure functions of their key,
    /// which carries the KB, vocabulary, budget, and counting mode. Like
    /// [`Self::enum_threads`], not part of the cache keyspace.
    pub denom_cache: Arc<DenomCache>,
    /// The Monte-Carlo draw reservoir: the accepted draws of queries
    /// against a [`PreparedKb`], replayed by its later queries so they
    /// evaluate only themselves. Pass a shared handle so engines over
    /// several resident KBs pool one byte budget. Replayed tallies are
    /// bit-identical to fresh ones, so like [`Self::denom_cache`] it is
    /// not part of the cache keyspace.
    pub draw_cache: Arc<DrawCache>,
}

impl Default for EngineConfig {
    fn default() -> EngineConfig {
        EngineConfig {
            sweep: SweepConfig::default(),
            enum_max_worlds: 1 << 24,
            enum_counter: Counter::default(),
            enum_threads: 1,
            enum_min_n: None,
            enum_max_n: None,
            diagonal: Diagonal::default(),
            approx: None,
            denom_cache: Arc::new(DenomCache::new()),
            draw_cache: Arc::new(DrawCache::with_budget(DRAW_CACHE_BYTES)),
        }
    }
}

impl EngineConfig {
    /// A fingerprint of everything *besides* the KB and query that can
    /// influence an answer under `stages`: the stage list (solver names +
    /// budgets) and the answer-affecting settings. Folded into every
    /// cache key so two differently configured engines sharing one
    /// [`AnswerCache`] can never serve each other's beliefs. The source
    /// string is part of the snapshot format — cache keys written by
    /// earlier releases stay valid only while it is unchanged.
    ///
    /// Custom solvers are identified by name and budget only; two custom
    /// solvers that share a name but answer differently must not share a
    /// cache.
    fn fingerprint(&self, stages: &[Stage]) -> u64 {
        let mut src = String::new();
        for s in stages {
            src.push_str(s.solver.name());
            src.push_str(&format!("#{};", s.budget.max_count));
        }
        src.push_str(&format!(
            "|{:?}|{}|{}|{:?}|{:?}|{:?}|{:?}|{:?}",
            self.sweep,
            self.enum_max_worlds,
            // The counter selects diagonal points and so answers; it is
            // printed as the two flags (compiled, symmetry) it replaced,
            // so every cache-key prefix keeps its bytes. `enum_threads`
            // is excluded like the sampler's worker count (counting is
            // chunk-deterministic at any thread count).
            self.enum_counter != Counter::Oracle,
            // Orbits and the scan window select how deep the rising-N
            // diagonal goes, and so the extrapolation points.
            self.enum_counter == Counter::Orbits,
            self.enum_min_n,
            self.enum_max_n,
            self.diagonal,
            // Only the sampler fields that can affect an answer — worker
            // count is excluded, so sessions differing only in threads
            // share cache entries (sampling is thread-count
            // deterministic).
            self.approx.as_ref().map(|c| c.result_fingerprint())
        ));
        canon::fnv1a(src.as_bytes())
    }

    /// The config a KB's options describe: the default cascade
    /// with the scan window and counting mode of `scan`, and, with
    /// `approx`, a sampler stage whose unset fields take the
    /// [`McConfig`](rw_worlds::mc::McConfig) defaults. `threads` sizes
    /// both the sampler's and the exact counter's worker pools, which
    /// never change an answer. Every surface that takes these options
    /// (the `rwq` session, a served KB, a lab trial) builds its engine
    /// here, after [`ApproxParams::validate`] and [`ScanParams::validate`].
    pub fn with_options(
        approx: Option<&ApproxParams>,
        scan: ScanParams,
        threads: usize,
    ) -> EngineConfig {
        let defaults = rw_worlds::mc::McConfig::default();
        EngineConfig {
            approx: approx.map(|a| rw_worlds::mc::McConfig {
                seed: a.seed.unwrap_or(defaults.seed),
                threads,
                max_samples: a.samples.unwrap_or(defaults.max_samples),
                target_ci: a.ci.unwrap_or(defaults.target_ci),
                ..defaults
            }),
            enum_threads: threads,
            enum_counter: if scan.symmetry {
                Counter::Orbits
            } else {
                Counter::BranchAndCount
            },
            enum_min_n: scan.min_n,
            enum_max_n: scan.max_n,
            ..EngineConfig::default()
        }
    }
}

/// The per-KB Monte-Carlo options: a KB given them answers non-theorem
/// queries by sampling. Set by `rwq --approx` with `--samples`,
/// `--mc-seed` and `--ci`, by the `"approx"` object of a server `load`
/// request, and by the lab's `montecarlo` engine. `None` fields take the
/// sampler's defaults ([`EngineConfig::with_options`]).
#[derive(Clone, Debug, Default, PartialEq)]
pub struct ApproxParams {
    /// Total draw cap (`--samples`); positive.
    pub samples: Option<u64>,
    /// Sampler seed (`--mc-seed`).
    pub seed: Option<u64>,
    /// Target CI half-width in (0, 0.5) (`--ci`).
    pub ci: Option<f64>,
}

impl ApproxParams {
    /// The one range check of these options, whichever surface parsed
    /// them: `samples` positive, `ci` in (0, 0.5). The message names the
    /// field and its bound; each surface adds only its own prefix.
    pub fn validate(&self) -> Result<(), String> {
        if self.samples == Some(0) {
            return Err("`samples` must be positive".to_string());
        }
        match self.ci {
            Some(ci) if !(ci > 0.0 && ci < 0.5) => {
                Err(format!("`ci` must be a half-width in (0, 0.5), got {ci}"))
            }
            _ => Ok(()),
        }
    }
}

/// The per-KB exact-counting options: symmetry-reduced orbit counting
/// and the rising-`N` scan window. Set by `rwq --symmetry`, `--min-n`
/// and `--max-n`, by the same-named fields of a server `load` request,
/// and by a lab task's `min_n`/`max_n` pins.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ScanParams {
    /// Enable symmetry-reduced orbit counting (`--symmetry`).
    pub symmetry: bool,
    /// Scan floor (`--min-n`).
    pub min_n: Option<usize>,
    /// Scan ceiling (`--max-n`).
    pub max_n: Option<usize>,
}

impl ScanParams {
    /// The one range check of these options, whichever surface parsed
    /// them: window values in `2..=MAX_SCAN_N` and `min_n ≤ max_n`. The
    /// message names the field and its bound; each surface adds only
    /// its own prefix.
    pub fn validate(&self) -> Result<(), String> {
        let max = crate::solvers::MAX_SCAN_N;
        for (key, n) in [("min_n", self.min_n), ("max_n", self.max_n)] {
            if let Some(n) = n.filter(|n| !(2..=max).contains(n)) {
                return Err(format!("`{key}` must lie in 2..={max}, got {n}"));
            }
        }
        match (self.min_n, self.max_n) {
            (Some(lo), Some(hi)) if lo > hi => Err(format!("`min_n` {lo} exceeds `max_n` {hi}")),
            _ => Ok(()),
        }
    }
}

/// Configuration and entry point for random-worlds inference.
///
/// The engine is a pipeline: an ordered list of [`Stage`]s, each a
/// [`Solver`](crate::Solver) plus the [`Budget`] it may spend. A query walks the stages
/// in order until one answers; the walk is recorded in the returned
/// [`Response::trace`]. By default the pipeline is the paper's cascade —
/// theorems, maximum entropy, enumeration — built once from an
/// [`EngineConfig`] when the engine is constructed
/// ([`RandomWorlds::from`]); [`Self::with_solvers`] replaces it
/// wholesale. The settings never change after construction, so the
/// pipeline and the cache-key fingerprint are fixed with them.
#[derive(Clone, Debug)]
pub struct RandomWorlds {
    config: EngineConfig,
    /// The pipeline every query runs.
    stages: Arc<Vec<Stage>>,
    /// [`EngineConfig::fingerprint`] of `config` under `stages`.
    config_fingerprint: u64,
    /// An answer cache installed by [`Self::with_cache`], consulted before
    /// the pipeline runs (and shared with batch workers).
    cache: Option<Arc<AnswerCache>>,
}

impl From<EngineConfig> for RandomWorlds {
    /// An engine running the default cascade under `config`.
    fn from(config: EngineConfig) -> RandomWorlds {
        let stages = default_stages(&config);
        RandomWorlds {
            config_fingerprint: config.fingerprint(&stages),
            stages: Arc::new(stages),
            config,
            cache: None,
        }
    }
}

impl RandomWorlds {
    /// The default engine: the paper's three-stage cascade with the
    /// standard diagonal and counting budget.
    pub fn new() -> RandomWorlds {
        RandomWorlds::from(EngineConfig::default())
    }

    /// Replaces the pipeline with an explicit stage list (must be
    /// non-empty, so every answer still carries a non-empty trace).
    pub fn with_solvers(mut self, stages: Vec<Stage>) -> RandomWorlds {
        assert!(
            !stages.is_empty(),
            "a RandomWorlds pipeline needs at least one stage"
        );
        self.config_fingerprint = self.config.fingerprint(&stages);
        self.stages = Arc::new(stages);
        self
    }

    /// Installs a shared [`AnswerCache`], consulted before the pipeline on
    /// every top-level query (single [`Self::answer`] calls and batches
    /// alike). The cache key is the canonical query form against the KB's
    /// fingerprint ([`rw_logic::canon`]), so syntactic variants — commuted
    /// conjunctions, double negations, alpha-renamed binders — share one
    /// entry. The engine's own configuration (stage list, budgets,
    /// diagonal, sweep) is folded into the key too, so differently
    /// configured engines sharing one cache keep disjoint keyspaces
    /// instead of serving each other's beliefs. A hit returns a
    /// [`Response`] with [`Response::cached`] set and a one-step `cache`
    /// trace.
    ///
    /// ```
    /// use rw_core::{cache::AnswerCache, RandomWorlds};
    /// use rw_logic::KnowledgeBase;
    /// use std::sync::Arc;
    ///
    /// let kb = KnowledgeBase::parse("||Hep(x) | Jaun(x)||_x ~=_1 0.8; Jaun(Eric)").unwrap();
    /// let cache = Arc::new(AnswerCache::new());
    /// let engine = RandomWorlds::new().with_cache(Arc::clone(&cache));
    ///
    /// let cold = engine.answer(&kb, "Hep(Eric)").unwrap();
    /// assert!(!cold.cached);
    /// // A syntactic variant of the same query hits the cache.
    /// let warm = engine.answer(&kb, "!!Hep(Eric)").unwrap();
    /// assert!(warm.cached);
    /// assert_eq!(warm.belief, cold.belief);
    /// assert_eq!(cache.hits(), 1);
    /// ```
    pub fn with_cache(mut self, cache: Arc<AnswerCache>) -> RandomWorlds {
        self.cache = Some(cache);
        self
    }

    /// The settings the engine was built from.
    pub fn config(&self) -> &EngineConfig {
        &self.config
    }

    /// The installed answer cache, if any.
    pub fn cache(&self) -> Option<&Arc<AnswerCache>> {
        self.cache.as_ref()
    }

    /// The engine's `#worlds` denominator cache (always present), for
    /// callers that report its statistics.
    pub fn denom_cache(&self) -> &Arc<DenomCache> {
        &self.config.denom_cache
    }

    /// The engine's Monte-Carlo draw reservoir (always present; used only
    /// when [`EngineConfig::approx`] is set).
    pub fn draw_cache(&self) -> &Arc<DrawCache> {
        &self.config.draw_cache
    }

    /// The names of the pipeline's stages, in execution order.
    pub fn solvers(&self) -> Vec<String> {
        self.stages
            .iter()
            .map(|s| s.solver.name().to_string())
            .collect()
    }

    /// The default cascade under this engine's configuration. Useful as
    /// a base when composing a custom pipeline. With
    /// [`EngineConfig::approx`] set, the Monte-Carlo stage runs right
    /// after the theorem stage (its budget is the sampler's own draw cap).
    pub fn default_stages(&self) -> Vec<Stage> {
        default_stages(&self.config)
    }

    /// The full cache-key prefix: KB fingerprint combined with the
    /// engine-config fingerprint.
    pub(crate) fn key_prefix(&self, kb_fingerprint: u64) -> u64 {
        let mut bytes = [0u8; 16];
        bytes[..8].copy_from_slice(&kb_fingerprint.to_le_bytes());
        bytes[8..].copy_from_slice(&self.config_fingerprint.to_le_bytes());
        canon::fnv1a(&bytes)
    }

    /// Computes `Pr∞(query | KB)` for a textual query.
    ///
    /// ```
    /// use rw_core::{Provenance, RandomWorlds};
    /// use rw_logic::KnowledgeBase;
    ///
    /// let kb = KnowledgeBase::parse(
    ///     "||Hep(x) | Jaun(x)||_x ~=_1 0.8; Jaun(Eric)",
    /// ).unwrap();
    /// let r = RandomWorlds::new().answer(&kb, "Hep(Eric)").unwrap();
    /// assert_eq!(r.belief.as_point(), Some(0.8));
    /// assert_eq!(r.provenance, Provenance::DirectInference);
    /// assert_eq!(r.trace.to_string(), "theorems answered");
    /// ```
    ///
    /// The KB is prepared for this one query, so the Monte-Carlo stage
    /// keeps none of its draws; [`Self::answer_prepared`] against a
    /// [`PreparedKb`] that outlives the query does.
    pub fn answer(&self, kb: &KnowledgeBase, query: &str) -> Result<Response, EngineError> {
        let prepared = PreparedKb::single_use(kb.clone());
        self.resolve(self.probe(&prepared, query)?)
    }

    /// [`Self::answer`] against a [`PreparedKb`] — the serving-loop entry
    /// point (server, REPL, streamed batches, lab trials), which answers
    /// many queries against one unchanging KB. The KB's fingerprint
    /// (computed only when a cache is installed) and its theorem-stage
    /// analysis are each computed once per prepared KB, not once per
    /// query. Equivalent to [`Self::probe`] followed, on a miss, by
    /// [`Self::finish`].
    pub fn answer_prepared(
        &self,
        prepared: &PreparedKb,
        query: &str,
    ) -> Result<Response, EngineError> {
        self.resolve(self.probe(prepared, query)?)
    }

    /// Computes `Pr∞(query | KB)` for an already-parsed query.
    pub fn answer_formula(
        &self,
        kb: &KnowledgeBase,
        query: &Formula,
    ) -> Result<Response, EngineError> {
        self.resolve(self.probe_parsed(PreparedKb::single_use(kb.clone()), query.clone()))
    }

    /// The cheap first half of answering: parses `query`, and — when a
    /// cache is installed — canonicalises it and looks it up, running no
    /// pipeline stage. A hit comes back as a finished [`Response`]
    /// ([`Response::cached`] set, a one-step `cache` trace); anything
    /// else, and every query on an engine without a cache, as a
    /// [`PendingQuery`] for [`Self::finish`]. Parse errors fail here.
    ///
    /// A serving loop probes on its own thread and hands only misses to
    /// workers, so a miss is parsed and canonicalised once. Queries may
    /// mention fresh symbols, so each is parsed into its own clone of the
    /// KB's vocabulary — O(1), since vocabularies copy their tables only
    /// on write, and a query over known symbols writes none.
    ///
    /// ```
    /// use rw_core::{cache::AnswerCache, PreparedKb, Probe, RandomWorlds};
    /// use rw_logic::KnowledgeBase;
    /// use std::sync::Arc;
    ///
    /// let kb = PreparedKb::new(
    ///     KnowledgeBase::parse("||Hep(x) | Jaun(x)||_x ~=_1 0.8; Jaun(Eric)").unwrap(),
    /// );
    /// let engine = RandomWorlds::new().with_cache(Arc::new(AnswerCache::new()));
    /// let Probe::Miss(pending) = engine.probe(&kb, "Hep(Eric)").unwrap() else {
    ///     panic!("a cold cache cannot hit");
    /// };
    /// let cold = engine.finish(pending).unwrap();
    /// // The finished answer is now cached under the canonical form, so
    /// // a syntactic variant is answered by the probe alone.
    /// let Probe::Hit(warm) = engine.probe(&kb, "!!Hep(Eric)").unwrap() else {
    ///     panic!("the variant must hit");
    /// };
    /// assert!(warm.cached);
    /// assert_eq!(warm.belief, cold.belief);
    /// ```
    pub fn probe(&self, prepared: &PreparedKb, query: &str) -> Result<Probe, EngineError> {
        if self.cache.is_some() {
            // Fill the base KB's fingerprint once, so every query's
            // extended view inherits it instead of recomputing it.
            prepared.fingerprint();
        }
        let mut vocab = prepared.vocab().clone();
        let q = rw_logic::parse_formula(&mut vocab, query)?;
        Ok(self.probe_parsed(prepared.extended(vocab), q))
    }

    /// [`Self::probe`] for a query already parsed over `kb`'s vocabulary.
    fn probe_parsed(&self, kb: PreparedKb, query: Formula) -> Probe {
        let Some(cache) = self.cache.as_deref() else {
            return Probe::Miss(PendingQuery {
                kb,
                query,
                key: None,
            });
        };
        let start = Instant::now();
        let canonical = canon::canonical_formula(kb.vocab(), &query);
        let key = AnswerCache::key(self.key_prefix(kb.fingerprint()), &canonical);
        let hit = cache.get(&key);
        observe_cache_lookup(start, hit.is_some());
        match hit {
            Some(hit) => Probe::Hit(Self::cached_response(hit, start)),
            None => Probe::Miss(PendingQuery {
                kb,
                query,
                key: Some(key),
            }),
        }
    }

    /// The second half of answering: runs the pipeline on a query
    /// [`Self::probe`] could not answer and, when it was probed against a
    /// cache, remembers the semantic answer under the probed key.
    ///
    /// The key is looked up once more first, uncounted: a duplicate
    /// queued behind a miss that has been answered since is answered from
    /// the cache instead of running the pipeline a second time.
    pub fn finish(&self, pending: PendingQuery) -> Result<Response, EngineError> {
        let cached = self.cache.as_deref().zip(pending.key.as_deref());
        if let Some((cache, key)) = cached {
            let start = Instant::now();
            if let Some(hit) = cache.peek(key) {
                return Ok(Self::cached_response(hit, start));
            }
        }
        let response = self.run_pipeline(&pending.kb, &pending.query)?;
        if let (Some(cache), Some(key)) = (&self.cache, pending.key) {
            cache.insert(key, CachedAnswer::of(&response));
        }
        Ok(response)
    }

    /// A probe carried through to its answer.
    fn resolve(&self, probe: Probe) -> Result<Response, EngineError> {
        match probe {
            Probe::Hit(response) => Ok(response),
            Probe::Miss(pending) => self.finish(pending),
        }
    }

    /// A [`Response`] materialized from a cache hit: a one-step `cache`
    /// trace covering the lookup time.
    fn cached_response(hit: CachedAnswer, lookup_start: Instant) -> Response {
        let mut trace = Trace::default();
        trace.push("cache", StageStatus::Answered, lookup_start.elapsed());
        Response {
            belief: hit.belief,
            provenance: hit.provenance,
            trace,
            cached: true,
        }
    }

    fn run_pipeline(&self, kb: &PreparedKb, query: &Formula) -> Result<Response, EngineError> {
        // Recursion (independence products, Or-rule disjuncts) re-enters
        // the same stage list, with each sub-KB prepared ad hoc.
        let recurse = |skb: &KnowledgeBase, sq: &Formula| {
            self.run_pipeline(&PreparedKb::single_use(skb.clone()), sq)
                .ok()
                .map(|r| (r.belief, r.provenance))
        };
        let mut trace = Trace::default();
        for stage in self.stages.iter() {
            let start = Instant::now();
            let outcome = stage
                .solver
                .solve_prepared(kb, query, &stage.budget, &recurse);
            let elapsed = start.elapsed();
            let name = stage.solver.name();
            match outcome {
                SolverOutcome::Answered { belief, provenance } => {
                    trace.push(name, StageStatus::Answered, elapsed);
                    observe_stage(name, "answered", elapsed);
                    observe_provenance(&provenance);
                    return Ok(Response {
                        belief,
                        provenance,
                        trace,
                        cached: false,
                    });
                }
                SolverOutcome::Declined { reason } => {
                    trace.push(name, StageStatus::Declined(reason), elapsed);
                    observe_stage(name, "declined", elapsed);
                }
                SolverOutcome::BudgetExhausted { reason } => {
                    trace.push(name, StageStatus::BudgetExhausted(reason), elapsed);
                    observe_stage(name, "budget_exhausted", elapsed);
                }
            }
        }
        Err(EngineError::OutOfReach {
            reason: "every pipeline stage declined or exhausted its budget".to_string(),
            trace,
        })
    }

    /// Computes `Pr∞(query | KB)` for a textual query.
    ///
    /// Compatibility wrapper for [`Self::answer`] (the historical name).
    pub fn degree_of_belief(
        &self,
        kb: &KnowledgeBase,
        query: &str,
    ) -> Result<Response, EngineError> {
        self.answer(kb, query)
    }

    /// Computes `Pr∞(query | KB)` for an already-parsed query.
    ///
    /// Compatibility wrapper for [`Self::answer_formula`].
    pub fn degree_of_belief_formula(
        &self,
        kb: &KnowledgeBase,
        query: &Formula,
    ) -> Result<Response, EngineError> {
        self.answer_formula(kb, query)
    }

    /// The default-inference relation `KB |~rw φ`: degree of belief 1
    /// (paper §5.1).
    pub fn follows_by_default(&self, kb: &KnowledgeBase, query: &str) -> Result<bool, EngineError> {
        Ok(self.answer(kb, query)?.belief.is_one())
    }
}

impl Default for RandomWorlds {
    fn default() -> RandomWorlds {
        RandomWorlds::new()
    }
}

/// The paper's cascade under `config`: theorems, the sampler when
/// [`EngineConfig::approx`] is set, maximum entropy, enumeration.
fn default_stages(config: &EngineConfig) -> Vec<Stage> {
    let mut stages = vec![Stage::new(Box::new(TheoremSolver))];
    if let Some(cfg) = &config.approx {
        stages.push(Stage::budgeted(
            Box::new(
                MonteCarloSolver::new(cfg.clone(), config.diagonal.clone())
                    .with_draw_cache(Arc::clone(&config.draw_cache)),
            ),
            Budget::counting(cfg.max_samples as u128),
        ));
    }
    stages.push(Stage::new(Box::new(MaxEntSolver::new(
        config.sweep.clone(),
    ))));
    stages.push(Stage::budgeted(
        Box::new(EnumerationDiagonalSolver {
            diagonal: config.diagonal.clone(),
            counter: config.enum_counter,
            min_n: config.enum_min_n,
            max_n: config.enum_max_n,
            threads: config.enum_threads,
            denom_cache: Some(Arc::clone(&config.denom_cache)),
        }),
        Budget::counting(config.enum_max_worlds),
    ));
    stages
}

/// Records one pipeline stage run into the global metrics registry: a
/// per-stage latency histogram (`stage.<name>.wall_us`) plus an outcome
/// counter (`stage.<name>.<outcome>`). Recursive sub-query stage runs
/// (independence products, Or-rule disjuncts) are recorded like top-level
/// ones — the histograms measure solver work, not request counts.
///
/// Purely additive: metrics never feed back into an answer, so beliefs,
/// traces and rendered bytes are identical with recording on or off.
fn observe_stage(name: &str, outcome: &str, elapsed: std::time::Duration) {
    if !rw_obs::enabled() {
        return;
    }
    let reg = rw_obs::registry();
    reg.histogram(&format!("stage.{name}.wall_us"))
        .record_us(elapsed.as_micros() as u64);
    reg.counter(&format!("stage.{name}.{outcome}")).inc();
}

/// Records one [`AnswerCache`] consultation: canonicalize-and-probe
/// latency (`cache.answer.lookup_us`) plus hit/miss counters, matching
/// the cache's own lifetime counters but scoped to the global registry.
fn observe_cache_lookup(start: Instant, hit: bool) {
    if !rw_obs::enabled() {
        return;
    }
    let reg = rw_obs::registry();
    reg.histogram("cache.answer.lookup_us")
        .record_us(start.elapsed().as_micros() as u64);
    reg.counter(if hit {
        "cache.answer.hits"
    } else {
        "cache.answer.misses"
    })
    .inc();
}

/// Harvests the effort counters an answering stage reported through its
/// [`Provenance`]: branch-and-count / symmetry search node counts (total
/// and per reached `N`) and Monte-Carlo draw/accept/effective-N tallies,
/// including those of the sub-answers a theorem combined.
fn observe_provenance(provenance: &Provenance) {
    if !rw_obs::enabled() {
        return;
    }
    let reg = rw_obs::registry();
    match provenance {
        Provenance::Enumeration {
            max_n,
            visited,
            branched,
            orbits,
        } => {
            reg.counter("enum.answers").inc();
            reg.counter("enum.visited").add(*visited);
            reg.counter("enum.branched").add(*branched);
            reg.counter("enum.orbits").add(*orbits);
            reg.counter(&format!("enum.n{max_n}.visited")).add(*visited);
            reg.counter(&format!("enum.n{max_n}.branched"))
                .add(*branched);
            if *orbits > 0 {
                reg.counter(&format!("enum.n{max_n}.orbits")).add(*orbits);
            }
        }
        Provenance::MonteCarlo {
            drawn,
            accepted,
            n_points,
        } => {
            reg.counter("mc.answers").inc();
            reg.counter("mc.drawn").add(*drawn);
            reg.counter("mc.accepted").add(*accepted);
            reg.counter("mc.points").add(*n_points as u64);
        }
        Provenance::Independence(parts) | Provenance::OrRule(parts) => {
            for p in parts {
                observe_provenance(p);
            }
        }
        _ => {}
    }
}

/// A degree of belief, the method that produced it, and the per-stage
/// trace of the pipeline walk that got there.
#[derive(Clone, Debug, PartialEq)]
pub struct Response {
    /// The degree of belief `Pr∞(query | KB)`.
    pub belief: Belief,
    /// Which method produced it.
    pub provenance: Provenance,
    /// What every stage up to (and including) the answering one did. On a
    /// cache hit this is the single synthetic step `cache answered`.
    pub trace: Trace,
    /// True when the answer came from an installed [`AnswerCache`] rather
    /// than a pipeline run this call.
    pub cached: bool,
}

/// What [`RandomWorlds::probe`] found.
#[derive(Debug)]
pub enum Probe {
    /// The installed cache already held the answer.
    Hit(Response),
    /// The pipeline must run: hand the query to [`RandomWorlds::finish`].
    Miss(PendingQuery),
}

/// A parsed query [`RandomWorlds::probe`] could not answer, waiting for
/// [`RandomWorlds::finish`]. It owns everything the pipeline needs, so it
/// can cross threads: the KB over the query's vocabulary, the parsed
/// query, and the cache key it was looked up under (`None` when the
/// engine has no cache).
#[derive(Debug)]
pub struct PendingQuery {
    kb: PreparedKb,
    query: Formula,
    key: Option<String>,
}

/// The historical name for [`Response`], kept so terse example code and
/// downstream crates keep compiling.
pub type BeliefResult = Response;

impl fmt::Display for Response {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} (via {})", self.belief, self.provenance)
    }
}

/// Engine-level failures.
#[derive(Debug)]
pub enum EngineError {
    /// The query failed to parse.
    Parse(ParseError),
    /// No stage answered; the trace records what each one reported.
    OutOfReach {
        /// Summary line.
        reason: String,
        /// Per-stage outcomes, for diagnosis.
        trace: Trace,
    },
}

impl fmt::Display for EngineError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            EngineError::Parse(e) => write!(f, "{e}"),
            EngineError::OutOfReach { reason, trace } => {
                write!(f, "no engine applicable: {reason}")?;
                if !trace.is_empty() {
                    write!(f, " [{trace}]")?;
                }
                Ok(())
            }
        }
    }
}

impl std::error::Error for EngineError {}

impl From<ParseError> for EngineError {
    fn from(e: ParseError) -> EngineError {
        EngineError::Parse(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::solver::{Recurse, Solver, StageTrace};

    fn engine() -> RandomWorlds {
        RandomWorlds::default()
    }

    fn belief(kb_src: &str, query: &str) -> Response {
        let kb = KnowledgeBase::parse(kb_src).unwrap();
        engine().degree_of_belief(&kb, query).unwrap()
    }

    #[test]
    fn hepatitis_via_direct_inference() {
        let r = belief("||Hep(x) | Jaun(x)||_x ~=_1 0.8; Jaun(Eric)", "Hep(Eric)");
        assert_eq!(r.provenance, Provenance::DirectInference);
        assert_eq!(r.belief.as_point(), Some(0.8));
    }

    #[test]
    fn other_individuals_ignored() {
        // Paper Example 5.8: Hep(Tom) does not change Eric's belief.
        let r = belief(
            "||Hep(x) | Jaun(x)||_x ~=_1 0.8; Jaun(Eric); Hep(Tom)",
            "Hep(Eric)",
        );
        assert_eq!(r.belief.as_point(), Some(0.8));
    }

    #[test]
    fn penguins_specificity() {
        // With Penguin(Tweety) as the only fact, Thm 5.6 applies directly
        // (the complement-normalized penguin default is an exact match).
        let r = belief(
            "Bird(x) ->_1 Fly(x); Penguin(x) ->_2 !Fly(x); \
             forall x (Penguin(x) => Bird(x)); Penguin(Tweety)",
            "Fly(Tweety)",
        );
        assert_eq!(r.belief.as_point(), Some(0.0), "{r}");
        assert_eq!(r.provenance, Provenance::DirectInference);
    }

    #[test]
    fn yellow_penguins_via_minimal_class() {
        // Paper Example 5.19: the irrelevant Yellow(Tweety) fact defeats the
        // exact-class match, so Thm 5.16 carries the inference.
        let r = belief(
            "Bird(x) ->_1 Fly(x); Penguin(x) ->_2 !Fly(x); \
             forall x (Penguin(x) => Bird(x)); Penguin(Tweety); Yellow(Tweety)",
            "Fly(Tweety)",
        );
        assert_eq!(r.belief.as_point(), Some(0.0), "{r}");
        assert_eq!(r.provenance, Provenance::MinimalReferenceClass);
    }

    #[test]
    fn elephant_zookeeper_binary_predicates() {
        // Paper Example 5.12 — needs a binary predicate, so only the
        // theorem engine (Thm 5.6) can produce it.
        let kb_src = "||Likes(x, y) | Elephant(x) & Zookeeper(y)||_{x,y} ~=_1 1; \
                      ||Likes(x, Fred) | Elephant(x)||_x ~=_2 0; \
                      Zookeeper(Fred); Elephant(Clyde); Zookeeper(Eric)";
        let r1 = belief(kb_src, "Likes(Clyde, Eric)");
        assert_eq!(r1.belief.as_point(), Some(1.0), "{r1}");
        let r2 = belief(kb_src, "Likes(Clyde, Fred)");
        assert_eq!(r2.belief.as_point(), Some(0.0), "{r2}");
    }

    #[test]
    fn strength_rule_magpies() {
        // Paper Example 5.24.
        let r = belief(
            "0.7 <~_1 ||Chirps(x) | Bird(x)||_x <~_2 0.8; \
             0 <~_3 ||Chirps(x) | Magpie(x)||_x <~_4 0.99; \
             forall x (Magpie(x) => Bird(x)); Magpie(Tweety)",
            "Chirps(Tweety)",
        );
        assert_eq!(r.provenance, Provenance::StrengthRule);
        assert_eq!(r.belief.as_interval(), Some((0.7, 0.8)));
    }

    #[test]
    fn nixon_diamond_dempster() {
        let kb_src = "||Pacifist(x) | Quaker(x)||_x ~=_1 0.8; \
                      ||Pacifist(x) | Republican(x)||_x ~=_2 0.8; \
                      Quaker(Nixon); Republican(Nixon); \
                      exists! x (Quaker(x) & Republican(x))";
        let r = belief(kb_src, "Pacifist(Nixon)");
        assert_eq!(r.provenance, Provenance::Dempster);
        let v = r.belief.as_point().unwrap();
        assert!((v - 16.0 / 17.0).abs() < 1e-9, "{v}");
    }

    #[test]
    fn nixon_conflicting_defaults_non_robust() {
        let kb_src = "||Pacifist(x) | Quaker(x)||_x ~=_1 1; \
                      ||Pacifist(x) | Republican(x)||_x ~=_2 0; \
                      Quaker(Nixon); Republican(Nixon); \
                      exists! x (Quaker(x) & Republican(x))";
        let r = belief(kb_src, "Pacifist(Nixon)");
        assert!(matches!(r.belief, Belief::NonRobust(_)), "{r}");
    }

    #[test]
    fn nixon_equal_strength_gives_half() {
        let kb_src = "||Pacifist(x) | Quaker(x)||_x ~=_1 1; \
                      ||Pacifist(x) | Republican(x)||_x ~=_1 0; \
                      Quaker(Nixon); Republican(Nixon); \
                      exists! x (Quaker(x) & Republican(x))";
        let r = belief(kb_src, "Pacifist(Nixon)");
        assert_eq!(r.belief.as_point(), Some(0.5), "{r}");
    }

    #[test]
    fn independence_product() {
        // Paper Example 5.28: 0.8 × 0.4 = 0.32.
        let r = belief(
            "||Hep(x) | Jaun(x)||_x ~=_1 0.8; Jaun(Eric); \
             ||Over60(x) | Patient(x)||_x ~=_2 0.4; Patient(Eric)",
            "Hep(Eric) & Over60(Eric)",
        );
        let v = r.belief.as_point().unwrap();
        assert!((v - 0.32).abs() < 1e-9, "{r}");
        assert!(matches!(r.provenance, Provenance::Independence(_)));
    }

    #[test]
    fn unique_names_bias() {
        let r = belief("P(A) or !P(A)", "C1 = C2");
        assert_eq!(r.belief.as_point(), Some(0.0));
        assert_eq!(r.provenance, Provenance::UniqueNames);
        // Lifschitz C1.
        let r2 = belief("Ray = Reiter; Drew = McDermott", "!(Ray = Drew)");
        assert_eq!(r2.belief.as_point(), Some(1.0), "{r2}");
        let r3 = belief("Ray = Reiter; Drew = McDermott", "Ray = Reiter");
        assert_eq!(r3.belief.as_point(), Some(1.0));
    }

    #[test]
    fn nested_defaults_bed_late() {
        // Paper Examples 4.6 / 5.14.
        let kb_src = "|| ||Rises-late(x, y) | Day(y)||_y ~=_1 1 | ||To-bed-late(x, z) | Day(z)||_z ~=_2 1 ||_x ~=_3 1; \
                      ||To-bed-late(Alice, z) | Day(z)||_z ~=_2 1; \
                      Day(Tomorrow)";
        let r = belief(kb_src, "Rises-late(Alice, Tomorrow)");
        assert_eq!(r.belief.as_point(), Some(1.0), "{r}");
        assert_eq!(r.provenance, Provenance::NestedDefault);
    }

    #[test]
    fn tall_parent_via_direct_inference() {
        // Paper Example 5.13: existential reference class.
        let r = belief(
            "||Tall(x) | exists y (Child(x, y) & Tall(y))||_x ~=_1 1; \
             exists y (Child(Alice, y) & Tall(y))",
            "Tall(Alice)",
        );
        assert_eq!(r.belief.as_point(), Some(1.0), "{r}");
        assert_eq!(r.provenance, Provenance::DirectInference);
    }

    #[test]
    fn asserted_ground_facts_answer_in_the_theorem_stage() {
        // The PR-2 serving trap: these shapes used to miss every theorem
        // pattern and fall through to the maxent stage.
        let kb_src = "||Hep(x) | Jaun(x)||_x ~=_1 0.8; Jaun(Eric); Patient(Eric); !Jaun(Tom)";
        for (q, expect) in [
            ("Jaun(Eric)", 1.0),                 // bare asserted fact
            ("!!Jaun(Eric)", 1.0),               // double negation
            ("Jaun(Eric) & Patient(Eric)", 1.0), // conjunction of asserted literals
            ("Patient(Eric) & !Jaun(Tom)", 1.0), // mixed polarity, both asserted
            ("!Jaun(Eric)", 0.0),                // complement of an asserted fact
            ("Jaun(Tom)", 0.0),                  // asserted negative
            ("Jaun(Eric) & Jaun(Tom)", 0.0),     // one conjunct contradicted
        ] {
            let r = belief(kb_src, q);
            assert_eq!(r.provenance, Provenance::Entailed, "{q}: {r}");
            assert_eq!(r.belief.as_point(), Some(expect), "{q}: {r}");
            assert_eq!(r.trace.steps().len(), 1, "{q} must not leave theorems");
        }
        // Unasserted literals still decline to the statistical machinery
        // (minimal reference class here, since Eric has extra facts).
        let r = belief(kb_src, "Hep(Eric)");
        assert_ne!(r.provenance, Provenance::Entailed, "{r}");
        assert_eq!(r.belief.as_point(), Some(0.8), "{r}");
    }

    #[test]
    fn directly_contradictory_kbs_bypass_the_fast_path() {
        let r = belief("P(C); !P(C)", "P(C)");
        assert_eq!(r.belief, Belief::Undefined, "{r}");
    }

    #[test]
    fn symbol_free_false_conjuncts_bypass_the_fast_path() {
        // `false` shares no symbols with the query but voids the KB; the
        // fast path must not certify past it.
        let r = belief("false; P(C)", "P(C)");
        assert_ne!(r.provenance, Provenance::Entailed, "{r}");
        assert_eq!(r.belief, Belief::Undefined, "{r}");
    }

    #[test]
    fn quantified_contradictions_bypass_the_fast_path_too() {
        // The KB is inconsistent through a universal, not a ground
        // literal pair: the fast path must not claim entailment where
        // the semantic stages report Undefined.
        let r = belief("forall x (!P(x)); P(C)", "P(C)");
        assert_ne!(r.provenance, Provenance::Entailed, "{r}");
        assert_eq!(r.belief, Belief::Undefined, "{r}");
        // A universal about the queried predicate blocks the shortcut
        // even when consistent — the stages that understand it answer.
        let r = belief("forall x (P(x)); P(C)", "P(C)");
        assert_ne!(r.provenance, Provenance::Entailed, "{r}");
        assert_eq!(r.belief.as_point(), Some(1.0), "{r}");
        // Tolerance-carrying statistics about the queried symbols are
        // the allowed shape: the motivating trap KB keeps its fast path.
        let r = belief("||Hep(x) | Jaun(x)||_x ~=_1 0.8; Jaun(Eric)", "Jaun(Eric)");
        assert_eq!(r.provenance, Provenance::Entailed, "{r}");
    }

    #[test]
    fn maxent_fallback_for_unary_without_theorem() {
        // No explicit statistics for the query: falls to maxent.
        let r = belief(
            "||Black(x) | Bird(x)||_x ~=_1 0.2; ||Bird(x)||_x ~=_2 0.1",
            "Black(Clyde)",
        );
        assert_eq!(r.provenance, Provenance::MaxEnt);
        assert!((r.belief.as_point().unwrap() - 0.47).abs() < 0.005, "{r}");
    }

    #[test]
    fn enumeration_fallback_for_tiny_non_unary() {
        // Binary predicate, no theorem pattern: enumeration diagonal.
        let r = belief("Likes(A, B)", "Likes(B, A)");
        assert!(
            matches!(r.provenance, Provenance::Enumeration { .. }),
            "{r}"
        );
        let v = r.belief.as_point().unwrap();
        assert!((v - 0.5).abs() < 0.05, "{r}");
    }

    #[test]
    fn inconsistent_kb_is_undefined() {
        let r = belief("forall x (P(x)); exists x (!P(x))", "P(C)");
        assert_eq!(r.belief, Belief::Undefined);
    }

    #[test]
    fn default_entailment_interface() {
        let kb = KnowledgeBase::parse(
            "Bird(x) ->_1 Fly(x); Penguin(x) ->_2 !Fly(x); \
             forall x (Penguin(x) => Bird(x)); Penguin(Tweety)",
        )
        .unwrap();
        let e = engine();
        assert!(e.follows_by_default(&kb, "!Fly(Tweety)").unwrap());
        assert!(!e.follows_by_default(&kb, "Fly(Tweety)").unwrap());
    }

    // ---- Pipeline API ----

    /// A test double answering every query with a fixed point belief.
    struct ConstSolver {
        name: &'static str,
        value: f64,
    }

    impl Solver for ConstSolver {
        fn name(&self) -> &str {
            self.name
        }

        fn solve(
            &self,
            _kb: &KnowledgeBase,
            _query: &Formula,
            _budget: &Budget,
            _recurse: &Recurse<'_>,
        ) -> SolverOutcome {
            SolverOutcome::Answered {
                belief: Belief::Point(self.value),
                provenance: Provenance::DirectInference,
            }
        }
    }

    /// A test double that always declines.
    struct DeclineSolver;

    impl Solver for DeclineSolver {
        fn name(&self) -> &str {
            "decline"
        }

        fn solve(
            &self,
            _kb: &KnowledgeBase,
            _query: &Formula,
            _budget: &Budget,
            _recurse: &Recurse<'_>,
        ) -> SolverOutcome {
            SolverOutcome::Declined {
                reason: "always declines".to_string(),
            }
        }
    }

    #[test]
    fn default_pipeline_exposes_stage_names() {
        assert_eq!(
            engine().solvers(),
            vec!["theorems", "maxent", "enumeration"]
        );
    }

    #[test]
    fn custom_solver_ordering_is_honored() {
        let kb = KnowledgeBase::parse("||Hep(x) | Jaun(x)||_x ~=_1 0.8; Jaun(Eric)").unwrap();
        // The override runs *before* the theorem engine and wins.
        let e = engine().with_solvers(vec![
            Stage::new(Box::new(ConstSolver {
                name: "override",
                value: 0.42,
            })),
            Stage::new(Box::new(TheoremSolver)),
        ]);
        assert_eq!(e.solvers(), vec!["override", "theorems"]);
        let r = e.answer(&kb, "Hep(Eric)").unwrap();
        assert_eq!(r.belief.as_point(), Some(0.42));
        assert_eq!(r.trace.steps().len(), 1);
        assert_eq!(r.trace.steps()[0].stage, "override");
        // Swapped order: the theorem engine answers first.
        let e = engine().with_solvers(vec![
            Stage::new(Box::new(TheoremSolver)),
            Stage::new(Box::new(ConstSolver {
                name: "override",
                value: 0.42,
            })),
        ]);
        let r = e.answer(&kb, "Hep(Eric)").unwrap();
        assert_eq!(r.belief.as_point(), Some(0.8));
    }

    #[test]
    fn trace_records_declined_stages_before_the_answer() {
        // Binary predicate: theorems and maxent must both decline (maxent
        // cannot compile a non-unary KB), and the enumeration stage
        // answers — all of it visible in the trace.
        let r = belief("Likes(A, B)", "Likes(B, A)");
        let stages: Vec<(&str, &str)> = r
            .trace
            .steps()
            .iter()
            .map(|s: &StageTrace| (s.stage.as_str(), s.status.keyword()))
            .collect();
        assert_eq!(
            stages,
            vec![
                ("theorems", "declined"),
                ("maxent", "declined"),
                ("enumeration", "answered"),
            ],
            "{:?}",
            r.trace
        );
        assert!(r.trace.stage("maxent").unwrap().status.reason().is_some());
    }

    #[test]
    fn every_response_carries_a_nonempty_trace() {
        for (kb_src, q) in [
            ("||Hep(x) | Jaun(x)||_x ~=_1 0.8; Jaun(Eric)", "Hep(Eric)"),
            (
                "||Black(x) | Bird(x)||_x ~=_1 0.2; ||Bird(x)||_x ~=_2 0.1",
                "Black(Clyde)",
            ),
            ("Likes(A, B)", "Likes(B, A)"),
        ] {
            let r = belief(kb_src, q);
            assert!(!r.trace.is_empty(), "{kb_src} ⊢ {q}");
            assert_eq!(
                r.trace.steps().last().unwrap().status,
                StageStatus::Answered
            );
        }
    }

    #[test]
    fn declining_pipeline_reports_out_of_reach_with_trace() {
        let kb = KnowledgeBase::parse("P(C)").unwrap();
        let e = engine().with_solvers(vec![Stage::new(Box::new(DeclineSolver))]);
        match e.answer(&kb, "P(C)") {
            Err(EngineError::OutOfReach { trace, .. }) => {
                assert_eq!(trace.steps().len(), 1);
                assert_eq!(
                    trace.steps()[0].status,
                    StageStatus::Declined("always declines".to_string())
                );
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn answer_batch_reuses_the_kb_and_isolates_failures() {
        let kb = PreparedKb::new(
            KnowledgeBase::parse("||Hep(x) | Jaun(x)||_x ~=_1 0.8; Jaun(Eric)").unwrap(),
        );
        let results = engine()
            .answer_batch_report(&kb, &["Hep(Eric)", "Hep(", "!Hep(Eric)"], 1)
            .results;
        assert_eq!(results.len(), 3);
        assert_eq!(results[0].as_ref().unwrap().belief.as_point(), Some(0.8));
        assert!(matches!(results[1], Err(EngineError::Parse(_))));
        let v = results[2].as_ref().unwrap().belief.as_point().unwrap();
        assert!((v - 0.2).abs() < 1e-9);
        // Vocabulary extensions from one query must not leak into others:
        // the shared KB still parses fresh constants the same way.
        let again = engine().answer_batch_report(&kb, &["Hep(Eric)"], 1).results;
        assert_eq!(again[0].as_ref().unwrap().belief.as_point(), Some(0.8));
    }

    #[test]
    fn single_query_answers_share_the_installed_cache() {
        let kb = KnowledgeBase::parse("||Hep(x) | Jaun(x)||_x ~=_1 0.8; Jaun(Eric)").unwrap();
        let cache = Arc::new(AnswerCache::new());
        let e = engine().with_cache(Arc::clone(&cache));
        let cold = e.answer(&kb, "Hep(Eric)").unwrap();
        assert!(!cold.cached);
        // Exact repeat and a syntactic variant both hit.
        let warm = e.answer(&kb, "Hep(Eric)").unwrap();
        assert!(warm.cached);
        assert_eq!(warm.belief, cold.belief);
        assert_eq!(warm.provenance, cold.provenance);
        assert_eq!(warm.trace.steps().len(), 1);
        assert_eq!(warm.trace.steps()[0].stage, "cache");
        assert!(e.answer(&kb, "!!Hep(Eric)").unwrap().cached);
        // A different KB must not see the entry.
        let other = KnowledgeBase::parse("||Hep(x) | Jaun(x)||_x ~=_1 0.3; Jaun(Eric)").unwrap();
        let r = e.answer(&other, "Hep(Eric)").unwrap();
        assert!(!r.cached);
        assert_eq!(r.belief.as_point(), Some(0.3));
        assert_eq!(cache.len(), 2);
    }

    /// An engine built from the default settings with `edit` applied.
    fn configured(edit: impl FnOnce(&mut EngineConfig)) -> RandomWorlds {
        let mut config = EngineConfig::default();
        edit(&mut config);
        RandomWorlds::from(config)
    }

    #[test]
    fn cache_key_prefixes_are_stable() {
        // Snapshots store raw cache keys, and golden corpora pin answers
        // served through them: the config fingerprint's source string
        // must not drift. These values date from the three-stage cascade
        // (snapshot format 2).
        let theorems_only = engine().with_solvers(vec![Stage::new(Box::new(TheoremSolver))]);
        for (name, e, expect) in [
            ("default", engine(), 0xbeca223afebfad9d_u64),
            (
                "symmetry",
                configured(|c| {
                    c.enum_counter = Counter::Orbits;
                    c.enum_min_n = Some(3);
                    c.enum_max_n = Some(12);
                }),
                0x250f3107fdb411d4,
            ),
            (
                "approx",
                configured(|c| c.approx = Some(rw_worlds::mc::McConfig::default())),
                0x507cb17eb824d576,
            ),
            ("theorems-only", theorems_only, 0x804f446793e5a390),
        ] {
            let got = e.key_prefix(0x1234);
            assert_eq!(got, expect, "{name}: {got:#018x}");
        }
    }

    #[test]
    fn config_mutations_invalidate_cache_entries() {
        let kb = KnowledgeBase::parse("||Hep(x) | Jaun(x)||_x ~=_1 0.8; Jaun(Eric)").unwrap();
        let cache = Arc::new(AnswerCache::new());
        let cached = |e: RandomWorlds| e.with_cache(Arc::clone(&cache));
        let base = cached(engine());
        assert!(!base.answer(&kb, "Hep(Eric)").unwrap().cached);
        assert!(base.answer(&kb, "Hep(Eric)").unwrap().cached);
        // Every differently configured engine keys a fresh entry: a belief
        // computed under other budgets/diagonal must never be served.
        let variants: Vec<fn(&mut EngineConfig)> = vec![
            |c| c.enum_max_worlds = 1 << 10,
            |c| c.diagonal = Diagonal::geometric(rw_util::Rat::new(1, 4), 8, 2),
            // The symmetry flag and scan window are part of the keyspace.
            |c| c.enum_counter = Counter::Orbits,
            |c| c.enum_min_n = Some(3),
            |c| c.enum_max_n = Some(12),
        ];
        for edit in variants {
            let e = cached(configured(edit));
            assert!(!e.answer(&kb, "Hep(Eric)").unwrap().cached);
            // ...and each configuration's own entry still hits.
            assert!(e.answer(&kb, "Hep(Eric)").unwrap().cached);
        }
        // An identically configured engine reuses the entry, one with a
        // different stage list does not; neither does the thread count
        // of the counting stage, which never affects an answer.
        assert!(cached(engine()).answer(&kb, "Hep(Eric)").unwrap().cached);
        let rethreaded = cached(configured(|c| c.enum_threads = 4));
        assert!(rethreaded.answer(&kb, "Hep(Eric)").unwrap().cached);
        let different = cached(engine().with_solvers(vec![Stage::new(Box::new(TheoremSolver))]));
        assert!(!different.answer(&kb, "Hep(Eric)").unwrap().cached);
    }

    #[test]
    fn approx_engines_insert_the_sampling_stage_after_theorems() {
        let e = configured(|c| c.approx = Some(rw_worlds::mc::McConfig::default()));
        assert_eq!(
            e.solvers(),
            vec!["theorems", "montecarlo", "maxent", "enumeration"]
        );
        // Theorem-answerable queries still bypass the sampler entirely.
        let kb = KnowledgeBase::parse("||Hep(x) | Jaun(x)||_x ~=_1 0.8; Jaun(Eric)").unwrap();
        let r = e.answer(&kb, "Hep(Eric)").unwrap();
        assert_eq!(r.provenance, Provenance::DirectInference);
    }

    #[test]
    fn approx_and_exact_answers_never_share_cache_entries() {
        // A binary-predicate KB: exact inference lands on the (cheap at
        // N≤3) enumeration stage, the approx engine on the sampler.
        let kb = KnowledgeBase::parse("Likes(A, B)").unwrap();
        let cache = Arc::new(AnswerCache::new());
        let exact_config = EngineConfig {
            enum_max_worlds: 1 << 13, // clamp enumeration to N=3
            ..EngineConfig::default()
        };
        let sampling = |mc: rw_worlds::mc::McConfig| {
            RandomWorlds::from(EngineConfig {
                approx: Some(mc),
                diagonal: Diagonal::geometric(rw_util::Rat::new(1, 4), 4, 2),
                ..exact_config.clone()
            })
            .with_cache(Arc::clone(&cache))
        };
        let exact = RandomWorlds::from(exact_config.clone()).with_cache(Arc::clone(&cache));
        let approx = sampling(rw_worlds::mc::McConfig::default());
        let q = "Likes(B, A)";
        let a = approx.answer(&kb, q).unwrap();
        assert!(!a.cached);
        assert!(matches!(a.belief, Belief::Approximate { .. }), "{a}");
        // The exact engine must not be served the sampled belief...
        let e1 = exact.answer(&kb, q).unwrap();
        assert!(
            !e1.cached,
            "approximate entry leaked into the exact keyspace"
        );
        assert!(!matches!(e1.belief, Belief::Approximate { .. }), "{e1}");
        // ...while each keyspace still hits itself.
        assert!(approx.answer(&kb, q).unwrap().cached);
        assert!(exact.answer(&kb, q).unwrap().cached);
        // A different sampling configuration keys differently too...
        let reseeded = sampling(rw_worlds::mc::McConfig {
            seed: 1234,
            ..rw_worlds::mc::McConfig::default()
        });
        assert!(!reseeded.answer(&kb, q).unwrap().cached);
        // ...but a different *worker count* does not: threads never
        // affect an answer (sampling is thread-count deterministic), so
        // sessions differing only in threads share cache entries.
        let rethreaded = sampling(rw_worlds::mc::McConfig {
            threads: 4,
            ..rw_worlds::mc::McConfig::default()
        });
        assert!(rethreaded.answer(&kb, q).unwrap().cached);
    }

    #[test]
    fn answer_prepared_matches_answer() {
        let kb = KnowledgeBase::parse("||Hep(x) | Jaun(x)||_x ~=_1 0.8; Jaun(Eric)").unwrap();
        let e = engine().with_cache(Arc::new(AnswerCache::new()));
        let prepared = PreparedKb::new(kb.clone());
        let cold = e.answer_prepared(&prepared, "Hep(Eric)").unwrap();
        assert!(!cold.cached);
        assert_eq!(prepared.fingerprint(), rw_logic::canon::kb_fingerprint(&kb));
        // Shares the keyspace with the self-preparing entry point.
        assert!(e.answer(&kb, "Hep(Eric)").unwrap().cached);
        let warm = e.answer_prepared(&prepared, "!!Hep(Eric)").unwrap();
        assert!(warm.cached);
        assert_eq!(warm.belief, cold.belief);
        // Without a cache the prepared path answers like the ad-hoc one,
        // reusing one analysis across queries that add only constants.
        let plain = engine();
        let prepared = PreparedKb::new(kb.clone());
        for q in [
            "Hep(Eric)",
            "Hep(Tom)",
            "Jaun(Eric)",
            "Hep(Eric) & Fever(Eric)",
        ] {
            let a = plain.answer_prepared(&prepared, q).unwrap();
            let b = plain.answer(&kb, q).unwrap();
            assert_eq!(
                (&a.belief, &a.provenance),
                (&b.belief, &b.provenance),
                "{q}"
            );
        }
        assert!(prepared.is_analysed());
    }

    #[test]
    fn answer_formula_consults_the_cache_too() {
        let mut kb = KnowledgeBase::parse("||Hep(x) | Jaun(x)||_x ~=_1 0.8; Jaun(Eric)").unwrap();
        let e = engine().with_cache(Arc::new(AnswerCache::new()));
        let q = kb.parse_query("Hep(Eric)").unwrap();
        assert!(!e.answer_formula(&kb, &q).unwrap().cached);
        assert!(e.answer_formula(&kb, &q).unwrap().cached);
        // String and formula entry points share one keyspace.
        assert!(e.answer(&kb, "Hep(Eric)").unwrap().cached);
    }

    #[test]
    fn batch_matches_single_query_answers() {
        let kb = KnowledgeBase::parse("||Black(x) | Bird(x)||_x ~=_1 0.2; ||Bird(x)||_x ~=_2 0.1")
            .unwrap();
        let queries = ["Black(Clyde)", "Bird(Clyde)"];
        let prepared = PreparedKb::new(kb.clone());
        let batch = engine().answer_batch_report(&prepared, &queries, 1).results;
        for (q, b) in queries.iter().zip(&batch) {
            let single = engine().answer(&kb, q).unwrap();
            assert_eq!(
                single.belief,
                b.as_ref().unwrap().belief,
                "batch diverged on {q}"
            );
        }
    }

    #[test]
    fn a_query_adding_a_constant_bypasses_the_draw_reservoir() {
        let kb =
            KnowledgeBase::parse("||Hep(x) | Jaun(x)||_x ~=_1 0.8; Jaun(Eric); Jaun(Tom)").unwrap();
        let e = RandomWorlds::from(EngineConfig {
            approx: Some(rw_worlds::mc::McConfig {
                max_samples: 4096,
                ..rw_worlds::mc::McConfig::default()
            }),
            ..EngineConfig::default()
        });
        let draws = Arc::clone(e.draw_cache());
        let prepared = PreparedKb::new(kb.clone());
        let points = e.config().diagonal.points().len() as u64;
        let sampled = |r: &Response| matches!(r.provenance, Provenance::MonteCarlo { .. });

        let first = e
            .answer_prepared(&prepared, "Hep(Eric) & Hep(Tom)")
            .unwrap();
        assert!(sampled(&first), "{first}");
        assert_eq!((draws.hits(), draws.misses()), (0, points));
        let stored = (draws.len(), draws.bytes());
        assert!(stored.0 > 0 && stored.1 > 0);

        // `Ann` is a new constant: another slot layout, so the reservoir
        // is neither read nor written, and the answer is the one-shot
        // path's.
        let fresh = e
            .answer_prepared(&prepared, "Hep(Eric) & Hep(Ann)")
            .unwrap();
        assert!(sampled(&fresh), "{fresh}");
        assert_eq!((draws.hits(), draws.misses()), (0, points));
        assert_eq!((draws.len(), draws.bytes()), stored);
        let one_shot = e.answer(&kb, "Hep(Eric) & Hep(Ann)").unwrap();
        assert_eq!(
            (&fresh.belief, &fresh.provenance),
            (&one_shot.belief, &one_shot.provenance)
        );
        // One-shot answers keep nothing either.
        assert_eq!((draws.hits(), draws.misses()), (0, points));

        // A query over the KB's own symbols replays the stored draws,
        // with the answer it would get drawing afresh.
        let replayed = e
            .answer_prepared(&prepared, "Hep(Eric) & !Hep(Tom)")
            .unwrap();
        assert_eq!(draws.hits(), points);
        let again = e.answer(&kb, "Hep(Eric) & !Hep(Tom)").unwrap();
        assert_eq!(
            (&replayed.belief, &replayed.provenance),
            (&again.belief, &again.provenance)
        );
        crate::purge_draws(&draws, prepared.id());
        assert!(draws.is_empty());
    }
}
