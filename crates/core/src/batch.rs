//! Batch answering: one answer tally, one batch fold, one executor.
//!
//! [`AnswerTally`] is the one fold of answered queries: counts of
//! answered and failed queries, cache hits and misses, and per-stage
//! totals from each answer's [`Trace`](crate::Trace). [`Batch`] folds one batch's
//! answers on one engine and one [`PreparedKb`] into a [`BatchReport`],
//! either a query at a time (the streamed `rwq batch` loop) or after
//! [`RandomWorlds::answer_batch_report`] has answered them all on the
//! shared [`rw_util::par`] pool. A resident server keeps one tally per
//! worker and merges them for its `stats` op.
//!
//! The direct-inference pipeline is embarrassingly parallel across
//! queries: each query walks the stage cascade independently against one
//! shared, immutable KB. The executor's output is **deterministic**:
//! results land in input order regardless of which worker answered which
//! query, and a worker picking up query *i* computes exactly what the
//! streamed loop would. Workers share the engine's installed
//! [`AnswerCache`](crate::AnswerCache) ([`RandomWorlds::with_cache`]), so
//! a hit produced by one worker is immediately visible to the rest.

use crate::engine::{EngineError, RandomWorlds, Response};
use crate::prepared::PreparedKb;
use crate::solver::StageStatus;
use rw_util::par;
use std::fmt;
use std::time::{Duration, Instant};

/// Aggregate per-stage totals across many answers.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct StageTotals {
    /// The stage name (a [`crate::Solver::name`], or `cache`).
    pub stage: String,
    /// Queries this stage answered.
    pub answered: usize,
    /// Queries this stage declined.
    pub declined: usize,
    /// Queries on which this stage exhausted its budget.
    pub budget_exhausted: usize,
    /// Total wall-clock time spent in this stage.
    pub elapsed: Duration,
}

/// The one fold of answered queries, shared by the batch executor, the
/// streamed `rwq batch` loop and `rw-server`'s `stats` slots.
#[derive(Clone, Debug, Default)]
pub struct AnswerTally {
    /// Queries answered successfully.
    pub answered: usize,
    /// Queries that failed (parse error or out of reach).
    pub failed: usize,
    /// Answered queries served from the cache.
    pub cache_hits: usize,
    /// Queries that consulted a cache and missed: computed answers and
    /// out-of-reach walks, but not parse errors, which fail before the
    /// lookup. Zero unless the tally was shaped for a caching engine.
    pub cache_misses: usize,
    /// Per-stage totals in first-seen order, after any slots the tally
    /// was shaped with ([`Self::for_engine`]).
    pub stages: Vec<StageTotals>,
    /// Whether a pipeline run counts as a cache miss.
    cached: bool,
}

impl AnswerTally {
    /// An empty tally shaped for `engine`: one zeroed slot per pipeline
    /// stage, `cache` first when the engine caches, so a report lists
    /// every stage in the order a query meets them, even stages no query
    /// reached.
    pub fn for_engine(engine: &RandomWorlds) -> AnswerTally {
        let cached = engine.cache().is_some();
        let stages = cached
            .then(|| "cache".to_string())
            .into_iter()
            .chain(engine.solvers())
            .map(|stage| StageTotals {
                stage,
                ..StageTotals::default()
            })
            .collect();
        AnswerTally {
            stages,
            cached,
            ..AnswerTally::default()
        }
    }

    /// Folds in one query's result. Success traces and out-of-reach
    /// traces both feed the stage totals; parse errors never entered the
    /// pipeline, so they count only as failures.
    pub fn absorb(&mut self, result: &Result<Response, EngineError>) {
        let trace = match result {
            Ok(r) => {
                self.answered += 1;
                self.cache_hits += usize::from(r.cached);
                self.cache_misses += usize::from(self.cached && !r.cached);
                &r.trace
            }
            Err(EngineError::OutOfReach { trace, .. }) => {
                self.failed += 1;
                self.cache_misses += usize::from(self.cached);
                trace
            }
            Err(EngineError::Parse(_)) => {
                self.failed += 1;
                return;
            }
        };
        for step in trace.steps() {
            let slot = self.slot(&step.stage);
            match step.status {
                StageStatus::Answered => slot.answered += 1,
                StageStatus::Declined(_) => slot.declined += 1,
                StageStatus::BudgetExhausted(_) => slot.budget_exhausted += 1,
            }
            slot.elapsed += step.elapsed;
        }
    }

    /// Sums `other` into this tally, stage by stage, appending stages
    /// this one has not seen.
    pub fn merge(&mut self, other: &AnswerTally) {
        self.answered += other.answered;
        self.failed += other.failed;
        self.cache_hits += other.cache_hits;
        self.cache_misses += other.cache_misses;
        self.cached |= other.cached;
        for st in &other.stages {
            let slot = self.slot(&st.stage);
            slot.answered += st.answered;
            slot.declined += st.declined;
            slot.budget_exhausted += st.budget_exhausted;
            slot.elapsed += st.elapsed;
        }
    }

    /// The totals slot for `stage`, appended zeroed on first sight.
    fn slot(&mut self, stage: &str) -> &mut StageTotals {
        let i = match self.stages.iter().position(|t| t.stage == stage) {
            Some(i) => i,
            None => {
                self.stages.push(StageTotals {
                    stage: stage.to_string(),
                    ..StageTotals::default()
                });
                self.stages.len() - 1
            }
        };
        &mut self.stages[i]
    }
}

/// What a batch run did, in aggregate.
#[derive(Clone, Debug, Default)]
pub struct BatchReport {
    /// Queries submitted.
    pub queries: usize,
    /// Queries answered successfully.
    pub answered: usize,
    /// Queries that failed (parse error or out of reach).
    pub failed: usize,
    /// Answered queries served from the cache.
    pub cache_hits: usize,
    /// Queries that consulted a cache and missed (computed by the
    /// pipeline; parse errors never reach the cache and count in
    /// neither column). Zero when the batch ran uncached.
    pub cache_misses: usize,
    /// `#worlds` denominator-cache hits during this batch (the engine's
    /// [`crate::DenomCache`] counters, sampled around the run).
    pub denom_hits: u64,
    /// `#worlds` denominator-cache misses during this batch.
    pub denom_misses: u64,
    /// Worker threads actually used.
    pub threads: usize,
    /// End-to-end wall-clock time for the batch.
    pub wall: Duration,
    /// Summed per-query answer time across all workers (≈ CPU time; with
    /// `threads` workers saturated, `cpu / wall ≈ threads`).
    pub cpu: Duration,
    /// Per-stage totals, in pipeline order (`cache` first when present).
    /// Stages no query reached are listed zeroed, so the shape of a
    /// report depends only on the engine.
    pub stages: Vec<StageTotals>,
}

impl fmt::Display for BatchReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} queries ({} answered, {} failed, {} cache hits) on {} thread(s) in {:?} wall / {:?} cpu",
            self.queries, self.answered, self.failed, self.cache_hits, self.threads, self.wall, self.cpu
        )
    }
}

/// A batch's per-query results (input order) plus the aggregate report.
#[derive(Debug)]
pub struct BatchRun {
    /// One result per input query, in input order.
    pub results: Vec<Result<Response, EngineError>>,
    /// The aggregate report.
    pub report: BatchReport,
}

/// A batch in progress on one engine and one prepared KB: the tally of
/// its answers, the summed time spent answering them, and the engine's
/// denominator-cache counters as they stood when it began.
pub struct Batch<'a> {
    engine: &'a RandomWorlds,
    kb: &'a PreparedKb,
    tally: AnswerTally,
    cpu: Duration,
    denoms: (u64, u64),
}

impl<'a> Batch<'a> {
    /// Begins a batch of queries against `kb` on `engine`.
    pub fn new(engine: &'a RandomWorlds, kb: &'a PreparedKb) -> Batch<'a> {
        let denoms = engine.denom_cache();
        Batch {
            engine,
            kb,
            tally: AnswerTally::for_engine(engine),
            cpu: Duration::ZERO,
            denoms: (denoms.hits(), denoms.misses()),
        }
    }

    /// Answers one query and folds its result into the batch.
    pub fn answer(&mut self, query: &str) -> Result<Response, EngineError> {
        let (result, elapsed) = self.timed(query);
        self.record(&result, elapsed);
        result
    }

    /// Answers one query without folding it in (the executor's workers
    /// answer side by side, then fold in input order).
    fn timed(&self, query: &str) -> (Result<Response, EngineError>, Duration) {
        let start = Instant::now();
        let result = self.engine.answer_prepared(self.kb, query);
        (result, start.elapsed())
    }

    fn record(&mut self, result: &Result<Response, EngineError>, elapsed: Duration) {
        self.cpu += elapsed;
        self.tally.absorb(result);
    }

    /// Time spent answering so far, summed over queries.
    pub fn cpu(&self) -> Duration {
        self.cpu
    }

    /// The report of a batch answered on `threads` workers in `wall`.
    pub fn finish(self, threads: usize, wall: Duration) -> BatchReport {
        let denoms = self.engine.denom_cache();
        let AnswerTally {
            answered,
            failed,
            cache_hits,
            cache_misses,
            stages,
            ..
        } = self.tally;
        BatchReport {
            queries: answered + failed,
            answered,
            failed,
            cache_hits,
            cache_misses,
            denom_hits: denoms.hits().saturating_sub(self.denoms.0),
            denom_misses: denoms.misses().saturating_sub(self.denoms.1),
            threads,
            wall,
            cpu: self.cpu,
            stages,
        }
    }
}

impl RandomWorlds {
    /// Answers a batch of queries against `kb` on `threads` workers (0 =
    /// one per core, 1 = inline on the calling thread) and through the
    /// engine's installed answer cache, returning per-query results in
    /// input order plus a [`BatchReport`].
    ///
    /// Determinism: every result is byte-for-byte what answering the
    /// queries one at a time would produce (up to recorded wall times),
    /// regardless of thread count — workers only race on *who* answers a
    /// query, never on what the answer is. With a cache the set of
    /// `cached` flags may vary between runs (whichever occurrence of a
    /// duplicate lands first computes it), but the beliefs are the same
    /// either way because only semantic answers are cached.
    ///
    /// ```
    /// use rw_core::{cache::AnswerCache, PreparedKb, RandomWorlds};
    /// use rw_logic::KnowledgeBase;
    /// use std::sync::Arc;
    ///
    /// let kb = PreparedKb::new(
    ///     KnowledgeBase::parse("||Hep(x) | Jaun(x)||_x ~=_1 0.8; Jaun(Eric)").unwrap(),
    /// );
    /// let queries = ["Hep(Eric)", "Jaun(Eric) & Hep(Eric)", "Hep(Eric) & Jaun(Eric)"];
    /// let engine = RandomWorlds::new().with_cache(Arc::new(AnswerCache::new()));
    ///
    /// let cold = engine.answer_batch_report(&kb, &queries, 2);
    /// assert_eq!(cold.report.answered, 3);
    /// // The commuted conjunctions share one canonical form, so a warm
    /// // rerun is answered entirely from the cache...
    /// let warm = engine.answer_batch_report(&kb, &queries, 2);
    /// assert_eq!(warm.report.cache_hits, 3);
    /// // ...with the same beliefs.
    /// for (c, w) in cold.results.iter().zip(&warm.results) {
    ///     assert_eq!(c.as_ref().unwrap().belief, w.as_ref().unwrap().belief);
    /// }
    /// ```
    pub fn answer_batch_report<S: AsRef<str> + Sync>(
        &self,
        kb: &PreparedKb,
        queries: &[S],
        threads: usize,
    ) -> BatchRun {
        let start = Instant::now();
        let mut batch = Batch::new(self, kb);
        let threads = par::threads(threads).min(queries.len()).max(1);
        let timed = par::map(queries.len(), threads, |i| batch.timed(queries[i].as_ref()));
        let results = timed
            .into_iter()
            .map(|(result, elapsed)| {
                batch.record(&result, elapsed);
                result
            })
            .collect();
        BatchRun {
            results,
            report: batch.finish(threads, start.elapsed()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{AnswerCache, Belief, EngineConfig};
    use rw_logic::KnowledgeBase;
    use std::sync::Arc;

    fn kb() -> PreparedKb {
        PreparedKb::new(
            KnowledgeBase::parse(
                "||Hep(x) | Jaun(x)||_x ~=_1 0.8; Jaun(Eric); \
                 ||Over60(x) | Patient(x)||_x ~=_2 0.4; Patient(Eric)",
            )
            .unwrap(),
        )
    }

    fn workload() -> Vec<String> {
        (0..24)
            .map(|i| match i % 4 {
                0 => "Hep(Eric)".to_string(),
                1 => "Over60(Eric)".to_string(),
                2 => "Hep(Eric) & Over60(Eric)".to_string(),
                _ => "!Hep(Eric)".to_string(),
            })
            .collect()
    }

    /// Responses compared up to recorded wall times.
    fn same_answer(a: &Result<Response, EngineError>, b: &Result<Response, EngineError>) -> bool {
        match (a, b) {
            (Ok(x), Ok(y)) => {
                x.belief == y.belief
                    && x.provenance == y.provenance
                    && x.trace.steps().len() == y.trace.steps().len()
                    && x.trace
                        .steps()
                        .iter()
                        .zip(y.trace.steps())
                        .all(|(s, t)| s.stage == t.stage && s.status == t.status)
            }
            (Err(x), Err(y)) => x.to_string() == y.to_string(),
            _ => false,
        }
    }

    #[test]
    fn parallel_results_match_sequential_in_order() {
        let kb = kb();
        let queries = workload();
        let engine = RandomWorlds::new();
        let sequential = engine.answer_batch_report(&kb, &queries, 1).results;
        for threads in [2usize, 4, 0] {
            let run = engine.answer_batch_report(&kb, &queries, threads);
            assert_eq!(run.results.len(), sequential.len());
            for (i, (s, p)) in sequential.iter().zip(&run.results).enumerate() {
                assert!(same_answer(s, p), "query {i} diverged at {threads} threads");
            }
        }
    }

    #[test]
    fn report_counts_and_isolated_failures() {
        let kb = kb();
        let queries = vec![
            "Hep(Eric)".to_string(),
            "Hep(".to_string(),
            "!Hep(Eric)".to_string(),
        ];
        let run = RandomWorlds::new().answer_batch_report(&kb, &queries, 2);
        assert_eq!(run.report.queries, 3);
        assert_eq!(run.report.answered, 2);
        assert_eq!(run.report.failed, 1);
        assert!(matches!(run.results[1], Err(EngineError::Parse(_))));
        assert_eq!(
            run.results[0].as_ref().unwrap().belief,
            Belief::Point(0.8),
            "{}",
            run.report
        );
    }

    #[test]
    fn stage_totals_cover_every_recorded_step() {
        let kb = kb();
        let queries = workload();
        let run = RandomWorlds::new().answer_batch_report(&kb, &queries, 1);
        let theorems = run
            .report
            .stages
            .iter()
            .find(|t| t.stage == "theorems")
            .unwrap();
        // Every query in this workload is theorem-answerable.
        assert_eq!(theorems.answered, queries.len());
        // Unused downstream stages are present but zeroed.
        let maxent = run
            .report
            .stages
            .iter()
            .find(|t| t.stage == "maxent")
            .unwrap();
        assert_eq!(
            maxent.answered + maxent.declined + maxent.budget_exhausted,
            0
        );
    }

    #[test]
    fn shared_cache_dedupes_semantic_variants() {
        let kb = kb();
        // 2 canonical queries under 12 surface forms (redundant parens
        // and commuted conjunctions; every form is also theorem-cheap on
        // a cache miss, so a racy miss never stalls the test).
        let queries: Vec<String> = (0..12)
            .map(|i| match i % 4 {
                0 => "Hep(Eric)".to_string(),
                1 => "(Hep(Eric))".to_string(),
                2 => "Hep(Eric) & Over60(Eric)".to_string(),
                _ => "Over60(Eric) & Hep(Eric)".to_string(),
            })
            .collect();
        let cache = Arc::new(AnswerCache::new());
        let engine = RandomWorlds::new().with_cache(Arc::clone(&cache));
        let run = engine.answer_batch_report(&kb, &queries, 4);
        assert_eq!(run.report.answered, 12);
        // Only 2 distinct canonical forms get computed...
        assert_eq!(cache.len(), 2);
        // ...and everything else hits. In the worst interleaving each of
        // the 4 workers computes each form once before any insert lands,
        // so at least 12 - 2×4 = 4 hits are guaranteed.
        assert!(run.report.cache_hits >= 4, "{}", run.report);
        let cache_totals = run
            .report
            .stages
            .iter()
            .find(|t| t.stage == "cache")
            .unwrap();
        assert_eq!(cache_totals.answered, run.report.cache_hits);
    }

    #[test]
    fn warm_cache_answers_match_cold() {
        let kb = kb();
        let queries = workload();
        let engine = RandomWorlds::new().with_cache(Arc::new(AnswerCache::new()));
        let cold = engine.answer_batch_report(&kb, &queries, 2);
        let warm = engine.answer_batch_report(&kb, &queries, 2);
        assert_eq!(warm.report.cache_hits, queries.len(), "fully warm");
        for (c, w) in cold.results.iter().zip(&warm.results) {
            assert_eq!(
                c.as_ref().unwrap().belief,
                w.as_ref().unwrap().belief,
                "warm answer diverged"
            );
        }
    }

    #[test]
    fn report_surfaces_cache_and_denominator_counters() {
        // A binary-predicate query lands on the enumeration stage, which
        // consults the engine's denominator cache; the tiny budget keeps
        // the scan debug-fast (N ≤ 3).
        let kb = PreparedKb::new(KnowledgeBase::parse("Likes(A, B)").unwrap());
        let engine = RandomWorlds::from(EngineConfig {
            enum_max_worlds: 1 << 13,
            ..EngineConfig::default()
        });
        let cached = engine.clone().with_cache(Arc::new(AnswerCache::new()));
        let queries = vec!["Likes(B, A)".to_string(), "Likes(B, A)".to_string()];
        let cold = cached.answer_batch_report(&kb, &queries, 1);
        assert_eq!(cold.report.threads, 1);
        assert_eq!(cold.report.cache_hits + cold.report.cache_misses, 2);
        assert_eq!(cold.report.cache_misses, 1, "{}", cold.report);
        assert!(
            cold.report.denom_hits + cold.report.denom_misses > 0,
            "enumeration consulted the denominator cache"
        );
        let warm = cached.answer_batch_report(&kb, &queries, 1);
        assert_eq!(warm.report.cache_hits, 2);
        assert_eq!(warm.report.cache_misses, 0);
        assert_eq!(
            warm.report.denom_hits + warm.report.denom_misses,
            0,
            "answer-cache hits skip the counting stages entirely"
        );
        // Uncached batches report no cache traffic at all.
        let uncached = engine.answer_batch_report(&kb, &queries, 1);
        assert_eq!(uncached.report.cache_misses, 0);
    }

    #[test]
    fn engine_installed_cache_is_used_when_options_carry_none() {
        let kb = kb();
        let cache = Arc::new(AnswerCache::new());
        let engine = RandomWorlds::new().with_cache(Arc::clone(&cache));
        let queries = vec!["Hep(Eric)".to_string(), "Hep(Eric)".to_string()];
        let run = engine.answer_batch_report(&kb, &queries, 1);
        assert_eq!(run.report.cache_hits, 1);
        assert!(run.results[1].as_ref().unwrap().cached);
    }

    #[test]
    fn thread_count_is_clamped_to_workload() {
        let kb = kb();
        let queries = vec!["Hep(Eric)".to_string()];
        let run = RandomWorlds::new().answer_batch_report(&kb, &queries, 8);
        assert_eq!(run.report.threads, 1);
        assert_eq!(run.report.answered, 1);
    }

    #[test]
    fn empty_batch_reports_cleanly() {
        let kb = kb();
        let queries: Vec<String> = Vec::new();
        let run = RandomWorlds::new().answer_batch_report(&kb, &queries, 1);
        assert_eq!(run.report.queries, 0);
        assert_eq!(run.report.threads, 1);
        assert!(run.results.is_empty());
    }

    #[test]
    fn merged_tallies_equal_one_tally_over_all_results() {
        let kb = kb();
        let queries = [
            "Hep(Eric)",
            "Hep(",
            "!Hep(Eric)",
            "Hep(Eric) & Over60(Eric)",
        ];
        let engine = RandomWorlds::new().with_cache(Arc::new(AnswerCache::new()));
        let run = engine.answer_batch_report(&kb, &queries, 1);
        let mut whole = AnswerTally::for_engine(&engine);
        let mut halves = [
            AnswerTally::for_engine(&engine),
            AnswerTally::for_engine(&engine),
        ];
        for (i, r) in run.results.iter().enumerate() {
            whole.absorb(r);
            halves[i % 2].absorb(r);
        }
        // Merging into an empty tally, as the server's `stats` does,
        // takes the stage order from the first tally merged in.
        let mut merged = AnswerTally::default();
        merged.merge(&halves[0]);
        merged.merge(&halves[1]);
        let counts = |t: &AnswerTally| (t.answered, t.failed, t.cache_hits, t.cache_misses);
        assert_eq!(counts(&merged), counts(&whole));
        assert_eq!(merged.stages, whole.stages);
        assert_eq!(whole.stages, run.report.stages);
        assert_eq!(counts(&whole), (3, 1, 0, 3));
    }
}
