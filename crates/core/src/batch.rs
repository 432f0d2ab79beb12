//! Parallel sharded batch answering with an aggregate [`BatchReport`].
//!
//! The direct-inference pipeline is embarrassingly parallel across
//! queries: each query walks the stage cascade independently against one
//! shared, immutable [`KnowledgeBase`]. This module spreads a batch over
//! the shared [`rw_util::par`] pool while keeping the output
//! **deterministic**: results land in input order regardless of which
//! worker answered which query, and a worker picking up query *i* always
//! computes exactly what the sequential path would.
//!
//! Workers share the engine's installed [`AnswerCache`](crate::AnswerCache)
//! ([`RandomWorlds::with_cache`]): the cache's sharded interior
//! mutability means a hit produced by one worker is immediately
//! visible to the rest, so duplicate and syntactically-variant queries
//! are answered once per batch instead of once per occurrence.
//!
//! Once every query is answered, their [`Trace`]s are folded in input
//! order into per-stage totals in the returned [`BatchReport`], along
//! with wall/CPU time and cache-hit counts.

use crate::engine::{EngineError, RandomWorlds, Response};
use crate::prepared::PreparedKb;
use crate::solver::{StageStatus, Trace};
use rw_logic::KnowledgeBase;
use rw_util::par;
use std::fmt;
use std::time::{Duration, Instant};

/// Aggregate per-stage totals across a whole batch.
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
    /// Total wall-clock time spent in this stage across the batch.
    pub elapsed: Duration,
}

impl StageTotals {
    /// Folds one query's [`Trace`] into a running totals list, appending
    /// slots for stages not seen before. Shared by the batch executor and
    /// long-lived serving loops (`rw-server`) that aggregate per-stage
    /// totals across their whole lifetime.
    pub fn absorb(totals: &mut Vec<StageTotals>, trace: &Trace) {
        for step in trace.steps() {
            let slot = match totals.iter_mut().find(|t| t.stage == step.stage) {
                Some(slot) => slot,
                None => {
                    totals.push(StageTotals {
                        stage: step.stage.clone(),
                        ..StageTotals::default()
                    });
                    totals.last_mut().expect("just pushed")
                }
            };
            match step.status {
                StageStatus::Answered => slot.answered += 1,
                StageStatus::Declined(_) => slot.declined += 1,
                StageStatus::BudgetExhausted(_) => slot.budget_exhausted += 1,
            }
            slot.elapsed += step.elapsed;
        }
    }

    /// Sums `from` into `into` stage by stage, appending stages `into`
    /// has not seen. Merges `rw-server`'s per-worker `stats` slots.
    pub fn merge(into: &mut Vec<StageTotals>, from: &[StageTotals]) {
        for st in from {
            match into.iter_mut().find(|t| t.stage == st.stage) {
                Some(t) => {
                    t.answered += st.answered;
                    t.declined += st.declined;
                    t.budget_exhausted += st.budget_exhausted;
                    t.elapsed += st.elapsed;
                }
                None => into.push(st.clone()),
            }
        }
    }

    /// Folds the trace carried by a query result — success traces and
    /// out-of-reach traces both feed the totals; parse errors never
    /// entered the pipeline, so they contribute nothing.
    pub fn absorb_result(totals: &mut Vec<StageTotals>, result: &Result<Response, EngineError>) {
        match result {
            Ok(r) => StageTotals::absorb(totals, &r.trace),
            Err(EngineError::OutOfReach { trace, .. }) => StageTotals::absorb(totals, trace),
            Err(EngineError::Parse(_)) => {}
        }
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

impl RandomWorlds {
    /// Answers a batch of queries on `threads` workers (0 = one per core,
    /// 1 = inline on the calling thread) and through the engine's
    /// installed answer cache, returning per-query results in input order
    /// plus a [`BatchReport`].
    ///
    /// Determinism: every result is byte-for-byte what the sequential
    /// [`Self::answer_batch`] path would produce (up to recorded wall
    /// times), regardless of thread count — workers only race on *who*
    /// answers a query, never on what the answer is. With a cache the
    /// set of `cached` flags may vary between runs (whichever occurrence
    /// of a duplicate lands first computes it), but the beliefs are the
    /// same either way because only semantic answers are cached.
    ///
    /// ```
    /// use rw_core::{cache::AnswerCache, RandomWorlds};
    /// use rw_logic::KnowledgeBase;
    /// use std::sync::Arc;
    ///
    /// let kb = KnowledgeBase::parse("||Hep(x) | Jaun(x)||_x ~=_1 0.8; Jaun(Eric)").unwrap();
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
        kb: &KnowledgeBase,
        queries: &[S],
        threads: usize,
    ) -> BatchRun {
        let start = Instant::now();
        let denoms_before = (self.denom_cache().hits(), self.denom_cache().misses());
        // One preparation for the whole batch: workers share its
        // fingerprint and theorem-stage analysis.
        let prepared = PreparedKb::new(kb.clone());
        let threads = par::threads(threads).min(queries.len()).max(1);

        let timed = par::map(queries.len(), threads, |i| {
            let t = Instant::now();
            let r = self.answer_prepared(&prepared, queries[i].as_ref());
            (r, t.elapsed())
        });

        // Stage totals in pipeline order, `cache` slot first so the
        // report reads front-to-back like a query does. A custom solver
        // outside this template (e.g. a name introduced by a recursing
        // stage) gets a slot appended on demand.
        let stages = self.solvers();
        let mut totals: Vec<StageTotals> = Vec::with_capacity(stages.len() + 1);
        let cached = self.cache().is_some();
        if cached {
            totals.push(StageTotals {
                stage: "cache".to_string(),
                ..StageTotals::default()
            });
        }
        totals.extend(stages.into_iter().map(|stage| StageTotals {
            stage,
            ..StageTotals::default()
        }));
        let mut cpu = Duration::ZERO;
        let mut results = Vec::with_capacity(timed.len());
        for (r, elapsed) in timed {
            cpu += elapsed;
            StageTotals::absorb_result(&mut totals, &r);
            results.push(r);
        }

        let answered = results.iter().filter(|r| r.is_ok()).count();
        let cache_hits = results
            .iter()
            .filter(|r| matches!(r, Ok(resp) if resp.cached))
            .count();
        // A miss is a query that consulted the cache and then ran the
        // pipeline: computed answers and out-of-reach walks, but not
        // parse errors (those fail before the lookup).
        let cache_misses = if cached {
            results
                .iter()
                .filter(|r| {
                    matches!(r, Ok(resp) if !resp.cached)
                        || matches!(r, Err(EngineError::OutOfReach { .. }))
                })
                .count()
        } else {
            0
        };
        // Stages that never ran (e.g. everything answered by theorems)
        // still appear, zeroed — the report shape is stable per pipeline.
        let report = BatchReport {
            queries: queries.len(),
            answered,
            failed: queries.len() - answered,
            cache_hits,
            cache_misses,
            denom_hits: self.denom_cache().hits().saturating_sub(denoms_before.0),
            denom_misses: self.denom_cache().misses().saturating_sub(denoms_before.1),
            threads,
            wall: start.elapsed(),
            cpu,
            stages: totals,
        };
        BatchRun { results, report }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{AnswerCache, Belief, EngineConfig};
    use std::sync::Arc;

    fn kb() -> KnowledgeBase {
        KnowledgeBase::parse(
            "||Hep(x) | Jaun(x)||_x ~=_1 0.8; Jaun(Eric); \
             ||Over60(x) | Patient(x)||_x ~=_2 0.4; Patient(Eric)",
        )
        .unwrap()
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
        let sequential = engine.answer_batch(&kb, &queries);
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
        let kb = KnowledgeBase::parse("Likes(A, B)").unwrap();
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
}
