//! Variant-matrix expansion and trial execution.
//!
//! A *trial* is one (task, engine, threads, cache) cell: a fresh engine
//! configured for the variant answers the task's query against its KB.
//! Trials share nothing — each gets its own [`AnswerCache`] when the
//! cache dimension is on — so rows are a pure function of the task and
//! variant (plus the run seed for Monte-Carlo), which is what makes the
//! determinism and shuffle-invariance gates meaningful.

use crate::workload::{Task, Workload};
use rw_core::{
    AnswerCache, ApproxParams, Belief, Counter, EngineConfig, PreparedKb, RandomWorlds, Response,
    ScanParams,
};
use rw_server::json::{belief_json, counters_json, escape};
use std::fmt::Write as _;
use std::sync::Arc;
use std::time::Instant;

/// The engine axis of the variant matrix.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Engine {
    /// Compiled branch-and-count exact cascade (the default engine).
    Compiled,
    /// Naive odometer-enumeration exact cascade (`Counter::Oracle`).
    Oracle,
    /// Symmetry-reduced orbit counting (`Counter::Orbits`).
    Symmetry,
    /// Monte-Carlo approximate inference after the theorem stage.
    MonteCarlo,
    /// Theorems + maximum-entropy τ-sweep only (no counting fallback);
    /// declines — recorded as a failed trial — where neither applies.
    MaxEnt,
}

/// Every engine keyword, in canonical order.
pub const ALL_ENGINES: [Engine; 5] = [
    Engine::Compiled,
    Engine::Oracle,
    Engine::Symmetry,
    Engine::MonteCarlo,
    Engine::MaxEnt,
];

impl Engine {
    /// The stable keyword used in rows, flags and gate specs.
    pub fn keyword(&self) -> &'static str {
        match self {
            Engine::Compiled => "compiled",
            Engine::Oracle => "oracle",
            Engine::Symmetry => "symmetry",
            Engine::MonteCarlo => "montecarlo",
            Engine::MaxEnt => "maxent",
        }
    }

    /// Parses a keyword back into an engine.
    pub fn parse(s: &str) -> Option<Engine> {
        ALL_ENGINES.iter().copied().find(|e| e.keyword() == s)
    }

    /// Whether the engine's answers are exact (bit-equality is owed
    /// between any two exact engines on the same task).
    pub fn is_exact(&self) -> bool {
        matches!(self, Engine::Compiled | Engine::Oracle | Engine::Symmetry)
    }
}

/// The variant matrix and run parameters.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct RunConfig {
    /// Engines to run, in order.
    pub engines: Vec<Engine>,
    /// Thread counts to run each engine under.
    pub threads: Vec<usize>,
    /// Cache settings to run (false = no cache, true = per-trial
    /// [`AnswerCache`] with a replay to verify the hit).
    pub cache: Vec<bool>,
    /// Root seed for Monte-Carlo trials.
    pub seed: u64,
}

impl Default for RunConfig {
    fn default() -> RunConfig {
        RunConfig {
            engines: vec![Engine::Compiled, Engine::Oracle, Engine::MonteCarlo],
            threads: vec![1],
            cache: vec![false, true],
            seed: 42,
        }
    }
}

/// One trial's outcome, renderable as a JSONL row.
#[derive(Clone, Debug)]
pub struct TrialRow {
    /// The task id.
    pub task: String,
    /// The engine axis value.
    pub engine: Engine,
    /// The threads axis value.
    pub threads: usize,
    /// The cache axis value.
    pub cache: bool,
    /// Whether the trial produced a belief.
    pub ok: bool,
    /// The belief, when `ok`.
    pub belief: Option<Belief>,
    /// The provenance rendering, when `ok`.
    pub provenance: Option<String>,
    /// The `,"mc":{…}` / `,"enum":{…}` effort-counter fragment, possibly
    /// empty; rendered into the row as a `"counters":{…}` object.
    pub counters: String,
    /// With the cache on: the replayed query hit the cache and returned
    /// the identical belief. Always false with the cache off.
    pub cache_hit: bool,
    /// Wall time of the (cold) answer, microseconds.
    pub elapsed_us: u128,
    /// The failure, when `!ok`.
    pub error: Option<String>,
}

impl TrialRow {
    fn render_with(&self, threads: Option<usize>, elapsed_us: u128) -> String {
        let mut out = format!(
            r#"{{"task":"{}","engine":"{}""#,
            escape(&self.task),
            self.engine.keyword()
        );
        if let Some(t) = threads {
            let _ = write!(out, r#","threads":{t}"#);
        }
        let _ = write!(
            out,
            r#","cache":{},"ok":{},"cache_hit":{},"elapsed_us":{elapsed_us}"#,
            self.cache, self.ok, self.cache_hit
        );
        match (&self.belief, &self.provenance) {
            (Some(b), Some(p)) => {
                let _ = write!(
                    out,
                    r#","belief":{},"provenance":"{}""#,
                    belief_json(b),
                    escape(p),
                );
                // The fragment is `,"mc":{…}` / `,"enum":{…}`; rewrap it
                // as a named object so row consumers address one key.
                if !self.counters.is_empty() {
                    let _ = write!(out, r#","counters":{{{}}}"#, &self.counters[1..]);
                }
            }
            _ => {
                let _ = write!(
                    out,
                    r#","error":"{}""#,
                    escape(self.error.as_deref().unwrap_or("unknown"))
                );
            }
        }
        out.push('}');
        out
    }

    /// The full JSONL row (no trailing newline).
    pub fn render(&self) -> String {
        self.render_with(Some(self.threads), self.elapsed_us)
    }

    /// The row with its two legitimately variant-dependent fields
    /// removed: wall time zeroed and the `threads` field dropped. Two
    /// trials of the same (task, engine, cache) cell at different thread
    /// counts must produce byte-identical identities — counting and
    /// sampling are thread-count deterministic.
    pub fn identity(&self) -> String {
        self.render_with(None, 0)
    }
}

/// Builds the engine for one variant cell over one task.
fn build_engine(engine: Engine, threads: usize, task: &Task, seed: u64) -> RandomWorlds {
    let approx = (engine == Engine::MonteCarlo).then(|| ApproxParams {
        seed: Some(seed),
        ..ApproxParams::default()
    });
    let scan = ScanParams {
        symmetry: engine == Engine::Symmetry,
        min_n: task.min_n,
        max_n: task.max_n,
    };
    let mut config = EngineConfig::with_options(approx.as_ref(), scan, threads);
    if engine == Engine::Oracle {
        config.enum_counter = Counter::Oracle;
    }
    let rw = RandomWorlds::from(config);
    if engine != Engine::MaxEnt {
        return rw;
    }
    let mut stages = rw.default_stages();
    stages.retain(|s| matches!(s.solver.name(), "theorems" | "maxent"));
    rw.with_solvers(stages)
}

fn success(task: &Task, engine: Engine, threads: usize, cache: bool, r: &Response) -> TrialRow {
    TrialRow {
        task: task.id.clone(),
        engine,
        threads,
        cache,
        ok: true,
        belief: Some(r.belief.clone()),
        provenance: Some(r.provenance.to_string()),
        counters: counters_json(&r.provenance),
        cache_hit: false,
        elapsed_us: 0,
        error: None,
    }
}

fn failure(task: &Task, engine: Engine, threads: usize, cache: bool, error: String) -> TrialRow {
    TrialRow {
        task: task.id.clone(),
        engine,
        threads,
        cache,
        ok: false,
        belief: None,
        provenance: None,
        counters: String::new(),
        cache_hit: false,
        elapsed_us: 0,
        error: Some(error),
    }
}

/// Runs one trial: a fresh variant engine over the task's KB, which is
/// prepared once per task and shared by all of its trials.
fn run_trial(
    kb: &PreparedKb,
    task: &Task,
    engine: Engine,
    threads: usize,
    cache: bool,
    seed: u64,
) -> TrialRow {
    let mut rw = build_engine(engine, threads, task, seed);
    if cache {
        rw = rw.with_cache(Arc::new(AnswerCache::new()));
    }
    let started = Instant::now();
    let cold = rw.answer_prepared(kb, &task.query);
    let elapsed_us = started.elapsed().as_micros();
    let mut row = match cold {
        Ok(r) => success(task, engine, threads, cache, &r),
        Err(e) => failure(task, engine, threads, cache, e.to_string()),
    };
    row.elapsed_us = elapsed_us;
    if cache && row.ok {
        // Replay the query through the same engine: the canonical-query
        // cache must hit and must return the identical belief (the PR-4
        // fingerprinting contract, armored on every cached trial).
        match rw.answer_prepared(kb, &task.query) {
            Ok(warm) if !warm.cached => {
                return failure(
                    task,
                    engine,
                    threads,
                    cache,
                    "cache replay missed".to_string(),
                );
            }
            Ok(warm) => {
                let cold_json = belief_json(row.belief.as_ref().unwrap());
                let warm_json = belief_json(&warm.belief);
                if cold_json != warm_json {
                    return failure(
                        task,
                        engine,
                        threads,
                        cache,
                        format!(
                            "cache replay returned a different belief: {warm_json} != {cold_json}"
                        ),
                    );
                }
                row.cache_hit = true;
            }
            Err(e) => {
                return failure(
                    task,
                    engine,
                    threads,
                    cache,
                    format!("cache replay failed: {e}"),
                );
            }
        }
    }
    row
}

/// Runs the full variant matrix over every task, in deterministic order:
/// tasks in file order, then engines, threads and cache settings in
/// config order. A KB that fails to load produces one failed row per
/// variant cell rather than aborting the run.
pub fn run(workload: &Workload, cfg: &RunConfig) -> Vec<TrialRow> {
    let mut rows = Vec::new();
    for task in &workload.tasks {
        let kb = rw_server::format::parse_kb(&task.kb_source).map(PreparedKb::new);
        for &engine in &cfg.engines {
            for &threads in &cfg.threads {
                for &cache in &cfg.cache {
                    let row = match &kb {
                        Ok(kb) => run_trial(kb, task, engine, threads, cache, cfg.seed),
                        Err(e) => failure(task, engine, threads, cache, format!("kb: {e}")),
                    };
                    rows.push(row);
                }
            }
        }
    }
    rows
}

#[cfg(test)]
mod tests {
    use super::*;

    fn demo_workload() -> Workload {
        Workload::parse(
            "{\"task\":\"hep\",\"kb\":\"||Hep(x) | Jaun(x)||_x ~=_1 0.8; Jaun(Eric)\",\"query\":\"Hep(Eric)\",\"expect\":0.8}\n",
            None,
        )
        .unwrap()
    }

    #[test]
    fn trials_cover_the_variant_matrix_in_order() {
        let cfg = RunConfig {
            engines: vec![Engine::Compiled, Engine::Oracle],
            threads: vec![1, 2],
            cache: vec![false, true],
            seed: 42,
        };
        let rows = run(&demo_workload(), &cfg);
        assert_eq!(rows.len(), 8);
        assert_eq!(rows[0].engine, Engine::Compiled);
        // Theorem answers carry no effort counters; the counters object
        // appears only when the provenance has them.
        assert!(!rows[0].render().contains(r#""counters""#));
        assert_eq!((rows[0].threads, rows[0].cache), (1, false));
        assert_eq!((rows[1].threads, rows[1].cache), (1, true));
        assert_eq!(rows[7].engine, Engine::Oracle);
        assert!(rows.iter().all(|r| r.ok), "all trials answer");
    }

    #[test]
    fn cached_trials_verify_the_replay() {
        let cfg = RunConfig {
            engines: vec![Engine::Compiled],
            threads: vec![1],
            cache: vec![true],
            seed: 42,
        };
        let rows = run(&demo_workload(), &cfg);
        assert_eq!(rows.len(), 1);
        assert!(rows[0].ok);
        assert!(rows[0].cache_hit, "replay must hit the cache");
    }

    #[test]
    fn identities_drop_threads_and_time() {
        let cfg = RunConfig {
            engines: vec![Engine::Compiled],
            threads: vec![1, 2],
            cache: vec![false],
            seed: 42,
        };
        let rows = run(&demo_workload(), &cfg);
        assert_eq!(rows.len(), 2);
        assert_eq!(rows[0].identity(), rows[1].identity());
        assert!(rows[0].render().contains("\"threads\":1"));
        assert!(!rows[0].identity().contains("threads"));
    }

    #[test]
    fn counting_rows_render_a_counters_object() {
        // A binary-predicate query outside every theorem pattern falls to
        // the enumeration stage, whose search effort must surface as a
        // named `counters` object (the window is pinned tiny so the scan
        // stays fast even in debug builds).
        let w = Workload::parse(
            "{\"task\":\"likes\",\"kb\":\"Likes(A, B)\",\"query\":\"Likes(B, A)\",\"min_n\":2,\"max_n\":4}\n",
            None,
        )
        .unwrap();
        let cfg = RunConfig {
            engines: vec![Engine::Compiled],
            threads: vec![1],
            cache: vec![false],
            seed: 42,
        };
        let rows = run(&w, &cfg);
        assert_eq!(rows.len(), 1);
        assert!(rows[0].ok, "{:?}", rows[0].error);
        let line = rows[0].render();
        assert!(
            line.contains(r#""counters":{"enum":{"max_n":4,"visited":"#),
            "{line}"
        );
    }

    #[test]
    fn engine_keywords_round_trip() {
        for e in ALL_ENGINES {
            assert_eq!(Engine::parse(e.keyword()), Some(e));
        }
        assert_eq!(Engine::parse("warp-drive"), None);
    }

    #[test]
    fn broken_kbs_fail_every_cell_without_aborting() {
        let w = Workload::parse(
            "{\"task\":\"bad\",\"kb\":\"||broken\",\"query\":\"P(C)\"}\n\
             {\"task\":\"good\",\"kb\":\"P(C)\",\"query\":\"P(C)\"}\n",
            None,
        )
        .unwrap();
        let cfg = RunConfig {
            engines: vec![Engine::Compiled],
            threads: vec![1],
            cache: vec![false],
            seed: 42,
        };
        let rows = run(&w, &cfg);
        assert_eq!(rows.len(), 2);
        assert!(!rows[0].ok);
        assert!(rows[0].error.as_deref().unwrap().starts_with("kb:"));
        assert!(rows[1].ok);
    }

    #[test]
    fn maxent_engine_runs_without_counting_stages() {
        let task = demo_workload().tasks[0].clone();
        let rw = build_engine(Engine::MaxEnt, 1, &task, 42);
        assert_eq!(rw.solvers(), vec!["theorems", "maxent"]);
    }
}
