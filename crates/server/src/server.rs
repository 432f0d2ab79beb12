//! `rwq serve` — the persistent TCP server: a KB registry, a shared
//! answer cache and a worker pool behind the crate's one readiness
//! event loop.
//!
//! ```text
//!                 ┌────────────────────────────── rw-server ───────────────────────────────┐
//!                 │               event loop (one thread, ppoll)                           │
//!  client A ─TCP─▶│ ┌─────────┐  read → frame → handle_line                                │
//!  client B ─TCP─▶│ │ conns:  │ ─┬─ control ops ──────────────────────▶ answered inline    │
//!  client C ─TCP─▶│ │ nonblk  │  └─ query ─▶ probe: parse, canonicalise, look up           │
//!     ⋮           │ │ sockets │      ├─ hit / parse error ─────────────▶ answered inline   │
//!  client N ─TCP─▶│ │ + state │      └─ miss (+ sleep) ─▶ bounded JobQueue (full: reject)  │
//!                 │ │         │                               │                            │
//!                 │ │         │                               ▼                            │
//!                 │ │         │                          worker pool: finish = pipeline    │
//!                 │ │         │                               │         + cache insert     │
//!                 │ │         │ ◀─ ordered slots ◀─ completions + wake pipe                │
//!                 │ └─────────┘    → write-back                                            │
//!                 └────────────────────────────────────────────────────────────────────────┘
//! ```
//!
//! The connection side — listener, wake pipe, the `ppoll` loop over
//! nonblocking sockets ([`crate::poll`], [`crate::conn::Conn`]),
//! ordered response slots, accept-burst/ceiling/`EMFILE` handling, idle
//! eviction and the graceful drain — lives in the crate-private `front`
//! module, which `rwq shard` ([`crate::shard`]) runs too. Concurrency is
//! bounded by fds (see [`ServerConfig::max_conns`]), not by threads.
//! This module supplies the loop's one hook, `handle_line`, over the KB
//! registry.
//!
//! Requests **pipeline**: a client may stream many lines without
//! waiting, and each is dispatched as it is framed. Cheap control
//! requests (`load`/`unload`/`list`/`stats`/`metrics`/`ping`) are
//! answered inline on the loop thread — they stay responsive even when
//! every worker is busy and the queue is full. So are **cache hits**: a
//! `query` is first probed on the loop ([`LoadedKb::probe`]: parse,
//! canonicalise, look up, no stage run), and a hit or a parse error is
//! answered there and then. Only a miss is admitted to the **bounded**
//! queue, carrying its parsed query ([`rw_core::PendingQuery`]) so a
//! worker runs just the pipeline ([`LoadedKb::finish`]); `sleep` test
//! work is admitted too. `finish` first looks the query's key up once
//! more, uncounted, so a duplicate pipelined behind a miss that has
//! been answered since is answered from the cache. When the queue is
//! full the request is *rejected immediately* with a structured
//! `overloaded` error — backpressure instead of unbounded buffering —
//! so a hit is never refused and a miss may be. Answers flush in request order no matter
//! how workers interleave, so a hit pipelined behind a slow miss waits
//! for it. Inline answers are booked like worker answers: `stats`
//! totals, the access log (`"queue_wait_us":0`) and the slow log.
//!
//! Overload and lifecycle behaviors:
//!
//! - **connection ceiling** ([`ServerConfig::max_conns`]): accepted and
//!   refused with one `overloaded` error line, so clients see a
//!   structured answer instead of hanging in the backlog.
//! - **idle timeout** ([`ServerConfig::idle_timeout_ms`]): connections
//!   with nothing pending in either direction are evicted (counted as
//!   `conns.idle_closed`).
//! - **graceful drain** (`shutdown` op, [`Server::stop`], SIGTERM or
//!   SIGINT): reading stops, in-flight requests complete and flush, new
//!   connections are refused with `shutting-down`, and the loop exits
//!   when every connection has drained (hard deadline: 10s).
//! - **checkpoints** ([`ServerConfig::snapshot_dir`]): a background
//!   thread saves the registry and caches every
//!   [`ServerConfig::snapshot_interval_ms`] until the drain begins; one
//!   final save follows once the workers have joined.
//!
//! Everything is std-only: `std::net` sockets, a direct-syscall `ppoll`
//! ([`crate::poll`]), `std::thread::scope` workers, `Mutex`/`Condvar`
//! queue.

use crate::front::{self, Front, Handled, Handler};
use crate::proto::{self, ErrorCode, ProtoError, Request};
use crate::queue::JobQueue;
use crate::registry::{KbRegistry, LoadedKb};
use rw_core::{AnswerCache, AnswerTally, EngineError, PendingQuery, Probe, Response};
use std::io::Write;
use std::net::SocketAddr;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

pub use crate::front::MAX_LINE;

/// Longest query text the event loop probes itself. Parsing costs about
/// 0.2 µs a byte, so a longer query would stall every connection; it is
/// admitted unparsed and its worker probes it.
const INLINE_QUERY_MAX: usize = 4096;

/// How a [`Server`] is built.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ServerConfig {
    /// Bind address; port 0 picks a free port (see
    /// [`Server::local_addr`]).
    pub addr: String,
    /// Worker threads (`0` = one per available core).
    pub threads: usize,
    /// Shards of the shared [`AnswerCache`].
    pub cache_shards: usize,
    /// Admission-queue capacity: queries beyond this many pending are
    /// rejected with an `overloaded` error.
    pub max_queue: usize,
    /// Open-connection ceiling: connections beyond this are accepted
    /// and refused with one `overloaded` error line.
    pub max_conns: usize,
    /// Evict connections idle (nothing pending in either direction) for
    /// this long, in milliseconds; `0` disables eviction.
    pub idle_timeout_ms: u64,
    /// Honor the `sleep` test op (never set in production; lets tests
    /// occupy workers deterministically to exercise backpressure).
    pub test_ops: bool,
    /// Structured JSONL slow-query log: any request at or over
    /// [`ServerConfig::slow_ms`] appends one line with the query, the KB
    /// fingerprint and the full span tree. `None` disables it.
    pub slow_log: Option<PathBuf>,
    /// Slow-query threshold in milliseconds (`0` logs every request).
    pub slow_ms: u64,
    /// Per-request JSONL access log (`None` disables it). Cheap enough
    /// to leave on: one line per answered query.
    pub access_log: Option<PathBuf>,
    /// Durability directory: the KB registry and cache contents are
    /// checkpointed here (see [`crate::snapshot`]) periodically and on
    /// drain, and reloaded warm on startup. `None` disables snapshots.
    pub snapshot_dir: Option<PathBuf>,
    /// Milliseconds between periodic cache checkpoints while serving
    /// (only meaningful with [`ServerConfig::snapshot_dir`]).
    pub snapshot_interval_ms: u64,
}

impl Default for ServerConfig {
    fn default() -> ServerConfig {
        ServerConfig {
            addr: "127.0.0.1:0".to_string(),
            threads: 0,
            cache_shards: 16,
            max_queue: 1024,
            max_conns: 10_000,
            idle_timeout_ms: 0,
            test_ops: false,
            slow_log: None,
            slow_ms: 100,
            access_log: None,
            snapshot_dir: None,
            snapshot_interval_ms: 5000,
        }
    }
}

// `Sleep` is test-only, so every real job is a `Query` and boxing it
// would add an allocation per miss for nothing.
#[allow(clippy::large_enum_variant)]
enum Work {
    /// A query the event loop's probe missed; the worker runs the
    /// pipeline on it. `None` for a query too long to probe on the loop
    /// ([`INLINE_QUERY_MAX`]): the worker probes it itself.
    Query {
        kb: Arc<LoadedKb>,
        query: String,
        pending: Option<PendingQuery>,
        /// When the event loop began probing: the request span starts
        /// here, and the probe's share of the logged answer time is
        /// measured from it to admission.
        received: Instant,
    },
    Sleep {
        ms: u64,
    },
}

struct Job {
    work: Work,
    /// The connection whose response slot `seq` this job answers.
    conn: u64,
    /// The reserved slot in that connection's ordered response queue.
    seq: u64,
    /// When the job was admitted — the worker reports the pop-side delta
    /// as queue wait.
    enqueued: Instant,
    /// Process-unique id tying this request's span tree, access-log line
    /// and slow-log line together.
    trace_id: u64,
}

/// A bound, resident serving process: KB registry, shared cache, worker
/// pool and admission queue. [`Server::run`] blocks until a `shutdown`
/// request (or [`Server::stop`]) arrives and the graceful drain
/// finishes.
pub struct Server {
    front: Front,
    registry: KbRegistry,
    queue: JobQueue<Job>,
    /// Lifetime answer tallies for `stats`: one slot per worker plus
    /// one, last, for the event loop's inline answers. Each thread locks
    /// only its own uncontended slot; `stats` merges them on demand.
    totals: Vec<Mutex<AnswerTally>>,
    rejected: AtomicU64,
    threads: usize,
    test_ops: bool,
    slow_log: Option<Mutex<std::fs::File>>,
    slow_ms: u64,
    access_log: Option<Mutex<std::fs::File>>,
    snapshot_dir: Option<PathBuf>,
    snapshot_interval_ms: u64,
}

impl Server {
    /// Binds the listener and builds the serving state; no thread runs
    /// until [`Server::run`].
    pub fn bind(config: ServerConfig) -> std::io::Result<Server> {
        let front = Front::bind(&config.addr, config.max_conns, config.idle_timeout_ms)?;
        let threads = match config.threads {
            0 => std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(1),
            n => n,
        };
        let open = |path: &PathBuf| {
            std::fs::OpenOptions::new()
                .create(true)
                .append(true)
                .open(path)
        };
        let slow_log = config
            .slow_log
            .as_ref()
            .map(open)
            .transpose()?
            .map(Mutex::new);
        let access_log = config
            .access_log
            .as_ref()
            .map(open)
            .transpose()?
            .map(Mutex::new);
        Ok(Server {
            front,
            registry: KbRegistry::new(Arc::new(AnswerCache::with_shards(config.cache_shards))),
            queue: JobQueue::new(config.max_queue),
            totals: (0..=threads)
                .map(|_| Mutex::new(AnswerTally::default()))
                .collect(),
            rejected: AtomicU64::new(0),
            threads,
            test_ops: config.test_ops,
            slow_log,
            slow_ms: config.slow_ms,
            access_log,
            snapshot_dir: config.snapshot_dir,
            snapshot_interval_ms: config.snapshot_interval_ms.max(100),
        })
    }

    /// The bound address (the actual port when the config asked for 0).
    pub fn local_addr(&self) -> std::io::Result<SocketAddr> {
        self.front.local_addr()
    }

    /// The KB registry (for preloading before [`Server::run`]).
    pub fn registry(&self) -> &KbRegistry {
        &self.registry
    }

    /// Worker threads the pool will run.
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// The admission-queue capacity.
    pub fn queue_capacity(&self) -> usize {
        self.queue.capacity()
    }

    /// The open-connection ceiling.
    pub fn max_conns(&self) -> usize {
        self.front.max_conns()
    }

    /// The idle-eviction timeout in milliseconds (0 = never evict).
    pub fn idle_timeout_ms(&self) -> u64 {
        self.front.idle_timeout_ms()
    }

    /// Requests shutdown: the event loop drains gracefully (in-flight
    /// requests complete, new accepts are refused) and [`Server::run`]
    /// returns.
    pub fn stop(&self) {
        self.front.stop();
    }

    /// Why the server is draining (or drained), when it is:
    /// `"shutdown"` (the wire op or [`Server::stop`]), `"SIGTERM"`, or
    /// `"SIGINT"`.
    pub fn drain_reason(&self) -> Option<&'static str> {
        self.front.drain_reason()
    }

    /// Restores a snapshot from the configured directory, if any. Call
    /// before [`Server::run`] (and before preloading KBs, so an explicit
    /// preload wins over a snapshotted KB of the same name). `None`
    /// means snapshots are disabled or none exists yet; a structured
    /// error means the snapshot was rejected and the server starts cold.
    pub fn load_snapshot(
        &self,
    ) -> Option<Result<crate::snapshot::SnapshotStats, crate::snapshot::SnapshotError>> {
        let dir = self.snapshot_dir.as_ref()?;
        match crate::snapshot::load(dir, &self.registry) {
            Ok(None) => None,
            Ok(Some(stats)) => Some(Ok(stats)),
            Err(e) => Some(Err(e)),
        }
    }

    /// One checkpoint of the registry + caches, counting the outcome.
    /// Save failures are reported to metrics, never fatal: durability
    /// must not take down serving.
    fn save_snapshot(&self) {
        let Some(dir) = &self.snapshot_dir else {
            return;
        };
        if let Err(e) = crate::snapshot::save(dir, &self.registry) {
            front::count("snapshot.save_errors");
            // Surfacing once per failure on stderr keeps the operator
            // informed without touching the stdout JSONL contract.
            eprintln!(
                "{}",
                crate::json::fatal_line(&format!("snapshot save failed: {e}"))
            );
        }
    }

    /// Periodic checkpoints while serving: one save per
    /// [`ServerConfig::snapshot_interval_ms`] until the drain begins.
    fn snapshot_loop(&self) {
        let interval = Duration::from_millis(self.snapshot_interval_ms);
        while self.front.sleep_unless_stopped(interval) {
            self.save_snapshot();
        }
    }

    /// Serves until shutdown, then drains. Workers, the checkpoint
    /// thread and the event loop all live in one scope, so returning
    /// means everything is joined.
    pub fn run(&self) -> std::io::Result<()> {
        let result = std::thread::scope(|scope| {
            for worker in 0..self.threads {
                scope.spawn(move || self.worker_loop(worker));
            }
            if self.snapshot_dir.is_some() {
                scope.spawn(|| self.snapshot_loop());
            }
            let result = self.front.serve(self);
            // Workers drain everything already admitted, then exit.
            self.queue.close();
            result
        });
        // Final checkpoint after the scope: workers are joined, so every
        // admitted query's cache entry is captured.
        self.save_snapshot();
        result
    }

    fn worker_loop(&self, worker: usize) {
        while let Some(job) = self.queue.pop() {
            let line = match job.work {
                Work::Query {
                    kb,
                    query,
                    pending,
                    received,
                } => {
                    let queue_wait = job.enqueued.elapsed();
                    if rw_obs::enabled() {
                        rw_obs::registry()
                            .histogram("queue.wait_us")
                            .record_us(queue_wait.as_micros() as u64);
                    }
                    // The span tree: request ⊃ {queue-wait, answer ⊃ stage:*}.
                    // The request span is backdated to the probe on the
                    // event loop, so the queue-wait child always nests
                    // inside it; stage spans come from the response trace
                    // after the answer span has closed. Only the slow log
                    // reads spans, so without a slow log none is opened.
                    let recorder = rw_obs::SpanRecorder::new(job.trace_id);
                    let started = Instant::now();
                    let answer = || match pending {
                        Some(pending) => kb.finish(pending),
                        None => kb.answer(&query),
                    };
                    let (result, answer_id) = if self.slow_log.is_none() {
                        (answer(), 0)
                    } else {
                        let request = recorder.span_started_at("request", received);
                        recorder.add(
                            Some(request.id()),
                            "queue-wait",
                            queue_wait.as_micros() as u64,
                            0,
                        );
                        let span = recorder.span("answer");
                        (answer(), span.id())
                    };
                    // Answer time: the probe on the loop plus the pipeline
                    // here, without the wait in between.
                    let probed = job.enqueued.saturating_duration_since(received);
                    let elapsed = probed + started.elapsed();
                    self.record(
                        worker,
                        &kb,
                        &query,
                        &result,
                        queue_wait,
                        elapsed,
                        job.trace_id,
                        || {
                            add_stage_spans(&recorder, answer_id, &result);
                            recorder.finish()
                        },
                    );
                    crate::json::result_line(&query, &result)
                }
                Work::Sleep { ms } => {
                    // Test-only: occupy this worker slot for a bounded time.
                    std::thread::sleep(Duration::from_millis(ms.min(10_000)));
                    r#"{"ok":true,"op":"sleep"}"#.to_string()
                }
            };
            self.front.complete(job.conn, job.seq, line);
        }
    }

    /// A `query` on the event loop: the probe parses, canonicalises and
    /// looks the query up without running a stage. A cache hit or a parse
    /// error is answered inline, so it never waits behind a worker and is
    /// never refused as `overloaded`; only a miss is admitted to the
    /// queue, carrying its parsed query so a worker runs just the
    /// pipeline.
    fn query(&self, kb: Arc<LoadedKb>, query: String, conn: u64, seq: u64) -> Handled {
        let received = Instant::now();
        let pending = if query.len() > INLINE_QUERY_MAX {
            None
        } else {
            match kb.probe(&query) {
                Ok(Probe::Miss(pending)) => Some(pending),
                Ok(Probe::Hit(response)) => {
                    return self.inline(&kb, &query, received, Ok(response))
                }
                Err(e) => return self.inline(&kb, &query, received, Err(e)),
            }
        };
        let work = Work::Query {
            kb,
            query,
            pending,
            received,
        };
        self.admit(work, conn, seq)
    }

    /// Answers a probed query on the event loop, keeping the worker
    /// path's books (stats, stage totals, both logs) in the loop's own
    /// tally slot. The span tree, request ⊃ answer ⊃ stage:cache, is
    /// measured by the probe itself, so it is only built when the slow
    /// log writes it.
    fn inline(
        &self,
        kb: &LoadedKb,
        query: &str,
        received: Instant,
        result: Result<Response, EngineError>,
    ) -> Handled {
        let elapsed = received.elapsed();
        let trace_id = rw_obs::next_trace_id();
        self.record(
            self.threads,
            kb,
            query,
            &result,
            Duration::ZERO,
            elapsed,
            trace_id,
            || {
                let recorder = rw_obs::SpanRecorder::new(trace_id);
                let wall_us = elapsed.as_micros() as u64;
                let request = recorder.add(None, "request", wall_us, 0);
                let answer = recorder.add(Some(request), "answer", wall_us, 0);
                add_stage_spans(&recorder, answer, &result);
                recorder.finish()
            },
        );
        Handled::inline(crate::json::result_line(query, &result))
    }

    /// Admits work to the queue (a full queue is answered immediately
    /// with `overloaded`).
    fn admit(&self, work: Work, conn: u64, seq: u64) -> Handled {
        let job = Job {
            work,
            conn,
            seq,
            enqueued: Instant::now(),
            trace_id: rw_obs::next_trace_id(),
        };
        front::admit(&self.queue, job, &self.rejected)
    }

    /// Books one answered query in tally slot `slot` (`stats` and the
    /// stage totals), then writes the per-request access-log line and —
    /// at or over the slow threshold — the slow-query line with the span
    /// tree `spans` builds. `trace_id` ties the two log lines together.
    /// Logging happens after the response line is already determined, so
    /// it can never change answer bytes.
    #[allow(clippy::too_many_arguments)]
    fn record(
        &self,
        slot: usize,
        kb: &LoadedKb,
        query: &str,
        result: &Result<Response, EngineError>,
        queue_wait: Duration,
        elapsed: Duration,
        trace_id: u64,
        spans: impl FnOnce() -> Vec<rw_obs::SpanRecord>,
    ) {
        self.totals[slot]
            .lock()
            .expect("totals lock poisoned")
            .absorb(result);
        if self.access_log.is_none() && self.slow_log.is_none() {
            return;
        }
        let ok = result.is_ok();
        let cache_hit = matches!(result, Ok(r) if r.cached);
        if let Some(file) = &self.access_log {
            let line = format!(
                r#"{{"ts_us":{},"trace_id":{},"kb":"{}","query":"{}","ok":{},"cache_hit":{},"queue_wait_us":{},"elapsed_us":{}}}"#,
                Self::unix_micros(),
                trace_id,
                crate::json::escape(&kb.name),
                crate::json::escape(query),
                ok,
                cache_hit,
                queue_wait.as_micros(),
                elapsed.as_micros(),
            );
            Self::append(file, &line);
        }
        if let Some(file) = &self.slow_log {
            if elapsed >= Duration::from_millis(self.slow_ms) {
                let spans = spans();
                let line = format!(
                    r#"{{"ts_us":{},"trace_id":{},"kb":"{}","fingerprint":"{:016x}","query":"{}","ok":{},"elapsed_us":{},"spans":{}}}"#,
                    Self::unix_micros(),
                    trace_id,
                    crate::json::escape(&kb.name),
                    kb.kb.fingerprint(),
                    crate::json::escape(query),
                    ok,
                    elapsed.as_micros(),
                    rw_obs::spans_json(&spans),
                );
                Self::append(file, &line);
            }
        }
    }

    /// One appended JSONL line; a failed write is dropped silently (the
    /// serving path must never fail because a log disk filled up).
    fn append(file: &Mutex<std::fs::File>, line: &str) {
        let mut file = file.lock().expect("log file lock poisoned");
        let _ = writeln!(file, "{line}");
    }

    /// Wall-clock microseconds since the Unix epoch (log timestamps).
    fn unix_micros() -> u128 {
        std::time::SystemTime::now()
            .duration_since(std::time::UNIX_EPOCH)
            .map(|d| d.as_micros())
            .unwrap_or(0)
    }

    fn unknown_kb(name: &str) -> ProtoError {
        ProtoError {
            code: ErrorCode::UnknownKb,
            message: format!("no KB named `{name}` is loaded (use the `load` op)"),
        }
    }

    fn stats_json(&self) -> String {
        let cache = self.registry.cache();
        // Merge the per-worker shards (cold path: only `stats` pays).
        let mut merged = AnswerTally::default();
        for slot in &self.totals {
            merged.merge(&slot.lock().expect("totals lock poisoned"));
        }
        let denoms = self.registry.denoms();
        let draws = self.registry.draws();
        format!(
            r#"{{"ok":true,"op":"stats","uptime_us":{},"kbs":{},"queries":{{"answered":{},"failed":{},"rejected":{}}},"cache":{{"hits":{},"misses":{},"entries":{},"shards":{}}},"denoms":{{"hits":{},"misses":{},"entries":{}}},"draws":{{"hits":{},"misses":{},"entries":{},"bytes":{},"evictions":{}}},"queue":{{"depth":{},"capacity":{},"workers":{}}},"stages":[{}]}}"#,
            self.front.uptime_us(),
            self.registry.len(),
            merged.answered,
            merged.failed,
            self.rejected.load(Ordering::Relaxed),
            cache.hits(),
            cache.misses(),
            cache.len(),
            cache.shard_count(),
            denoms.hits(),
            denoms.misses(),
            denoms.len(),
            draws.hits(),
            draws.misses(),
            draws.len(),
            draws.bytes(),
            draws.evictions(),
            self.queue.depth(),
            self.queue.capacity(),
            self.threads,
            crate::json::stage_totals_json(&merged.stages),
        )
    }
}

/// Adds one `stage:<name>` span per step of the answer's trace under
/// span `answer`.
fn add_stage_spans(
    recorder: &rw_obs::SpanRecorder,
    answer: usize,
    result: &Result<Response, EngineError>,
) {
    if let Ok(response) = result {
        for step in response.trace.steps() {
            recorder.add(
                Some(answer),
                &format!("stage:{}", step.stage),
                step.elapsed.as_micros() as u64,
                0,
            );
        }
    }
}

impl Handler for Server {
    /// Answers one request line: control ops and probed cache hits
    /// inline, misses and `sleep` through the admission queue into slot
    /// `seq` of connection `conn`.
    fn handle_line(&self, line: &str, conn: u64, seq: u64) -> Handled {
        let request = match proto::parse_request(line) {
            Ok(r) => r,
            Err(e) => return Handled::inline(e.line()),
        };
        match request {
            Request::Ping => Handled::inline(r#"{"ok":true,"op":"ping"}"#.to_string()),
            Request::List => Handled::inline(self.registry.list_json()),
            Request::Stats => Handled::inline(self.stats_json()),
            Request::Metrics => Handled::inline(self.front.metrics_json(self.queue.depth())),
            Request::Shutdown => {
                self.stop();
                Handled::Inline {
                    line: r#"{"ok":true,"op":"shutdown"}"#.to_string(),
                    shutdown: true,
                }
            }
            Request::Unload { kb } => {
                if self.registry.unload(&kb) {
                    Handled::inline(format!(
                        r#"{{"ok":true,"op":"unload","kb":"{}"}}"#,
                        crate::json::escape(&kb)
                    ))
                } else {
                    Handled::inline(Self::unknown_kb(&kb).line())
                }
            }
            Request::Load {
                kb,
                source,
                approx,
                scan,
            } => match self.registry.load(&kb, &source, approx.as_ref(), scan) {
                Ok(loaded) => Handled::inline(format!(
                    r#"{{"ok":true,"op":"load","kb":"{}","fingerprint":"{:016x}","statements":{},"approx":{}}}"#,
                    crate::json::escape(&kb),
                    loaded.kb.fingerprint(),
                    loaded.kb.conjuncts().len(),
                    loaded.approx
                )),
                Err(e) => Handled::inline(e.line()),
            },
            Request::Query { kb, query } => {
                let Some(loaded) = self.registry.get(&kb) else {
                    return Handled::inline(Self::unknown_kb(&kb).line());
                };
                self.query(loaded, query, conn, seq)
            }
            Request::Sleep { ms } => {
                if !self.test_ops {
                    return Handled::inline(
                        ProtoError::bad_request("`sleep` is a test-only op").line(),
                    );
                }
                self.admit(Work::Sleep { ms }, conn, seq)
            }
        }
    }
}
