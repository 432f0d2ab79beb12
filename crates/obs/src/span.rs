//! Lightweight hierarchical spans with per-query trace ids.
//!
//! A [`SpanRecorder`] collects one request's spans: guard spans
//! ([`SpanRecorder::span`]) time a scope automatically (wall clock plus
//! best-effort thread CPU time) and nest through an internal stack,
//! while [`SpanRecorder::add`] records already-measured intervals (a
//! queue wait, a solver stage replayed from its trace) under an explicit
//! parent. [`SpanRecorder::finish`] yields the flat parent-linked list
//! that the server's slow-query log serializes and `rwq obs` aggregates
//! back into a self/total flamegraph table.
//!
//! Trace ids come from a process-global counter: unique within a server
//! process, cheap, and embedded in both the access log and the slow log
//! so the two can be joined.

use std::cell::RefCell;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

static NEXT_TRACE_ID: AtomicU64 = AtomicU64::new(1);

/// A fresh process-unique trace id.
pub fn next_trace_id() -> u64 {
    NEXT_TRACE_ID.fetch_add(1, Ordering::Relaxed)
}

/// Best-effort CPU time of the calling thread, in microseconds.
///
/// `clock_gettime(CLOCK_THREAD_CPUTIME_ID)` through a direct syscall on
/// Linux x86_64 and aarch64 (the workspace has no `libc`; a syscall
/// costs well under a microsecond, where reading procfs cost about
/// 12 µs); 0 elsewhere or on failure, so span `cpu_us` fields degrade to
/// zero rather than lying.
pub fn thread_cpu_us() -> u64 {
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    if sys_clock_gettime(CLOCK_THREAD_CPUTIME_ID, &mut ts) != 0 {
        return 0;
    }
    (ts.tv_sec as u64) * 1_000_000 + (ts.tv_nsec as u64) / 1_000
}

/// The clock of the calling thread's CPU time.
const CLOCK_THREAD_CPUTIME_ID: usize = 3;

/// The kernel's `struct timespec`.
#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

/// Raw `clock_gettime`: 0 on success, `-errno` on failure.
#[cfg(all(target_os = "linux", target_arch = "x86_64"))]
fn sys_clock_gettime(clock: usize, ts: &mut Timespec) -> isize {
    const SYS_CLOCK_GETTIME: usize = 228;
    let ret: isize;
    // SAFETY: `clock_gettime(clock, ts)` writes one `struct timespec`
    // through `ts`, which is a valid, exclusive `&mut Timespec`. rcx/r11
    // are clobbered by the `syscall` instruction itself.
    unsafe {
        core::arch::asm!(
            "syscall",
            inlateout("rax") SYS_CLOCK_GETTIME as isize => ret,
            in("rdi") clock,
            in("rsi") ts as *mut Timespec,
            lateout("rcx") _,
            lateout("r11") _,
            options(nostack),
        );
    }
    ret
}

/// Raw `clock_gettime`: 0 on success, `-errno` on failure.
#[cfg(all(target_os = "linux", target_arch = "aarch64"))]
fn sys_clock_gettime(clock: usize, ts: &mut Timespec) -> isize {
    const SYS_CLOCK_GETTIME: usize = 113;
    let ret: isize;
    // SAFETY: as in the x86_64 variant; aarch64 passes the syscall
    // number in x8 and arguments in x0..x1.
    unsafe {
        core::arch::asm!(
            "svc 0",
            in("x8") SYS_CLOCK_GETTIME,
            inlateout("x0") clock as isize => ret,
            in("x1") ts as *mut Timespec,
            options(nostack),
        );
    }
    ret
}

/// No thread CPU clock on other targets.
#[cfg(not(all(
    target_os = "linux",
    any(target_arch = "x86_64", target_arch = "aarch64")
)))]
fn sys_clock_gettime(_clock: usize, _ts: &mut Timespec) -> isize {
    -1
}

/// One finished span: a node in the request's span tree.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SpanRecord {
    /// 1-based id, unique within the recorder.
    pub id: usize,
    /// Parent span id, `None` for roots.
    pub parent: Option<usize>,
    /// The span name (e.g. `request`, `answer`, `stage:maxent`).
    pub name: String,
    /// Wall-clock duration (µs).
    pub wall_us: u64,
    /// Thread CPU time consumed inside the span (µs; 0 when
    /// unavailable or externally measured).
    pub cpu_us: u64,
}

struct Inner {
    spans: Vec<SpanRecord>,
    stack: Vec<usize>,
}

/// A per-request span collector. Single-threaded by design (one request
/// is handled by one worker); interior mutability keeps guard spans
/// nestable without threading `&mut` through the handler.
pub struct SpanRecorder {
    trace_id: u64,
    inner: RefCell<Inner>,
}

impl SpanRecorder {
    /// A recorder for one request.
    pub fn new(trace_id: u64) -> SpanRecorder {
        SpanRecorder {
            trace_id,
            inner: RefCell::new(Inner {
                spans: Vec::new(),
                stack: Vec::new(),
            }),
        }
    }

    /// The request's trace id.
    pub fn trace_id(&self) -> u64 {
        self.trace_id
    }

    /// Opens a guard span named `name`, parented to the innermost open
    /// guard span. Wall and CPU time are measured from now until the
    /// guard drops.
    pub fn span(&self, name: &str) -> SpanGuard<'_> {
        self.span_started_at(name, Instant::now())
    }

    /// Opens a guard span whose wall clock started at `start` — for work
    /// that logically began before this thread picked it up, like a
    /// server request that waited in the admission queue: the worker
    /// opens the `request` span backdated to enqueue time, so a
    /// `queue-wait` child can never outlast its parent. CPU time is
    /// still measured from now; only this thread's on-CPU share belongs
    /// to the span.
    pub fn span_started_at(&self, name: &str, start: Instant) -> SpanGuard<'_> {
        let mut inner = self.inner.borrow_mut();
        let id = inner.spans.len() + 1;
        let parent = inner.stack.last().copied();
        inner.spans.push(SpanRecord {
            id,
            parent,
            name: name.to_string(),
            wall_us: 0,
            cpu_us: 0,
        });
        inner.stack.push(id);
        SpanGuard {
            recorder: self,
            id,
            start,
            cpu_start: thread_cpu_us(),
        }
    }

    /// Records an already-measured span under an explicit parent and
    /// returns its id.
    pub fn add(&self, parent: Option<usize>, name: &str, wall_us: u64, cpu_us: u64) -> usize {
        let mut inner = self.inner.borrow_mut();
        let id = inner.spans.len() + 1;
        inner.spans.push(SpanRecord {
            id,
            parent,
            name: name.to_string(),
            wall_us,
            cpu_us,
        });
        id
    }

    /// Consumes the recorder, returning every span in id order. Any
    /// still-open guard must have been dropped first (guards borrow the
    /// recorder, so the borrow checker enforces this).
    pub fn finish(self) -> Vec<SpanRecord> {
        self.inner.into_inner().spans
    }
}

/// Closes its span on drop, filling in measured wall/CPU time.
pub struct SpanGuard<'a> {
    recorder: &'a SpanRecorder,
    id: usize,
    start: Instant,
    cpu_start: u64,
}

impl SpanGuard<'_> {
    /// The underlying span id (for parenting manual [`SpanRecorder::add`]
    /// entries under this span after it closes).
    pub fn id(&self) -> usize {
        self.id
    }
}

impl Drop for SpanGuard<'_> {
    fn drop(&mut self) {
        let wall_us = self.start.elapsed().as_micros() as u64;
        let cpu_us = thread_cpu_us().saturating_sub(self.cpu_start);
        let mut inner = self.recorder.inner.borrow_mut();
        if let Some(span) = inner.spans.get_mut(self.id - 1) {
            span.wall_us = wall_us;
            span.cpu_us = cpu_us;
        }
        // Pop this span (and defensively anything opened after it that
        // somehow outlived it) off the open stack.
        while let Some(top) = inner.stack.pop() {
            if top == self.id {
                break;
            }
        }
    }
}

/// Serializes spans as a JSON array:
/// `[{"id":1,"parent":null,"name":"request","wall_us":N,"cpu_us":N},..]`.
pub fn spans_json(spans: &[SpanRecord]) -> String {
    let body: Vec<String> = spans
        .iter()
        .map(|s| {
            format!(
                r#"{{"id":{},"parent":{},"name":"{}","wall_us":{},"cpu_us":{}}}"#,
                s.id,
                s.parent
                    .map(|p| p.to_string())
                    .unwrap_or_else(|| "null".to_string()),
                crate::escape(&s.name),
                s.wall_us,
                s.cpu_us
            )
        })
        .collect();
    format!("[{}]", body.join(","))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn thread_cpu_time_grows_across_a_busy_spin_and_never_decreases() {
        let start = thread_cpu_us();
        let mut last = start;
        let mut x = 0u64;
        // Spin until the clock has moved 2 ms, checking it never steps
        // back (bounded by wall time, so a target without the clock
        // fails instead of hanging).
        let deadline = Instant::now() + std::time::Duration::from_secs(10);
        while last < start + 2_000 && Instant::now() < deadline {
            for i in 0..10_000u64 {
                x = std::hint::black_box(x.wrapping_mul(31).wrapping_add(i));
            }
            let now = thread_cpu_us();
            assert!(now >= last, "thread CPU time went back: {last} → {now}");
            last = now;
        }
        assert!(start > 0, "no thread CPU clock");
        assert!(
            last >= start + 2_000,
            "{start} → {last} µs after a busy spin"
        );
    }

    #[test]
    fn trace_ids_are_unique_and_increasing() {
        let a = next_trace_id();
        let b = next_trace_id();
        assert!(b > a);
    }

    #[test]
    fn guards_nest_and_manual_adds_attach_anywhere() {
        let rec = SpanRecorder::new(7);
        assert_eq!(rec.trace_id(), 7);
        let answer_id;
        {
            let req = rec.span("request");
            rec.add(Some(req.id()), "queue-wait", 120, 0);
            {
                let ans = rec.span("answer");
                answer_id = ans.id();
                std::thread::sleep(std::time::Duration::from_millis(2));
            }
            rec.add(Some(answer_id), "stage:theorems", 9, 0);
        }
        let spans = rec.finish();
        assert_eq!(spans.len(), 4);
        let req = &spans[0];
        assert_eq!(
            (req.id, req.parent, req.name.as_str()),
            (1, None, "request")
        );
        let wait = &spans[1];
        assert_eq!((wait.parent, wait.wall_us), (Some(1), 120));
        let ans = &spans[2];
        assert_eq!((ans.id, ans.parent), (answer_id, Some(1)));
        assert!(ans.wall_us >= 2_000, "guard measured {}µs", ans.wall_us);
        assert!(req.wall_us >= ans.wall_us, "parent covers child");
        let stage = &spans[3];
        assert_eq!(stage.parent, Some(answer_id));
    }

    #[test]
    fn backdated_spans_always_cover_their_queue_wait_child() {
        // The serving-path span tree: the request span opens backdated
        // to enqueue time, so the manually-added queue-wait child fits
        // inside it (the PR-8 gotcha was wait > parent wall).
        let rec = SpanRecorder::new(9);
        let enqueued = Instant::now();
        std::thread::sleep(std::time::Duration::from_millis(20));
        let wait_us = enqueued.elapsed().as_micros() as u64;
        {
            let request = rec.span_started_at("request", enqueued);
            rec.add(Some(request.id()), "queue-wait", wait_us, 0);
        }
        let spans = rec.finish();
        let request = &spans[0];
        let wait = &spans[1];
        assert_eq!(wait.parent, Some(request.id));
        assert!(
            request.wall_us >= wait.wall_us,
            "request {}µs < queue-wait {}µs",
            request.wall_us,
            wait.wall_us
        );
        assert!(request.wall_us >= 20_000, "{}", request.wall_us);
    }

    #[test]
    fn spans_serialize_with_null_parent_and_us_fields() {
        let rec = SpanRecorder::new(1);
        let root = rec.add(None, "request", 50, 10);
        rec.add(Some(root), "answer", 40, 9);
        let json = spans_json(&rec.finish());
        assert!(
            json.starts_with(
                r#"[{"id":1,"parent":null,"name":"request","wall_us":50,"cpu_us":10}"#
            ),
            "{json}"
        );
        assert!(json.contains(r#""parent":1,"name":"answer""#), "{json}");
    }
}
