//! The readiness event loop shared by `rwq serve`
//! ([`crate::server::Server`]) and `rwq shard` ([`crate::shard::Shard`]).
//!
//! ```text
//!                 ┌──────────────────────── Front::serve (one thread) ────────────────────────┐
//!  client A ─TCP─▶│ ┌─────────┐  read → frame → Handler::handle_line ─┬─ Inline: fill slot  │
//!  client B ─TCP─▶│ │ conns:  │                  (control ops, serve's └─ Queued: caller's   │
//!     ⋮           │ │ nonblk  │                   cache hits)             JobQueue + workers │
//!  client N ─TCP─▶│ │ sockets │ ◀─ ordered slots ◀─ Front::complete ◀─ (any thread)         │
//!                 │ └─────────┘    → write-back      + wake byte when                       │
//!                 │                                    the list was empty                   │
//!                 └───────────────────────────────────────────────────────────────────────────┘
//! ```
//!
//! A [`Front`] owns everything that is about connections rather than
//! about answers: the listener, the wake pipe, the stop flag and drain
//! reason, and the `ppoll` loop itself. The loop knows nothing of KBs or
//! backends — each framed request line goes to one hook,
//! [`Handler::handle_line`], which either answers inline or admits the
//! request to the caller's own worker queue; workers hand answers back
//! through [`Front::complete`]. `rwq serve` answers cache hits inline
//! too, so only misses reach its workers. Per-connection response slots
//! ([`crate::conn::Conn`]) flush answers in request order however the
//! workers interleave, so an inline answer behind a queued one waits
//! for it. A completion writes a wake byte only when it finds the
//! completion list empty; the loop drains the pipe before it takes the
//! list, which is what makes one byte per batch enough.
//!
//! Overload and lifecycle behaviors, all on the loop thread:
//!
//! - **fd exhaustion** (`EMFILE`/`ENFILE` from `accept`): shed the
//!   oldest idle connection and retry, or — with none to shed — pause
//!   accepting with exponential backoff. Counted as `accept.errors`.
//! - **connection ceiling**: connections past `max_conns` are accepted
//!   and refused with one `overloaded` error line (`conns.refused`).
//! - **idle timeout** (when given one): connections with nothing
//!   pending in either direction are evicted (`conns.idle_closed`).
//! - **graceful drain** (`shutdown` op, [`Front::stop`], SIGTERM or
//!   SIGINT): reading stops, in-flight requests complete and flush, new
//!   connections are refused with `shutting-down`, and the loop exits
//!   when every connection has drained (hard deadline:
//!   [`DRAIN_DEADLINE`]). Counted as `conns.drain` plus
//!   `conns.drain.signal` or `conns.drain.shutdown`.

use crate::conn::{Conn, Frame};
use crate::poll::{self, PollFd, POLLHUP, POLLIN, POLLOUT};
use crate::proto::{ErrorCode, ProtoError};
use crate::queue::{JobQueue, PushError};
use std::collections::HashMap;
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::os::fd::AsRawFd;
use std::os::unix::net::UnixStream;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicU8, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// Per-connection request-line cap. A line beyond this is answered with
/// one `bad-request` error and skipped (the connection resynchronizes
/// at the next newline); with the fixed-size chunk reads this bounds a
/// connection's buffering no matter what the client streams. Inline
/// `load` texts for realistic KBs are kilobytes, so 4 MiB is generous.
pub const MAX_LINE: usize = 4 << 20;

/// Hard ceiling on a graceful drain: connections that have not
/// delivered everything they owe within this window are force-closed so
/// [`Front::serve`] always returns.
const DRAIN_DEADLINE: Duration = Duration::from_secs(10);

/// Largest accept burst per loop iteration — bounds time spent away
/// from established connections when a connect storm hits.
const ACCEPT_BURST: usize = 256;

/// Read chunks consumed per connection per iteration (fairness: one
/// fast writer may not monopolize the loop).
const READS_PER_TICK: usize = 16;

/// What a serving front does with one framed request line.
pub(crate) trait Handler: Sync {
    /// Answers `line`, the request in response slot `seq` of connection
    /// `conn`: inline, or by admitting it to a worker that later calls
    /// [`Front::complete`] with the same `conn` and `seq`.
    fn handle_line(&self, line: &str, conn: u64, seq: u64) -> Handled;
}

/// How the event loop should deliver a request's answer.
pub(crate) enum Handled {
    /// Answered on the loop thread: fill the slot now.
    Inline {
        line: String,
        /// The request asked the front to shut down; close this
        /// connection once the acknowledgment flushes.
        shutdown: bool,
    },
    /// Admitted to a worker queue; the slot fills on completion.
    Queued,
}

impl Handled {
    pub(crate) fn inline(line: String) -> Handled {
        Handled::Inline {
            line,
            shutdown: false,
        }
    }
}

/// A finished job on its way back from a worker to the event loop.
struct Completion {
    conn: u64,
    seq: u64,
    line: String,
}

/// The connection side of a serving process: listener, wake pipe,
/// drain state and the readiness loop.
pub(crate) struct Front {
    listener: TcpListener,
    /// Self-wake pipe: a byte on `wake_tx` interrupts the loop's `ppoll`
    /// (completions, stop requests).
    wake_rx: UnixStream,
    wake_tx: UnixStream,
    /// Worker → event-loop handoff, drained every iteration.
    completions: Mutex<Vec<Completion>>,
    stop: AtomicBool,
    /// Why the drain began: 0 = not draining, 1 = `shutdown` op /
    /// [`Front::stop`], 2 = SIGTERM, 3 = SIGINT. First writer wins.
    drain_reason: AtomicU8,
    /// Open connections, mirrored by the event loop for `metrics`.
    conns_open: AtomicU64,
    started: Instant,
    max_conns: usize,
    idle_timeout_ms: u64,
}

impl Front {
    /// Binds the listener and the wake pipe. `idle_timeout_ms == 0`
    /// disables idle eviction.
    pub(crate) fn bind(
        addr: &str,
        max_conns: usize,
        idle_timeout_ms: u64,
    ) -> std::io::Result<Front> {
        let listener = TcpListener::bind(addr)?;
        let (wake_rx, wake_tx) = UnixStream::pair()?;
        wake_rx.set_nonblocking(true)?;
        wake_tx.set_nonblocking(true)?;
        Ok(Front {
            listener,
            wake_rx,
            wake_tx,
            completions: Mutex::new(Vec::new()),
            stop: AtomicBool::new(false),
            drain_reason: AtomicU8::new(0),
            conns_open: AtomicU64::new(0),
            started: Instant::now(),
            max_conns: max_conns.max(1),
            idle_timeout_ms,
        })
    }

    pub(crate) fn local_addr(&self) -> std::io::Result<SocketAddr> {
        self.listener.local_addr()
    }

    pub(crate) fn max_conns(&self) -> usize {
        self.max_conns
    }

    pub(crate) fn idle_timeout_ms(&self) -> u64 {
        self.idle_timeout_ms
    }

    /// Microseconds since the front was bound (`stats`/`metrics` uptime).
    pub(crate) fn uptime_us(&self) -> u128 {
        self.started.elapsed().as_micros()
    }

    /// Requests a graceful drain (the `shutdown` op's reason).
    pub(crate) fn stop(&self) {
        self.begin_stop(1);
    }

    /// Starts the drain, recording why (first reason wins).
    fn begin_stop(&self, reason: u8) {
        let _ = self
            .drain_reason
            .compare_exchange(0, reason, Ordering::SeqCst, Ordering::SeqCst);
        self.stop.store(true, Ordering::SeqCst);
        self.wake();
    }

    /// Why the front is draining (or drained), when it is: `"shutdown"`
    /// (the wire op or [`Front::stop`]), `"SIGTERM"`, or `"SIGINT"`.
    pub(crate) fn drain_reason(&self) -> Option<&'static str> {
        match self.drain_reason.load(Ordering::SeqCst) {
            1 => Some("shutdown"),
            2 => Some("SIGTERM"),
            3 => Some("SIGINT"),
            _ => None,
        }
    }

    /// Sleeps `interval` in small slices; `false` as soon as the drain
    /// has begun (background threads return then), `true` otherwise.
    pub(crate) fn sleep_unless_stopped(&self, interval: Duration) -> bool {
        let mut waited = Duration::ZERO;
        while waited < interval {
            if self.stop.load(Ordering::SeqCst) {
                return false;
            }
            let step = Duration::from_millis(20).min(interval - waited);
            std::thread::sleep(step);
            waited += step;
        }
        !self.stop.load(Ordering::SeqCst)
    }

    /// Writes one byte into the wake pipe so a blocked `ppoll` returns
    /// now. Best-effort: a full pipe already guarantees a wakeup.
    fn wake(&self) {
        let _ = (&self.wake_tx).write(&[1]);
    }

    /// Hands a finished job's answer for slot `seq` of connection `conn`
    /// back to the event loop, waking it when the list was empty.
    ///
    /// One wake byte per batch of completions is enough, because the loop
    /// drains the wake pipe *before* it takes the list. A byte is written
    /// after the push that found the list empty, so any take that follows
    /// the drain of that byte includes that push. Pushes onto a non-empty
    /// list ride on the same take: only a take empties the list, and it
    /// takes everything. So no completion waits for the poll timeout.
    pub(crate) fn complete(&self, conn: u64, seq: u64, line: String) {
        let was_empty = {
            let mut completions = self.completions.lock().expect("completions lock poisoned");
            completions.push(Completion { conn, seq, line });
            completions.len() == 1
        };
        if was_empty {
            self.wake();
        }
    }

    /// The `metrics` op: the full observability-registry snapshot, with
    /// the admission-queue depth and open-connection gauges refreshed at
    /// snapshot time.
    pub(crate) fn metrics_json(&self, queue_depth: usize) -> String {
        let registry = rw_obs::registry();
        registry.gauge("queue.depth").set(queue_depth as u64);
        registry
            .gauge("conns.open")
            .set(self.conns_open.load(Ordering::Relaxed));
        format!(
            r#"{{"ok":true,"op":"metrics","uptime_us":{},"metrics":{}}}"#,
            self.uptime_us(),
            registry.snapshot().to_json(),
        )
    }

    /// Runs the readiness loop until the drain finishes. However the
    /// loop ends — an IO error included — the stop flag is set after,
    /// so threads parked in [`Front::sleep_unless_stopped`] return and
    /// the caller's thread scope can join.
    pub(crate) fn serve(&self, handler: &impl Handler) -> std::io::Result<()> {
        let result = self.event_loop(handler);
        self.stop.store(true, Ordering::SeqCst);
        result
    }

    /// The readiness loop: one `ppoll` over the wake pipe, the listener
    /// and every connection, then one pass of completions → accepts →
    /// per-connection IO, with every framed line going to `handler`.
    /// Runs until a graceful drain empties the connection table (or the
    /// drain deadline forces it).
    fn event_loop(&self, handler: &impl Handler) -> std::io::Result<()> {
        self.listener.set_nonblocking(true)?;
        let mut conns: HashMap<u64, Conn> = HashMap::new();
        let mut next_id: u64 = 0;
        // fd-exhaustion backoff: accepting pauses until the deadline,
        // doubling on repeat up to one second.
        let mut accept_pause: Option<Instant> = None;
        let mut backoff = Duration::from_millis(10);
        let mut drain_deadline: Option<Instant> = None;
        let idle_timeout =
            (self.idle_timeout_ms > 0).then(|| Duration::from_millis(self.idle_timeout_ms));
        let mut fds: Vec<PollFd> = Vec::new();
        let mut ids: Vec<u64> = Vec::new();
        let mut chunk = [0u8; 8192];
        let mut frames: Vec<Frame> = Vec::new();

        loop {
            // ---- lifecycle: signals, drain, closes, idle eviction ----
            if let Some(signo) = crate::signal::take() {
                // A supervisor's SIGTERM (or an operator's Ctrl-C) is a
                // drain request, not a death sentence: same graceful
                // path as the `shutdown` op.
                let reason = if signo == crate::signal::SIGINT { 3 } else { 2 };
                self.begin_stop(reason);
            }
            if self.stop.load(Ordering::SeqCst) && drain_deadline.is_none() {
                drain_deadline = Some(Instant::now() + DRAIN_DEADLINE);
                count("conns.drain");
                match self.drain_reason() {
                    Some("SIGTERM") | Some("SIGINT") => count("conns.drain.signal"),
                    _ => count("conns.drain.shutdown"),
                }
                // Stop reading everywhere; finish what each connection
                // is owed, then close it.
                for conn in conns.values_mut() {
                    conn.closing = true;
                }
            }
            conns.retain(|_, c| !(c.closing && c.drained()));
            if let Some(deadline) = drain_deadline {
                if conns.is_empty() || Instant::now() >= deadline {
                    break;
                }
            }
            if let Some(timeout) = idle_timeout {
                let now = Instant::now();
                let evicted: Vec<u64> = conns
                    .iter()
                    .filter(|(_, c)| {
                        c.is_idle() && !c.closing && now.duration_since(c.last_activity) >= timeout
                    })
                    .map(|(&id, _)| id)
                    .collect();
                for id in evicted {
                    conns.remove(&id);
                    count("conns.idle_closed");
                }
            }
            self.conns_open.store(conns.len() as u64, Ordering::Relaxed);
            if rw_obs::enabled() {
                rw_obs::registry()
                    .gauge("conns.open")
                    .set(conns.len() as u64);
            }

            // ---- build the poll set ----
            fds.clear();
            ids.clear();
            fds.push(PollFd::new(self.wake_rx.as_raw_fd(), POLLIN));
            if accept_pause.is_some_and(|until| Instant::now() >= until) {
                accept_pause = None;
            }
            // The listener stays polled during drain: connects are
            // answered with a structured refusal instead of hanging in
            // the backlog until the listener drops.
            let listener_idx = if accept_pause.is_none() {
                fds.push(PollFd::new(self.listener.as_raw_fd(), POLLIN));
                Some(fds.len() - 1)
            } else {
                None
            };
            let conn_base = fds.len();
            for (&id, conn) in &conns {
                let mut events = 0i16;
                if !conn.closing && !conn.read_paused() {
                    events |= POLLIN;
                }
                if conn.wants_write() {
                    events |= POLLOUT;
                }
                // events == 0 still reports POLLERR/POLLHUP, which is
                // exactly what a quiesced connection needs watched.
                fds.push(PollFd::new(conn.stream.as_raw_fd(), events));
                ids.push(id);
            }
            // The wake pipe handles every urgent wakeup (completions,
            // stop); the timeout only bounds deadline latency.
            let timeout = if drain_deadline.is_some() || accept_pause.is_some() {
                Duration::from_millis(10)
            } else if let Some(t) = idle_timeout {
                t.clamp(Duration::from_millis(10), Duration::from_millis(250))
            } else {
                Duration::from_millis(500)
            };
            poll::poll(&mut fds, Some(timeout))?;

            // ---- drain the wake pipe, apply completions ----
            // The drain must come before the take: `Front::complete`
            // writes a wake byte only when it finds the list empty.
            if fds[0].ready(POLLIN) {
                while matches!((&self.wake_rx).read(&mut chunk), Ok(n) if n > 0) {}
            }
            let done =
                std::mem::take(&mut *self.completions.lock().expect("completions lock poisoned"));
            for completion in done {
                let Some(conn) = conns.get_mut(&completion.conn) else {
                    // The connection died while its request ran; the
                    // answer is simply dropped.
                    continue;
                };
                conn.inflight = conn.inflight.saturating_sub(1);
                conn.fill_slot(completion.seq, completion.line);
                conn.last_activity = Instant::now();
                if conn.flush().is_err() {
                    conns.remove(&completion.conn);
                }
            }

            // ---- accept ----
            if listener_idx.is_some_and(|i| fds[i].ready(POLLIN)) {
                for _ in 0..ACCEPT_BURST {
                    match self.listener.accept() {
                        Ok((stream, _peer)) => {
                            backoff = Duration::from_millis(10);
                            let _ = stream.set_nodelay(true);
                            if stream.set_nonblocking(true).is_err() {
                                continue;
                            }
                            if drain_deadline.is_some() {
                                refuse(stream, shutting_down());
                                continue;
                            }
                            if conns.len() >= self.max_conns {
                                refuse(
                                    stream,
                                    ProtoError {
                                        code: ErrorCode::Overloaded,
                                        message: format!(
                                            "connection limit reached ({} open); retry later",
                                            self.max_conns
                                        ),
                                    },
                                );
                                count("conns.refused");
                                continue;
                            }
                            let id = next_id;
                            next_id += 1;
                            conns.insert(id, Conn::new(stream, MAX_LINE));
                        }
                        Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => break,
                        Err(e) => {
                            count("accept.errors");
                            const EMFILE: i32 = 24;
                            const ENFILE: i32 = 23;
                            if matches!(e.raw_os_error(), Some(EMFILE) | Some(ENFILE)) {
                                // fd exhaustion: shed the oldest idle
                                // connection and retry the accept; with
                                // nothing to shed, pause accepting with
                                // exponential backoff (established
                                // connections keep full service).
                                let oldest = conns
                                    .iter()
                                    .filter(|(_, c)| c.is_idle() && !c.closing)
                                    .min_by_key(|(_, c)| c.last_activity)
                                    .map(|(&id, _)| id);
                                match oldest {
                                    Some(id) => {
                                        conns.remove(&id);
                                        count("conns.idle_closed");
                                        continue;
                                    }
                                    None => {
                                        accept_pause = Some(Instant::now() + backoff);
                                        backoff = (backoff * 2).min(Duration::from_secs(1));
                                        break;
                                    }
                                }
                            }
                            // Transient (ECONNABORTED & co): the failed
                            // accept consumed the pending connection;
                            // return to poll rather than spin here.
                            break;
                        }
                    }
                }
            }

            // ---- per-connection IO ----
            for (slot, &id) in fds[conn_base..].iter().zip(ids.iter()) {
                let Some(conn) = conns.get_mut(&id) else {
                    continue; // shed or closed earlier this iteration
                };
                if slot.failed() {
                    conns.remove(&id);
                    continue;
                }
                if slot.ready(POLLOUT) && conn.flush().is_err() {
                    conns.remove(&id);
                    continue;
                }
                if conn.closing || !slot.ready(POLLIN | POLLHUP) {
                    continue;
                }
                frames.clear();
                let mut eof = false;
                let mut gone = false;
                for _ in 0..READS_PER_TICK {
                    match conn.stream.read(&mut chunk) {
                        Ok(0) => {
                            eof = true;
                            break;
                        }
                        Ok(n) => {
                            conn.last_activity = Instant::now();
                            conn.framer.push(&chunk[..n], &mut frames);
                        }
                        Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => break,
                        Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
                        Err(_) => {
                            gone = true;
                            break;
                        }
                    }
                }
                if gone {
                    conns.remove(&id);
                    continue;
                }
                if eof {
                    // Half-close: a final line without a trailing
                    // newline still deserves its answer; everything
                    // owed flushes before the connection closes.
                    if let Some(line) = conn.framer.finish() {
                        frames.push(Frame::Line(line));
                    }
                    conn.closing = true;
                }
                let mut acked_shutdown = false;
                for frame in frames.drain(..) {
                    let seq = conn.alloc_slot();
                    match frame {
                        Frame::Oversized => {
                            let error = ProtoError::bad_request(format!(
                                "request line exceeds {MAX_LINE} bytes"
                            ));
                            conn.fill_slot(seq, error.line());
                        }
                        Frame::Line(line) => match handler.handle_line(&line, id, seq) {
                            Handled::Inline { line, shutdown } => {
                                conn.fill_slot(seq, line);
                                acked_shutdown |= shutdown;
                            }
                            Handled::Queued => conn.inflight += 1,
                        },
                    }
                }
                if acked_shutdown {
                    conn.closing = true;
                }
                if conn.flush().is_err() {
                    conns.remove(&id);
                }
            }
        }
        self.conns_open.store(0, Ordering::Relaxed);
        if rw_obs::enabled() {
            rw_obs::registry().gauge("conns.open").set(0);
        }
        Ok(())
    }
}

/// Admits `job` to `queue`; a full queue is answered immediately with
/// `overloaded` (counted in `rejected` and `queue.rejected`) — the event
/// loop never blocks on admission.
pub(crate) fn admit<J>(queue: &JobQueue<J>, job: J, rejected: &AtomicU64) -> Handled {
    match queue.push(job) {
        Ok(()) => Handled::Queued,
        Err(PushError::Full) => {
            rejected.fetch_add(1, Ordering::Relaxed);
            count("queue.rejected");
            Handled::inline(
                ProtoError {
                    code: ErrorCode::Overloaded,
                    message: format!(
                        "admission queue full ({} pending); retry later",
                        queue.capacity()
                    ),
                }
                .line(),
            )
        }
        Err(PushError::Closed) => Handled::inline(shutting_down().line()),
    }
}

fn shutting_down() -> ProtoError {
    ProtoError {
        code: ErrorCode::ShuttingDown,
        message: "server is shutting down".to_string(),
    }
}

/// Best-effort one-line rejection for a connection the loop will not
/// admit (ceiling reached or draining); the socket is dropped after.
fn refuse(mut stream: TcpStream, error: ProtoError) {
    let _ = stream.set_nonblocking(false);
    let _ = stream.set_write_timeout(Some(Duration::from_millis(100)));
    let _ = stream.write_all(format!("{}\n", error.line()).as_bytes());
}

/// Increments a registry counter when observability is recording.
pub(crate) fn count(name: &str) {
    if rw_obs::enabled() {
        rw_obs::registry().counter(name).inc();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The wake bytes waiting in the pipe.
    fn pending_wakes(front: &Front) -> usize {
        let mut buf = [0u8; 16];
        match (&front.wake_rx).read(&mut buf) {
            Ok(n) => n,
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => 0,
            Err(e) => panic!("wake pipe: {e}"),
        }
    }

    #[test]
    fn completions_write_one_wake_byte_per_batch() {
        let front = Front::bind("127.0.0.1:0", 1, 0).unwrap();
        for seq in 0..3 {
            front.complete(0, seq, format!("answer {seq}"));
        }
        assert_eq!(pending_wakes(&front), 1);
        // Once the loop has taken the list, the next completion wakes it
        // again.
        let taken = std::mem::take(&mut *front.completions.lock().unwrap());
        assert_eq!(taken.len(), 3);
        front.complete(1, 0, "answer".to_string());
        assert_eq!(pending_wakes(&front), 1);
        assert_eq!(pending_wakes(&front), 0);
    }
}
