#![warn(missing_docs)]

//! `rw-server`: a persistent, multi-client serving layer over the
//! random-worlds engine.
//!
//! One-shot `rwq query` re-parses and re-fingerprints its knowledge base
//! on every invocation and throws the warm
//! [`AnswerCache`](rw_core::AnswerCache) away on exit. This crate keeps
//! all of that **resident**: a readiness event loop ([`mod@server`],
//! driven by a direct-syscall [`mod@poll`] over nonblocking sockets)
//! speaks the same JSONL request/response format as `rwq batch`,
//! multiplexing thousands of connections — each a small [`mod@conn`]
//! state machine — on one thread. A [`registry::KbRegistry`] holds named
//! loaded KBs (each a [`PreparedKb`](rw_core::PreparedKb) — fingerprint
//! at load, theorem-stage analysis on the first cache miss — with its
//! engine built once at load, exact or Monte-Carlo), and a scoped-thread
//! worker pool
//! behind a **bounded admission queue** answers queries through one
//! shared sharded cache; per-connection response slots keep pipelined
//! answers in request order. Overload is met with a structured
//! `{"ok":false,...,"code":"overloaded"}` rejection, never unbounded
//! buffering, and a `stats` request exposes cache counters, per-stage
//! totals, queue depth and uptime.
//!
//! ```no_run
//! use rw_server::{Client, Server, ServerConfig};
//!
//! let server = Server::bind(ServerConfig::default()).unwrap();
//! let addr = server.local_addr().unwrap();
//! std::thread::spawn(move || server.run().unwrap());
//!
//! let mut client = Client::connect(addr).unwrap();
//! client.request_line(r#"{"op":"load","kb":"med","text":"||Hep(x) | Jaun(x)||_x ~=_1 0.8; Jaun(Eric)"}"#).unwrap();
//! let answer = client.request_line(r#"{"op":"query","kb":"med","query":"Hep(Eric)"}"#).unwrap();
//! assert!(answer.contains(r#""value":0.8"#));
//! ```
//!
//! The crate also hosts the two modules every serving surface shares —
//! [`json`] (the single JSON renderer that makes `rwq query`, `batch`
//! and the server path byte-identical on the golden corpus) and
//! [`mod@format`] (the `.rwkb` loader) — plus the wire [`proto`]col and a
//! line-oriented [`Client`].

pub mod client;
pub mod conn;
pub mod format;
mod front;
pub mod json;
pub mod poll;
pub mod proto;
pub mod queue;
pub mod registry;
pub mod server;
pub mod shard;
pub mod signal;
pub mod snapshot;

pub use client::Client;
pub use format::{load_kb, parse_kb, LoadError};
pub use proto::{parse_request, ApproxParams, ErrorCode, KbSource, ProtoError, Request, Value};
pub use queue::{JobQueue, PushError};
pub use registry::{KbRegistry, LoadedKb};
pub use server::{Server, ServerConfig, MAX_LINE};
pub use shard::{Shard, ShardConfig};
pub use snapshot::{SnapshotError, SnapshotStats};
