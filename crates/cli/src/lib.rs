#![warn(missing_docs)]

//! `rwq`: the command-line front end for the random-worlds workspace.
//!
//! The binary loads a knowledge base written in the `L≈` concrete syntax
//! (see [`mod@format`] for the `.rwkb` file conventions), answers degree-of-
//! belief queries through the `rw-core` solver pipeline — theorem engine,
//! maximum entropy, exact finite-`N` counting — and can switch the prior
//! to the random-propensities families of `rw-propensity`. The `batch`
//! subcommand is the serving path: one loaded KB, queries streamed on
//! stdin one per line, one JSON result object per line on stdout, and a
//! closing `{"summary":{...}}` line with `{answered, failed}` counts and
//! per-stage totals. `--threads N` shards the batch across the executor
//! (`rw_core::RandomWorlds::answer_batch_report`; `0` = one worker per
//! core) on the same engine and the same fold as the streamed
//! `--threads 1` path, so both report the same summary; `--cache` shares
//! a canonical-query answer cache across the session, with per-line
//! `cache_hit` / `elapsed_us` fields in the JSON.
//! `--approx` (with `--samples`, `--mc-seed`, `--ci`) enables the
//! Monte-Carlo approximate-inference stage on `query`, `repl` and
//! `batch`: queries missing every theorem pattern are answered by
//! sampling in bounded time, the JSON gains an `approximate` belief
//! (point estimate + 95% CI half-width) and an `mc` counts object, and a
//! fixed `--mc-seed` yields identical answers at any thread count.
//! All behavior lives in this library so it is testable without spawning
//! processes; the binary in `src/bin/rwq.rs` is a thin dispatcher.
//!
//! ```text
//! $ rwq query examples/kbs/hepatitis.rwkb "Hep(Eric)"
//! Pr∞(Hep(Eric) | KB) = 0.800000 (via direct inference (Thm 5.6))
//!
//! $ printf 'Hep(Eric)\nHep(Eric)\n' | rwq batch examples/kbs/hepatitis.rwkb --threads 4 --cache
//! {"query":"Hep(Eric)","ok":true,"cache_hit":false,...}
//! {"query":"Hep(Eric)","ok":true,"cache_hit":true,...}
//! {"summary":{"queries":2,"answered":2,"failed":0,"cache_hits":1,...}}
//! ```

pub mod args;
pub mod obs;
pub mod session;

// The `.rwkb` loader and the serving JSON renderer live in `rw-server`
// (every serving surface — one-shot CLI and resident server — shares
// them); re-exported here so `rw_cli::json`/`rw_cli::format` keep
// working.
pub use rw_server::format;
pub use rw_server::json;

pub use args::{parse, ArgError, Command, USAGE};
pub use format::{load_kb, parse_kb, LoadError};
pub use session::{Session, SessionError, SessionOptions};

use std::io::BufRead;

/// Connection failures worth retrying: the peer is (re)starting or just
/// dropped us, and a fresh connect a moment later can succeed. Anything
/// else (unreachable host, bad address, permission) fails immediately.
fn retryable(e: &std::io::Error) -> bool {
    matches!(
        e.kind(),
        std::io::ErrorKind::ConnectionRefused
            | std::io::ErrorKind::ConnectionReset
            | std::io::ErrorKind::ConnectionAborted
            | std::io::ErrorKind::BrokenPipe
            | std::io::ErrorKind::UnexpectedEof
    )
}

/// Connects to `addr`, sleeping `backoff_ms` (doubling per attempt,
/// capped at 2s) between up to `retry` reconnect attempts on transient
/// failures. Each sleep is tallied into `retries_used`.
fn connect_retry(
    addr: &str,
    retry: u32,
    backoff_ms: u64,
    retries_used: &mut u64,
) -> std::io::Result<rw_server::Client> {
    let mut backoff = backoff_ms.max(1);
    let mut attempt = 0u32;
    loop {
        match rw_server::Client::connect(addr) {
            Ok(c) => return Ok(c),
            Err(e) if attempt < retry && retryable(&e) => {
                attempt += 1;
                *retries_used += 1;
                std::thread::sleep(std::time::Duration::from_millis(backoff));
                backoff = (backoff * 2).min(2000);
            }
            Err(e) => return Err(e),
        }
    }
}

/// One lock-step request with reconnect-and-resend on transient
/// failures. Resending is safe because every op in the protocol is
/// idempotent (queries are deterministic and cached; a replayed `load`
/// reinstalls the same KB).
fn request_retry(
    client: &mut rw_server::Client,
    addr: &str,
    request: &str,
    retry: u32,
    backoff_ms: u64,
    retries_used: &mut u64,
) -> std::io::Result<String> {
    let mut err = match client.request_line(request) {
        Ok(r) => return Ok(r),
        Err(e) => e,
    };
    let mut backoff = backoff_ms.max(1);
    for _ in 0..retry {
        if !retryable(&err) {
            break;
        }
        *retries_used += 1;
        std::thread::sleep(std::time::Duration::from_millis(backoff));
        backoff = (backoff * 2).min(2000);
        match rw_server::Client::connect(addr) {
            Ok(c) => {
                *client = c;
                match client.request_line(request) {
                    Ok(r) => return Ok(r),
                    Err(e) => err = e,
                }
            }
            Err(e) => err = e,
        }
    }
    Err(err)
}

/// Runs a parsed command, writing output lines through `out`. Returns the
/// process exit code. `stdin` supplies REPL queries (one per line).
pub fn run(
    cmd: Command,
    stdin: &mut dyn BufRead,
    out: &mut dyn std::io::Write,
) -> std::io::Result<i32> {
    match cmd {
        Command::Help => {
            writeln!(out, "{USAGE}")?;
            Ok(0)
        }
        Command::Check { file } => match load_kb(&file) {
            Ok(kb) => {
                let session = Session::new(kb, SessionOptions::default());
                write!(out, "{}", session.describe())?;
                Ok(0)
            }
            Err(e) => {
                writeln!(out, "error: {e}")?;
                Ok(1)
            }
        },
        Command::Query {
            file,
            queries,
            options,
        } => {
            let kb = match load_kb(&file) {
                Ok(kb) => kb,
                Err(e) => {
                    writeln!(out, "error: {e}")?;
                    return Ok(1);
                }
            };
            let session = Session::new(kb, options);
            let mut failures = 0;
            for q in &queries {
                match session.answer(q) {
                    Ok(a) => writeln!(out, "{a}")?,
                    Err(e) => {
                        writeln!(out, "error: {q}: {e}")?;
                        failures += 1;
                    }
                }
            }
            Ok(if failures == 0 { 0 } else { 1 })
        }
        Command::Batch { file, options } => {
            let kb = match load_kb(&file) {
                Ok(kb) => kb,
                Err(e) => {
                    // Even startup failure keeps stdout valid JSONL.
                    writeln!(out, "{}", json::fatal_line(&e.to_string()))?;
                    return Ok(1);
                }
            };
            let threads = options.threads;
            let session = Session::for_batch(kb, options);
            let report = if threads == 1 {
                // Streamed: each line is answered (and flushed) as it
                // arrives, so long-lived producers see results without
                // waiting for EOF. Only the answering is timed, not the
                // stdin waits: a slow producer must not inflate the
                // summary's wall_us.
                let mut batch = session.batch();
                for line in stdin.lines() {
                    let line = line?;
                    let q = line.trim();
                    if q.is_empty() || q.starts_with('#') {
                        continue;
                    }
                    let result = batch.answer(q);
                    writeln!(out, "{}", json::result_line(q, &result))?;
                    out.flush()?;
                }
                let busy = batch.cpu();
                batch.finish(1, busy)
            } else {
                // Collected: the worker pool shards the whole workload;
                // output order stays the input order.
                let mut queries = Vec::new();
                for line in stdin.lines() {
                    let line = line?;
                    let q = line.trim();
                    if q.is_empty() || q.starts_with('#') {
                        continue;
                    }
                    queries.push(q.to_string());
                }
                let (lines, report) = session.answer_batch_report(&queries);
                for l in &lines {
                    writeln!(out, "{l}")?;
                }
                report
            };
            // The closing summary makes {answered, failed} machine-readable
            // instead of only being countable from stderr/exit status.
            writeln!(out, "{}", json::summary_line(&report))?;
            out.flush()?;
            Ok(if report.failed == 0 { 0 } else { 1 })
        }
        Command::Serve { file, config, scan } => {
            // Read the KB text ourselves (instead of `load_kb`) so the
            // source can be retained for snapshotting — a restarted
            // server re-parses it from the snapshot and answers warm.
            let preload = match file {
                Some(f) => {
                    let text = match std::fs::read_to_string(&f) {
                        Ok(t) => t,
                        Err(e) => {
                            writeln!(out, "error: {}: {e}", f.display())?;
                            return Ok(1);
                        }
                    };
                    match parse_kb(&text) {
                        Ok(kb) => Some((kb, text)),
                        Err(e) => {
                            writeln!(out, "error: {e}")?;
                            return Ok(1);
                        }
                    }
                }
                None => None,
            };
            let snapshots = config.snapshot_dir.is_some();
            let server = match rw_server::Server::bind(config) {
                Ok(s) => s,
                Err(e) => {
                    writeln!(out, "error: cannot bind: {e}")?;
                    return Ok(1);
                }
            };
            // SIGTERM/SIGINT become graceful drains, not instant deaths:
            // in-flight answers flush and (with --snapshot-dir) a final
            // checkpoint lands before exit.
            if let Err(e) = rw_server::signal::install() {
                eprintln!(
                    "{}",
                    json::fatal_line(&format!("cannot install signal handlers: {e}"))
                );
            }
            // Snapshot first, preload second: an explicitly passed KB
            // file wins over a snapshotted KB of the same name.
            let snapshot_field = if snapshots {
                let fragment = match server.load_snapshot() {
                    None => rw_server::SnapshotStats::default().json(),
                    Some(Ok(stats)) => stats.json(),
                    Some(Err(e)) => format!(
                        r#"{{"error":"{}","code":"{}"}}"#,
                        json::escape(&e.to_string()),
                        e.code()
                    ),
                };
                format!(r#","snapshot":{fragment}"#)
            } else {
                String::new()
            };
            if let Some((kb, text)) = preload {
                server
                    .registry()
                    .insert_scan_source("default", kb, scan, Some(text));
            }
            let kbs: Vec<String> = server
                .registry()
                .snapshot_entries()
                .iter()
                .map(|k| format!("\"{}\"", json::escape(&k.name)))
                .collect();
            let addr = server
                .local_addr()
                .map(|a| a.to_string())
                .unwrap_or_default();
            // The first line is machine-readable so scripts (and the e2e
            // suite) learn the actual port when `--addr` asked for :0.
            writeln!(
                out,
                r#"{{"serving":{{"addr":"{}","threads":{},"cache_shards":{},"max_queue":{},"max_conns":{},"idle_timeout_ms":{},"kbs":[{}]{}}}}}"#,
                json::escape(&addr),
                server.threads(),
                server.registry().cache().shard_count(),
                server.queue_capacity(),
                server.max_conns(),
                server.idle_timeout_ms(),
                kbs.join(","),
                snapshot_field
            )?;
            out.flush()?;
            match server.run() {
                Ok(()) => {
                    // Scripts and supervisors learn *why* the server
                    // exited zero (shutdown op vs. signal).
                    if let Some(reason) = server.drain_reason() {
                        writeln!(out, r#"{{"drained":{{"reason":"{reason}"}}}}"#)?;
                        out.flush()?;
                    }
                    Ok(0)
                }
                Err(e) => {
                    writeln!(out, "error: serving failed: {e}")?;
                    Ok(1)
                }
            }
        }
        Command::Shard { config } => {
            let shard = match rw_server::Shard::bind(config) {
                Ok(s) => s,
                Err(e) => {
                    writeln!(out, "error: cannot bind shard: {e}")?;
                    return Ok(1);
                }
            };
            if let Err(e) = rw_server::signal::install() {
                eprintln!(
                    "{}",
                    json::fatal_line(&format!("cannot install signal handlers: {e}"))
                );
            }
            let addr = shard
                .local_addr()
                .map(|a| a.to_string())
                .unwrap_or_default();
            let backends: Vec<String> = shard
                .backend_addrs()
                .iter()
                .map(|b| format!("\"{}\"", json::escape(b)))
                .collect();
            writeln!(
                out,
                r#"{{"sharding":{{"addr":"{}","backends":[{}],"threads":{}}}}}"#,
                json::escape(&addr),
                backends.join(","),
                shard.threads()
            )?;
            out.flush()?;
            match shard.run() {
                Ok(()) => {
                    if let Some(reason) = shard.drain_reason() {
                        writeln!(out, r#"{{"drained":{{"reason":"{reason}"}}}}"#)?;
                        out.flush()?;
                    }
                    Ok(0)
                }
                Err(e) => {
                    writeln!(out, "error: sharding failed: {e}")?;
                    Ok(1)
                }
            }
        }
        Command::Obs { path } => {
            let content = match std::fs::read_to_string(&path) {
                Ok(c) => c,
                Err(e) => {
                    writeln!(out, "error: cannot read {}: {e}", path.display())?;
                    return Ok(1);
                }
            };
            match obs::aggregate(&content) {
                Ok(table) => {
                    write!(out, "{table}")?;
                    out.flush()?;
                    Ok(0)
                }
                Err(e) => {
                    writeln!(out, "error: {e}")?;
                    Ok(1)
                }
            }
        }
        Command::Client {
            addr,
            retry,
            retry_backoff_ms,
        } => {
            // A restarting backend (supervisor respawn, rolling deploy)
            // refuses or resets connections for a moment; with --retry
            // that window is ridden out with exponential backoff instead
            // of exiting 1. The note on stderr keeps stdout pure JSONL.
            let mut retries_used = 0u64;
            let note_retries = |retries_used: u64| {
                if retries_used > 0 {
                    eprintln!(r#"{{"retries":{retries_used}}}"#);
                }
            };
            let mut client = match connect_retry(&addr, retry, retry_backoff_ms, &mut retries_used)
            {
                Ok(c) => c,
                Err(e) => {
                    writeln!(
                        out,
                        "{}",
                        json::fatal_line(&format!("cannot connect to {addr}: {e}"))
                    )?;
                    note_retries(retries_used);
                    return Ok(1);
                }
            };
            let mut failures = 0usize;
            for line in stdin.lines() {
                let line = line?;
                let request = line.trim();
                if request.is_empty() || request.starts_with('#') {
                    continue;
                }
                match request_retry(
                    &mut client,
                    &addr,
                    request,
                    retry,
                    retry_backoff_ms,
                    &mut retries_used,
                ) {
                    Ok(response) => {
                        if response.contains(r#""ok":false"#) {
                            failures += 1;
                        }
                        writeln!(out, "{response}")?;
                        out.flush()?;
                    }
                    Err(e) => {
                        writeln!(
                            out,
                            "{}",
                            json::fatal_line(&format!("connection to {addr} lost: {e}"))
                        )?;
                        note_retries(retries_used);
                        return Ok(1);
                    }
                }
            }
            note_retries(retries_used);
            Ok(if failures == 0 { 0 } else { 1 })
        }
        Command::Lab {
            workload,
            config,
            rows,
            report,
        } => {
            let workload = match rw_lab::Workload::load(&workload) {
                Ok(w) => w,
                Err(e) => {
                    writeln!(out, "error: {e}")?;
                    return Ok(1);
                }
            };
            let trial_rows = rw_lab::run(&workload, &config);
            let mut rendered = String::new();
            for row in &trial_rows {
                rendered.push_str(&row.render());
                rendered.push('\n');
            }
            write!(out, "{rendered}")?;
            if let Some(path) = rows {
                std::fs::write(&path, &rendered)?;
            }
            write!(out, "\n{}", rw_lab::analysis_table(&trial_rows))?;
            let lab_report = rw_lab::evaluate(&workload, &config, &trial_rows);
            std::fs::write(&report, format!("{}\n", lab_report.to_json()))?;
            for g in &lab_report.gates {
                writeln!(
                    out,
                    "gate {:<22} {:<4}  {}",
                    g.gate,
                    g.status.keyword(),
                    g.detail
                )?;
            }
            writeln!(
                out,
                "{}: {} trials, {} ok, {} failed — {} (report: {})",
                workload.name,
                lab_report.trials,
                lab_report.ok,
                lab_report.failed,
                if lab_report.pass { "PASS" } else { "FAIL" },
                report.display()
            )?;
            out.flush()?;
            Ok(if lab_report.pass { 0 } else { 1 })
        }
        Command::Repl { file, options } => {
            let kb = match load_kb(&file) {
                Ok(kb) => kb,
                Err(e) => {
                    writeln!(out, "error: {e}")?;
                    return Ok(1);
                }
            };
            let session = Session::new(kb, options);
            for line in stdin.lines() {
                let line = line?;
                let q = line.trim();
                if q.is_empty() || q.starts_with('#') {
                    continue;
                }
                if q == "quit" || q == "exit" {
                    break;
                }
                match session.answer(q) {
                    Ok(a) => writeln!(out, "{a}")?,
                    Err(e) => writeln!(out, "error: {e}")?,
                }
            }
            Ok(0)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run_capture(cmd: Command, input: &str) -> (i32, String) {
        let mut out = Vec::new();
        let mut stdin = std::io::Cursor::new(input.as_bytes().to_vec());
        let code = run(cmd, &mut stdin, &mut out).unwrap();
        (code, String::from_utf8(out).unwrap())
    }

    fn write_kb(content: &str) -> tempfile::TempPath {
        tempfile::kb_file(content)
    }

    // A minimal temp-file helper (std-only; no tempfile crate offline).
    mod tempfile {
        use std::path::PathBuf;
        use std::sync::atomic::{AtomicU64, Ordering};

        pub struct TempPath(pub PathBuf);

        impl Drop for TempPath {
            fn drop(&mut self) {
                let _ = std::fs::remove_file(&self.0);
            }
        }

        static COUNTER: AtomicU64 = AtomicU64::new(0);

        pub fn kb_file(content: &str) -> TempPath {
            let id = COUNTER.fetch_add(1, Ordering::Relaxed);
            let path =
                std::env::temp_dir().join(format!("rwq-test-{}-{id}.rwkb", std::process::id()));
            std::fs::write(&path, content).unwrap();
            TempPath(path)
        }
    }

    #[test]
    fn help_prints_usage() {
        let (code, out) = run_capture(Command::Help, "");
        assert_eq!(code, 0);
        assert!(out.contains("USAGE"));
    }

    #[test]
    fn query_end_to_end() {
        let kb = write_kb("||Hep(x) | Jaun(x)||_x ~=_1 0.8\nJaun(Eric)\n");
        let cmd = Command::Query {
            file: kb.0.clone(),
            queries: vec!["Hep(Eric)".to_string()],
            options: SessionOptions::default(),
        };
        let (code, out) = run_capture(cmd, "");
        assert_eq!(code, 0, "{out}");
        assert!(out.contains("0.8"), "{out}");
    }

    #[test]
    fn query_missing_file_fails_cleanly() {
        let cmd = Command::Query {
            file: "/nonexistent/kb.rwkb".into(),
            queries: vec!["P(C)".to_string()],
            options: SessionOptions::default(),
        };
        let (code, out) = run_capture(cmd, "");
        assert_eq!(code, 1);
        assert!(out.contains("error"), "{out}");
    }

    #[test]
    fn bad_query_sets_exit_code_but_answers_others() {
        let kb = write_kb("P(C)\n");
        let cmd = Command::Query {
            file: kb.0.clone(),
            queries: vec!["P(".to_string(), "P(C)".to_string()],
            options: SessionOptions::default(),
        };
        let (code, out) = run_capture(cmd, "");
        assert_eq!(code, 1);
        assert!(out.contains("error"), "{out}");
        assert!(out.contains("Pr∞(P(C)"), "{out}");
    }

    #[test]
    fn check_describes_kb() {
        let kb = write_kb("P(C)\n");
        let cmd = Command::Check { file: kb.0.clone() };
        let (code, out) = run_capture(cmd, "");
        assert_eq!(code, 0);
        assert!(out.contains("1 statement(s)"), "{out}");
    }

    #[test]
    fn batch_missing_file_emits_json_not_bare_text() {
        let cmd = Command::Batch {
            file: "/nonexistent/kb.rwkb".into(),
            options: SessionOptions::default(),
        };
        let (code, out) = run_capture(cmd, "P(C)\n");
        assert_eq!(code, 1);
        assert!(out.starts_with(r#"{"ok":false,"error":"#), "{out}");
    }

    #[test]
    fn batch_answers_jsonl_and_flags_bad_lines() {
        let kb = write_kb("||Hep(x) | Jaun(x)||_x ~=_1 0.8\nJaun(Eric)\n");
        let cmd = Command::Batch {
            file: kb.0.clone(),
            options: SessionOptions::default(),
        };
        let (code, out) = run_capture(cmd, "Hep(Eric)\n# a comment\n\nHep(\n!Hep(Eric)\n");
        // The bad middle line fails the exit code but not the other answers.
        assert_eq!(code, 1, "{out}");
        let lines: Vec<&str> = out.lines().collect();
        assert_eq!(lines.len(), 4, "{out}");
        assert!(lines[0].contains(r#""ok":true"#), "{out}");
        assert!(lines[0].contains(r#""cache_hit":false"#), "{out}");
        assert!(lines[0].contains(r#""value":0.8"#), "{out}");
        assert!(lines[1].contains(r#""ok":false"#), "{out}");
        assert!(lines[2].contains(r#""ok":true"#), "{out}");
        // The closing summary line carries machine-readable counts.
        assert!(lines[3].contains(r#""answered":2,"failed":1"#), "{out}");
    }

    #[test]
    fn parallel_batch_matches_streamed_output_and_reports_stages() {
        let kb = write_kb("||Hep(x) | Jaun(x)||_x ~=_1 0.8\nJaun(Eric)\n");
        let input = "Hep(Eric)\nHep(\n!Hep(Eric)\nHep(Eric) & Jaun(Eric)\n";
        let streamed = run_capture(
            Command::Batch {
                file: kb.0.clone(),
                options: SessionOptions::default(),
            },
            input,
        );
        let parallel = run_capture(
            Command::Batch {
                file: kb.0.clone(),
                options: SessionOptions {
                    threads: 4,
                    ..SessionOptions::default()
                },
            },
            input,
        );
        assert_eq!(streamed.0, parallel.0);
        // Identical result lines (in input order) and summaries once
        // wall times are stripped, up to the reported thread count.
        let strip = |s: &str| {
            let mut out = String::new();
            let mut rest = s;
            while let Some(i) = rest.find("_us\":") {
                out.push_str(&rest[..i + 5]);
                rest = rest[i + 5..].trim_start_matches(|c: char| c.is_ascii_digit());
            }
            out.push_str(rest);
            out
        };
        let s_lines: Vec<String> = streamed.1.lines().map(strip).collect();
        let p_lines: Vec<String> = parallel.1.lines().map(strip).collect();
        assert_eq!(s_lines.len(), 5);
        assert_eq!(p_lines.len(), 5);
        assert_eq!(
            s_lines[..4],
            p_lines[..4],
            "\n{}\n{}",
            streamed.1,
            parallel.1
        );
        assert!(p_lines[4].contains(r#""threads":4"#), "{}", parallel.1);
        assert_eq!(
            s_lines[4].replace(r#""threads":1"#, r#""threads":4"#),
            p_lines[4],
            "\n{}\n{}",
            streamed.1,
            parallel.1
        );
        assert!(
            p_lines[4].contains(r#""stages":[{"stage":"theorems""#),
            "{}",
            parallel.1
        );
    }

    #[test]
    fn cached_batch_reports_hits_in_lines_and_summary() {
        let kb = write_kb("||Hep(x) | Jaun(x)||_x ~=_1 0.8\nJaun(Eric)\n");
        let cmd = Command::Batch {
            file: kb.0.clone(),
            options: SessionOptions {
                cache: true,
                ..SessionOptions::default()
            },
        };
        // The streamed (threads=1) path: the repeat and the commuted
        // conjunction both hit deterministically.
        let (code, out) = run_capture(cmd, "Hep(Eric)\nHep(Eric)\n!!Hep(Eric)\n");
        assert_eq!(code, 0, "{out}");
        let lines: Vec<&str> = out.lines().collect();
        assert_eq!(lines.len(), 4, "{out}");
        assert!(lines[0].contains(r#""cache_hit":false"#), "{out}");
        assert!(lines[1].contains(r#""cache_hit":true"#), "{out}");
        assert!(lines[2].contains(r#""cache_hit":true"#), "{out}");
        for l in &lines[..3] {
            assert!(l.contains(r#""value":0.8"#), "{out}");
        }
        // Misses and denominator-cache traffic ride along in the summary
        // (a theorem-only KB never consults the denominator cache).
        assert!(
            lines[3].contains(r#""cache_hits":2,"cache_misses":1,"denoms":{"hits":0,"misses":0}"#),
            "{out}"
        );
    }

    #[test]
    fn obs_renders_a_table_from_a_slow_log() {
        let trace = write_kb(
            r#"{"trace_id":3,"kb":"default","query":"P(C)","elapsed_us":500,"spans":[{"id":1,"parent":null,"name":"request","wall_us":500,"cpu_us":0},{"id":2,"parent":1,"name":"answer","wall_us":400,"cpu_us":300}]}"#,
        );
        let (code, out) = run_capture(
            Command::Obs {
                path: trace.0.clone(),
            },
            "",
        );
        assert_eq!(code, 0, "{out}");
        assert!(out.starts_with("traces: 1, spans: 2"), "{out}");
        assert!(out.contains("self_us"), "{out}");
        assert!(out.contains("request"), "{out}");
    }

    #[test]
    fn obs_missing_or_empty_files_fail_cleanly() {
        let (code, out) = run_capture(
            Command::Obs {
                path: "/nonexistent/slow.jsonl".into(),
            },
            "",
        );
        assert_eq!(code, 1);
        assert!(out.contains("error"), "{out}");
        let empty = write_kb("");
        let (code, out) = run_capture(
            Command::Obs {
                path: empty.0.clone(),
            },
            "",
        );
        assert_eq!(code, 1);
        assert!(out.contains("no span traces"), "{out}");
    }

    #[test]
    fn lab_run_end_to_end() {
        let workload = write_kb(
            "{\"workload\":\"smoke\"}\n\
             {\"task\":\"hep\",\"kb\":\"||Hep(x) | Jaun(x)||_x ~=_1 0.8; Jaun(Eric)\",\"query\":\"Hep(Eric)\",\"expect\":0.8}\n",
        );
        let report =
            std::env::temp_dir().join(format!("rwq-lab-report-{}.json", std::process::id()));
        let cmd = Command::Lab {
            workload: workload.0.clone(),
            config: rw_lab::RunConfig::default(),
            rows: None,
            report: report.clone(),
        };
        let (code, out) = run_capture(cmd, "");
        let report_json = std::fs::read_to_string(&report).unwrap();
        let _ = std::fs::remove_file(&report);
        assert_eq!(code, 0, "{out}");
        // Rows (2 cache settings × 3 default engines), table, gate lines
        // and the closing verdict all reach stdout.
        assert_eq!(out.matches("{\"task\":\"hep\"").count(), 6, "{out}");
        assert!(out.contains("\"engine\":\"montecarlo\""), "{out}");
        assert!(out.contains("gate cross-engine-equality"), "{out}");
        assert!(out.contains("PASS"), "{out}");
        assert!(report_json.contains("\"pass\":true"), "{report_json}");
    }

    #[test]
    fn lab_gate_violations_set_the_exit_code() {
        let workload = write_kb(
            "{\"task\":\"hep\",\"kb\":\"||Hep(x) | Jaun(x)||_x ~=_1 0.8; Jaun(Eric)\",\"query\":\"Hep(Eric)\",\"expect\":0.2}\n",
        );
        let report =
            std::env::temp_dir().join(format!("rwq-lab-report-bad-{}.json", std::process::id()));
        let cmd = Command::Lab {
            workload: workload.0.clone(),
            config: rw_lab::RunConfig::default(),
            rows: None,
            report: report.clone(),
        };
        let (code, out) = run_capture(cmd, "");
        let report_json = std::fs::read_to_string(&report).unwrap();
        let _ = std::fs::remove_file(&report);
        assert_eq!(code, 1, "{out}");
        assert!(out.contains("FAIL"), "{out}");
        assert!(report_json.contains("\"pass\":false"), "{report_json}");
    }

    #[test]
    fn lab_missing_workload_fails_cleanly() {
        let cmd = Command::Lab {
            workload: "/nonexistent/w.jsonl".into(),
            config: rw_lab::RunConfig::default(),
            rows: None,
            report: "unused.json".into(),
        };
        let (code, out) = run_capture(cmd, "");
        assert_eq!(code, 1);
        assert!(out.contains("error"), "{out}");
    }

    #[test]
    fn repl_answers_until_quit() {
        let kb = write_kb("||Hep(x) | Jaun(x)||_x ~=_1 0.8\nJaun(Eric)\n");
        let cmd = Command::Repl {
            file: kb.0.clone(),
            options: SessionOptions::default(),
        };
        let (code, out) = run_capture(cmd, "Hep(Eric)\n# comment\n\nquit\nHep(Eric)\n");
        assert_eq!(code, 0);
        // Answered exactly once: the post-quit line is never read.
        assert_eq!(out.matches("Pr∞").count(), 1, "{out}");
    }
}
