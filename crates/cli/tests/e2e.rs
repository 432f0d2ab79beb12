//! End-to-end tests that exercise the compiled `rwq` binary.

use std::io::Write;
use std::path::PathBuf;
use std::process::{Command, Stdio};

fn rwq() -> Command {
    Command::new(env!("CARGO_BIN_EXE_rwq"))
}

fn kb_file(name: &str, content: &str) -> PathBuf {
    let path = std::env::temp_dir().join(format!("rwq-e2e-{}-{name}.rwkb", std::process::id()));
    std::fs::write(&path, content).unwrap();
    path
}

#[test]
fn query_prints_answer_and_exits_zero() {
    let kb = kb_file("hep", "||Hep(x) | Jaun(x)||_x ~=_1 0.8\nJaun(Eric)\n");
    let out = rwq()
        .args(["query", kb.to_str().unwrap(), "Hep(Eric)"])
        .output()
        .unwrap();
    let stdout = String::from_utf8(out.stdout).unwrap();
    assert!(out.status.success(), "{stdout}");
    assert!(stdout.contains("0.8"), "{stdout}");
    assert!(stdout.contains("direct inference"), "{stdout}");
    let _ = std::fs::remove_file(kb);
}

#[test]
fn bad_arguments_exit_2_with_usage() {
    let out = rwq().args(["frobnicate"]).output().unwrap();
    assert_eq!(out.status.code(), Some(2));
    let stderr = String::from_utf8(out.stderr).unwrap();
    assert!(stderr.contains("USAGE"), "{stderr}");
}

#[test]
fn missing_file_exits_1() {
    let out = rwq()
        .args(["query", "/nonexistent.rwkb", "P(C)"])
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(1));
}

#[test]
fn help_lists_options() {
    let out = rwq().args(["help"]).output().unwrap();
    assert!(out.status.success());
    let stdout = String::from_utf8(out.stdout).unwrap();
    assert!(stdout.contains("--prior"), "{stdout}");
}

#[test]
fn batch_jsonl_round_trip_with_bad_line() {
    // Mirrors `bad_query_sets_exit_code_but_answers_others`: one bad line
    // fails the exit code while every other line is still answered, all
    // against a single loaded KB in a single process.
    let kb = kb_file("batch", "||Hep(x) | Jaun(x)||_x ~=_1 0.8\nJaun(Eric)\n");
    let mut child = rwq()
        .args(["batch", kb.to_str().unwrap()])
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .spawn()
        .unwrap();
    child
        .stdin
        .as_mut()
        .unwrap()
        .write_all(b"Hep(Eric)\nHep(\n!Hep(Eric)\n")
        .unwrap();
    let out = child.wait_with_output().unwrap();
    let stdout = String::from_utf8(out.stdout).unwrap();
    assert_eq!(out.status.code(), Some(1), "{stdout}");
    let lines: Vec<&str> = stdout.lines().collect();
    assert_eq!(lines.len(), 4, "{stdout}");
    assert!(lines[0].contains(r#""ok":true"#), "{stdout}");
    assert!(
        lines[0].contains(r#""provenance":"direct inference"#),
        "{stdout}"
    );
    assert!(lines[0].contains(r#""trace":["#), "{stdout}");
    assert!(lines[1].contains(r#""ok":false"#), "{stdout}");
    assert!(lines[2].contains(r#""ok":true"#), "{stdout}");
    // The closing summary line makes the failure count machine-readable
    // (previously it was only visible by counting stderr lines).
    assert!(
        lines[3].starts_with(r#"{"summary":{"#) && lines[3].contains(r#""answered":2,"failed":1"#),
        "{stdout}"
    );
    let _ = std::fs::remove_file(kb);
}

#[test]
fn batch_parallel_cached_round_trip() {
    let kb = kb_file("batch-par", "||Hep(x) | Jaun(x)||_x ~=_1 0.8\nJaun(Eric)\n");
    let mut child = rwq()
        .args(["batch", kb.to_str().unwrap(), "--threads", "4", "--cache"])
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .spawn()
        .unwrap();
    // 12 queries over 2 canonical forms (commuted conjunctions collapse).
    let mut input = String::new();
    for i in 0..6 {
        input.push_str("Hep(Eric)\n");
        input.push_str(if i % 2 == 0 {
            "Hep(Eric) & Jaun(Eric)\n"
        } else {
            "Jaun(Eric) & Hep(Eric)\n"
        });
    }
    child
        .stdin
        .as_mut()
        .unwrap()
        .write_all(input.as_bytes())
        .unwrap();
    let out = child.wait_with_output().unwrap();
    let stdout = String::from_utf8(out.stdout).unwrap();
    assert!(out.status.success(), "{stdout}");
    let lines: Vec<&str> = stdout.lines().collect();
    assert_eq!(lines.len(), 13, "{stdout}");
    // Every answer line (in input order) carries the same belief.
    for l in &lines[..12] {
        assert!(l.contains(r#""ok":true"#), "{stdout}");
        assert!(l.contains(r#""value":0.8"#), "{stdout}");
    }
    // With 4 workers and 12 queries over 2 canonical forms, at least
    // 12 - 2×4 hits are guaranteed even under the worst interleaving.
    let summary = lines[12];
    assert!(summary.contains(r#""answered":12,"failed":0"#), "{stdout}");
    assert!(summary.contains(r#""threads":4"#), "{stdout}");
    let hits: usize = summary
        .split(r#""cache_hits":"#)
        .nth(1)
        .unwrap()
        .chars()
        .take_while(|c| c.is_ascii_digit())
        .collect::<String>()
        .parse()
        .unwrap();
    assert!(hits >= 4, "{stdout}");
    let _ = std::fs::remove_file(kb);
}

/// Replaces the digits after each `"key":` in `line` with `#`.
fn mask_keys(line: &str, keys: &[&str]) -> String {
    let mut out = line.to_string();
    for key in keys {
        let tag = format!("\"{key}\":");
        let mut masked = String::new();
        let mut rest = out.as_str();
        while let Some(i) = rest.find(&tag) {
            masked.push_str(&rest[..i + tag.len()]);
            masked.push('#');
            rest = rest[i + tag.len()..].trim_start_matches(|c: char| c.is_ascii_digit());
        }
        masked.push_str(rest);
        out = masked;
    }
    out
}

/// The JSON keys of `line`, in order.
fn json_keys(line: &str) -> Vec<&str> {
    line.split('"')
        .collect::<Vec<_>>()
        .windows(2)
        .filter(|w| w[1].starts_with(':'))
        .map(|w| w[0])
        .collect()
}

#[test]
fn batch_summary_is_the_same_at_every_thread_count() {
    // No duplicate queries, so no answer depends on which worker reached
    // the cache first; one parse error, and one query that falls through
    // to enumeration (the only one that counts worlds, so the
    // denominator-cache counters cannot race either).
    let kb = kb_file(
        "batch-same",
        "||Hep(x) | Jaun(x)||_x ~=_1 0.8\nJaun(Eric)\nJaun(Tom)\n",
    );
    let input = "Hep(Eric)\nHep(Eric) & Hep(Tom)\nHep(\n!Hep(Tom)\nLikes(Eric, Tom)\n";
    // The statistic has no world below N = 4, so the scan starts there.
    let run = |extra: &[&str]| {
        let mut child = rwq()
            .args(["batch", kb.to_str().unwrap()])
            .args(["--min-n", "4", "--max-n", "5"])
            .args(extra)
            .stdin(Stdio::piped())
            .stdout(Stdio::piped())
            .spawn()
            .unwrap();
        child
            .stdin
            .as_mut()
            .unwrap()
            .write_all(input.as_bytes())
            .unwrap();
        let out = child.wait_with_output().unwrap();
        assert_eq!(out.status.code(), Some(1), "the parse error fails the run");
        let stdout = String::from_utf8(out.stdout).unwrap();
        let mut lines: Vec<String> = stdout.lines().map(str::to_string).collect();
        assert_eq!(lines.len(), 6, "{stdout}");
        let summary = lines.pop().unwrap();
        (lines, summary)
    };
    let (one, one_summary) = run(&["--threads", "1"]);
    let (two, two_summary) = run(&["--threads", "2"]);
    assert!(
        one[4].contains(r#""provenance":"world enumeration"#),
        "{}",
        one[4]
    );
    for (a, b) in one.iter().zip(&two) {
        assert_eq!(mask_keys(a, &["elapsed_us"]), mask_keys(b, &["elapsed_us"]));
    }
    let summary_mask = ["threads", "wall_us", "cpu_us", "elapsed_us"];
    assert!(
        one_summary.contains(r#""stages":[{"stage":"theorems""#),
        "{one_summary}"
    );
    assert_eq!(
        mask_keys(&one_summary, &summary_mask),
        mask_keys(&two_summary, &summary_mask)
    );

    let (_, one_cached) = run(&["--threads", "1", "--cache"]);
    let (_, two_cached) = run(&["--threads", "2", "--cache"]);
    assert!(
        one_cached.contains(r#""stages":[{"stage":"cache""#),
        "{one_cached}"
    );
    assert_eq!(json_keys(&one_cached), json_keys(&two_cached));
    let _ = std::fs::remove_file(kb);
}

#[test]
fn serve_preloads_default_kb_and_answers_clients() {
    use std::io::{BufRead, BufReader};
    let kb = kb_file("serve", "||Hep(x) | Jaun(x)||_x ~=_1 0.8\nJaun(Eric)\n");
    let mut serve = rwq()
        .args(["serve", kb.to_str().unwrap(), "--addr", "127.0.0.1:0"])
        .stdin(Stdio::null())
        .stdout(Stdio::piped())
        .spawn()
        .unwrap();
    // First stdout line announces the bound address and the preload.
    let mut line = String::new();
    BufReader::new(serve.stdout.as_mut().unwrap())
        .read_line(&mut line)
        .unwrap();
    assert!(line.contains(r#""kbs":["default"]"#), "{line}");
    let addr = line
        .split(r#""addr":""#)
        .nth(1)
        .unwrap()
        .split('"')
        .next()
        .unwrap()
        .to_string();

    let mut client = rwq()
        .args(["client", "--addr", &addr])
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .spawn()
        .unwrap();
    client
        .stdin
        .as_mut()
        .unwrap()
        .write_all(
            b"{\"op\":\"query\",\"kb\":\"default\",\"query\":\"Hep(Eric)\"}\n\
              {\"op\":\"shutdown\"}\n",
        )
        .unwrap();
    let out = client.wait_with_output().unwrap();
    let stdout = String::from_utf8(out.stdout).unwrap();
    assert!(out.status.success(), "{stdout}");
    let lines: Vec<&str> = stdout.lines().collect();
    assert_eq!(lines.len(), 2, "{stdout}");
    assert!(lines[0].contains(r#""value":0.8"#), "{stdout}");
    assert!(lines[1].contains("shutdown"), "{stdout}");
    // The shutdown op ends the server process cleanly.
    assert!(serve.wait().unwrap().success());
    let _ = std::fs::remove_file(kb);
}

#[test]
fn client_without_server_fails_with_json_error() {
    // A port from the ephemeral range with (almost certainly) no
    // listener; connect failure must still produce a JSON line.
    let mut child = rwq()
        .args(["client", "--addr", "127.0.0.1:1"])
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .spawn()
        .unwrap();
    child.stdin.take(); // close stdin immediately
    let out = child.wait_with_output().unwrap();
    assert_eq!(out.status.code(), Some(1));
    let stdout = String::from_utf8(out.stdout).unwrap();
    assert!(
        stdout.starts_with(r#"{"ok":false,"error":"cannot connect"#),
        "{stdout}"
    );
}

#[test]
fn threads_rejection_is_identical_for_query_and_repl() {
    let mut messages = Vec::new();
    for verb in ["query", "repl"] {
        let out = rwq()
            .args([verb, "kb.rwkb", "P(C)", "--threads", "2"])
            .output()
            .unwrap();
        assert_eq!(out.status.code(), Some(2), "{verb}");
        let stderr = String::from_utf8(out.stderr).unwrap();
        let first = stderr.lines().next().unwrap_or("").to_string();
        assert!(first.contains("--threads applies to"), "{verb}: {first}");
        messages.push(first);
    }
    assert_eq!(
        messages[0], messages[1],
        "error text must not depend on the verb"
    );
}

#[test]
fn repl_round_trip() {
    let kb = kb_file("repl", "P(C)\n");
    let mut child = rwq()
        .args(["repl", kb.to_str().unwrap()])
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .spawn()
        .unwrap();
    child
        .stdin
        .as_mut()
        .unwrap()
        .write_all(b"P(C)\nquit\n")
        .unwrap();
    let out = child.wait_with_output().unwrap();
    let stdout = String::from_utf8(out.stdout).unwrap();
    assert!(out.status.success(), "{stdout}");
    assert!(stdout.contains("Pr∞(P(C)"), "{stdout}");
    let _ = std::fs::remove_file(kb);
}

use rw_cli::json::mask_times;

#[test]
fn approx_batch_answers_trap_queries_identically_across_thread_counts() {
    // The PR-2 trap shape: a conjunction over individuals sharing
    // statistics misses every theorem pattern. With --approx it is
    // answered by the sampling stage, and a fixed --mc-seed makes the
    // JSON identical (modulo wall times) at any --threads count.
    let kb = kb_file(
        "approx",
        "||Hep(x) | Jaun(x)||_x ~=_1 0.8\nJaun(Eric)\nJaun(Tom)\n",
    );
    let input = "Hep(Eric) & Hep(Tom)\nHep(Eric)\n";
    let run = |threads: &str| {
        let mut child = rwq()
            .args([
                "batch",
                kb.to_str().unwrap(),
                "--approx",
                "--mc-seed",
                "7",
                "--samples",
                "32768",
                "--threads",
                threads,
            ])
            .stdin(Stdio::piped())
            .stdout(Stdio::piped())
            .spawn()
            .unwrap();
        child
            .stdin
            .as_mut()
            .unwrap()
            .write_all(input.as_bytes())
            .unwrap();
        let out = child.wait_with_output().unwrap();
        assert!(out.status.success());
        String::from_utf8(out.stdout).unwrap()
    };
    let one = run("1");
    let four = run("4");
    let lines: Vec<&str> = one.lines().collect();
    assert!(lines[0].contains(r#""type":"approximate""#), "{one}");
    assert!(lines[0].contains(r#""mc":{"drawn":"#), "{one}");
    // The direct-inference query still resolves exactly, before sampling.
    assert!(lines[1].contains(r#""value":0.8"#), "{one}");
    assert!(lines[1].contains("direct inference"), "{one}");
    // Result lines are byte-identical across thread counts; summaries
    // legitimately differ in the reported thread count.
    let result_lines = |s: &str| s.lines().take(2).map(mask_times).collect::<Vec<_>>();
    assert_eq!(result_lines(&one), result_lines(&four), "\n{one}\n{four}");
    let _ = std::fs::remove_file(kb);
}

#[test]
fn approx_query_prints_ci_and_respects_seed() {
    let kb = kb_file(
        "approx-q",
        "||Hep(x) | Jaun(x)||_x ~=_1 0.8\nJaun(Eric)\nJaun(Tom)\n",
    );
    let run = |extra: &[&str]| {
        let mut args = vec![
            "query",
            kb.to_str().unwrap(),
            "Hep(Eric) & Hep(Tom)",
            "--approx",
        ];
        args.extend_from_slice(extra);
        let out = rwq().args(&args).output().unwrap();
        assert!(out.status.success());
        String::from_utf8(out.stdout).unwrap()
    };
    let a = run(&["--mc-seed", "11"]);
    assert!(a.contains("±"), "{a}");
    assert!(a.contains("Monte-Carlo sampling"), "{a}");
    // Same seed, same answer; the sampler is a pure function of it.
    assert_eq!(a, run(&["--mc-seed", "11"]));
    let _ = std::fs::remove_file(kb);
}
