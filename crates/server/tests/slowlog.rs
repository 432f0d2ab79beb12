//! Release-tier slow-query regression guard.
//!
//! The known trap shape — the Monte-Carlo binary statistic — must land
//! in the `--slow-log` with a full span tree (request ⊃ queue-wait/answer
//! ⊃ stage:*), while a theorem-speed paper example and the
//! deterministic-causal temporal projection (answered by the maxent
//! stage in about a millisecond) must stay out of it. If an
//! optimisation regresses and either starts taking hundreds of
//! milliseconds, or the trap quietly stops being exercised, this test
//! notices.

use rw_server::{Client, Server, ServerConfig, Value};
use std::sync::Arc;

/// The §4 hepatitis example: answered by the theorems stage in
/// microseconds, so it must never cross the slow-log threshold.
const PAPER_KB: &str = "||Hep(x) | Jaun(x)||_x ~=_1 0.8; Jaun(Eric); Jaun(Tom)";

/// Binary-predicate statistic sampled by Monte-Carlo: the worlds are
/// functions on domain pairs, so sampling is the historical slow path.
const MC_TRAP_KB: &str = "||Likes(x, y)||_{x,y} ~=_1 0.25; Likes(A, B)";

/// The trap's sampler settings. Its interval never narrows to the
/// half-width `ci`, so it draws all `samples`: 2^20 draws take well over
/// a second in release, several times the 500 ms threshold, where the
/// default 2^18 took 450–720 ms and crossed it only some of the time.
const MC_TRAP_APPROX: &str = r#"{"seed":7,"samples":1048576,"ci":0.001}"#;

/// Deterministic-causal one-step projection (the shoot scenario):
/// compiled to a unary L-approx KB that the maximum-entropy stage answers
/// with a τ-sweep of small dual solves, so it must stay fast too.
const SHOOT_KB: &str = "@temporal causal\\nfluent Loaded\\nfluent Alive\\ninit Loaded\\ninit Alive\\nstep shoot requires Loaded causes !Alive";

#[test]
#[cfg_attr(
    debug_assertions,
    ignore = "trap queries are release-tier (the MC binary statistic takes minutes in debug)"
)]
fn trap_lands_in_the_slow_log_and_fast_paths_do_not() {
    let log = std::env::temp_dir().join(format!("rwq-slowlog-{}.jsonl", std::process::id()));
    let _ = std::fs::remove_file(&log);

    let server = Arc::new(
        Server::bind(ServerConfig {
            threads: 1,
            slow_log: Some(log.clone()),
            slow_ms: 500,
            ..ServerConfig::default()
        })
        .expect("bind"),
    );
    let addr = server.local_addr().expect("local addr");
    let runner = {
        let server = Arc::clone(&server);
        std::thread::spawn(move || server.run().expect("run"))
    };

    let mut c = Client::connect(addr).unwrap();
    for load in [
        format!(r#"{{"op":"load","kb":"paper","text":"{PAPER_KB}"}}"#),
        format!(r#"{{"op":"load","kb":"mc","text":"{MC_TRAP_KB}","approx":{MC_TRAP_APPROX}}}"#),
        format!(r#"{{"op":"load","kb":"shoot","text":"{SHOOT_KB}"}}"#),
    ] {
        let loaded = c.request_line(&load).unwrap();
        assert!(loaded.contains(r#""ok":true"#), "{load} => {loaded}");
    }
    for (kb, query) in [
        ("paper", "Hep(Eric)"),
        ("mc", "Likes(B, A)"),
        ("shoot", "Alive1(S)"),
    ] {
        let answer = c
            .request_line(&format!(
                r#"{{"op":"query","kb":"{kb}","query":"{query}"}}"#
            ))
            .unwrap();
        assert!(answer.contains(r#""ok":true"#), "{kb}/{query} => {answer}");
    }
    c.request_line(r#"{"op":"shutdown"}"#).unwrap();
    server.stop();
    runner.join().expect("server thread panicked");

    let content = std::fs::read_to_string(&log).expect("slow log written");
    let _ = std::fs::remove_file(&log);

    // The paper example and the maxent shoot stay under the threshold;
    // the trap crosses it.
    for query in ["Hep(Eric)", "Alive1(S)"] {
        assert!(
            !content.contains(query),
            "{query} regressed into the slow log:\n{content}"
        );
    }
    let query = "Likes(B, A)";
    let line = content
        .lines()
        .find(|l| l.contains(&format!(r#""query":"{query}""#)))
        .unwrap_or_else(|| panic!("trap {query} missing from slow log:\n{content}"));
    let value = Value::parse(line).expect("slow-log line is valid JSON");
    assert!(value.get("trace_id").and_then(Value::as_u64).is_some());
    assert!(value.get("fingerprint").and_then(Value::as_str).is_some());
    let elapsed = value.get("elapsed_us").and_then(Value::as_u64).unwrap();
    assert!(elapsed >= 500_000, "{query} logged below threshold: {line}");
    // Full span tree: a request root, its answer child, and at least one
    // parented stage span under the answer.
    let Some(Value::Arr(spans)) = value.get("spans") else {
        panic!("trap {query} has no span tree: {line}");
    };
    let name = |s: &Value| s.get("name").and_then(Value::as_str).map(String::from);
    assert!(spans.iter().any(|s| name(s).as_deref() == Some("request")));
    assert!(spans.iter().any(|s| name(s).as_deref() == Some("answer")));
    assert!(
        spans
            .iter()
            .any(|s| name(s).is_some_and(|n| n.starts_with("stage:"))
                && s.get("parent").and_then(Value::as_u64).is_some()),
        "no parented stage span for {query}: {line}"
    );
}
