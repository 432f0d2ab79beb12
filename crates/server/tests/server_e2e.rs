//! End-to-end tests over real TCP connections to an in-process
//! [`Server`]: the full request surface (ping/load/unload/list/query/
//! stats/shutdown), structured errors for malformed lines and unknown
//! KBs, admission-queue backpressure, and per-KB exact vs approximate
//! sessions, and cache hits answered on the event loop while every
//! worker is busy. The event-loop behaviors `rwq serve` and `rwq shard` share
//! (pipelined ordering, the connection ceiling) run against both
//! fronts.

use rw_server::{Client, Server, ServerConfig, Shard, ShardConfig, Value};
use std::net::SocketAddr;
use std::sync::Arc;
use std::time::Duration;

/// Binds a server, runs it on a background scoped thread, hands the
/// test a connected client plus a handle to open more, and shuts down
/// cleanly afterwards.
fn with_server<F>(config: ServerConfig, test: F)
where
    F: FnOnce(&std::net::SocketAddr),
{
    let server = Arc::new(Server::bind(config).expect("bind"));
    let addr = server.local_addr().expect("local addr");
    let runner = {
        let server = Arc::clone(&server);
        std::thread::spawn(move || server.run().expect("run"))
    };
    test(&addr);
    // Belt and braces: the test may already have sent a shutdown op.
    server.stop();
    runner.join().expect("server thread panicked");
}

/// The two serving fronts that run the shared readiness loop.
#[derive(Clone, Copy, Debug)]
enum Front {
    /// `rwq serve` itself.
    Server,
    /// `rwq shard` in front of one backend server.
    Shard,
}

const FRONTS: [Front; 2] = [Front::Server, Front::Shard];

/// Like [`with_server`], but the test talks to `front`. For
/// [`Front::Shard`] the shard takes `settings`' connection ceiling and a
/// default backend stands behind it.
fn with_front<F>(front: Front, settings: ServerConfig, test: F)
where
    F: FnOnce(&SocketAddr),
{
    match front {
        Front::Server => with_server(settings, test),
        Front::Shard => with_server(config(), |backend| {
            let shard = Arc::new(
                Shard::bind(ShardConfig {
                    backends: vec![backend.to_string()],
                    max_conns: settings.max_conns,
                    ..ShardConfig::default()
                })
                .expect("bind shard"),
            );
            let addr = shard.local_addr().expect("shard addr");
            let runner = {
                let shard = Arc::clone(&shard);
                std::thread::spawn(move || shard.run().expect("run shard"))
            };
            test(&addr);
            shard.stop();
            runner.join().expect("shard thread panicked");
        }),
    }
}

fn config() -> ServerConfig {
    ServerConfig {
        threads: 2,
        ..ServerConfig::default()
    }
}

const MED_KB: &str = "||Hep(x) | Jaun(x)||_x ~=_1 0.8; Jaun(Eric); Jaun(Tom)";

fn load_line(name: &str) -> String {
    format!(r#"{{"op":"load","kb":"{name}","text":"{MED_KB}"}}"#)
}

#[test]
fn full_request_surface_over_tcp() {
    with_server(config(), |addr| {
        let mut c = Client::connect(addr).unwrap();
        assert_eq!(
            c.request_line(r#"{"op":"ping"}"#).unwrap(),
            r#"{"ok":true,"op":"ping"}"#
        );
        // Load, list, query, stats, unload.
        let loaded = c.request_line(&load_line("med")).unwrap();
        assert!(
            loaded.starts_with(r#"{"ok":true,"op":"load","kb":"med""#),
            "{loaded}"
        );
        assert!(loaded.contains(r#""statements":3"#), "{loaded}");
        assert!(loaded.contains(r#""approx":false"#), "{loaded}");

        let list = c.request_line(r#"{"op":"list"}"#).unwrap();
        assert!(list.contains(r#""kb":"med""#), "{list}");

        let answer = c
            .request_line(r#"{"op":"query","kb":"med","query":"Hep(Eric)"}"#)
            .unwrap();
        assert!(answer.contains(r#""ok":true"#), "{answer}");
        assert!(answer.contains(r#""value":0.8"#), "{answer}");
        assert!(
            answer.contains(r#""provenance":"direct inference"#),
            "{answer}"
        );

        // A repeat is served from the shared cache.
        let again = c
            .request_line(r#"{"op":"query","kb":"med","query":"Hep(Eric)"}"#)
            .unwrap();
        assert!(again.contains(r#""cache_hit":true"#), "{again}");

        let stats = c.request_line(r#"{"op":"stats"}"#).unwrap();
        let v = Value::parse(&stats).expect("stats is valid JSON");
        assert_eq!(v.get("ok").and_then(Value::as_bool), Some(true), "{stats}");
        let queries = v.get("queries").expect("queries object");
        assert_eq!(queries.get("answered").and_then(Value::as_u64), Some(2));
        assert_eq!(queries.get("failed").and_then(Value::as_u64), Some(0));
        let cache = v.get("cache").expect("cache object");
        assert_eq!(
            cache.get("hits").and_then(Value::as_u64),
            Some(1),
            "{stats}"
        );
        // Both the pipeline stage and the synthetic cache stage appear in
        // the lifetime totals (in first-seen order).
        assert!(
            stats.contains(r#"{"stage":"theorems","answered":1"#),
            "{stats}"
        );
        assert!(
            stats.contains(r#"{"stage":"cache","answered":1"#),
            "{stats}"
        );
        assert!(stats.contains(r#""uptime_us":"#), "{stats}");

        let unloaded = c.request_line(r#"{"op":"unload","kb":"med"}"#).unwrap();
        assert!(unloaded.contains(r#""ok":true"#), "{unloaded}");
        let gone = c
            .request_line(r#"{"op":"query","kb":"med","query":"Hep(Eric)"}"#)
            .unwrap();
        assert!(gone.contains(r#""code":"unknown-kb""#), "{gone}");

        assert_eq!(
            c.request_line(r#"{"op":"shutdown"}"#).unwrap(),
            r#"{"ok":true,"op":"shutdown"}"#
        );
    });
}

#[test]
fn malformed_lines_get_structured_errors_without_disconnect() {
    with_server(config(), |addr| {
        let mut c = Client::connect(addr).unwrap();
        for bad in [
            "this is not json",
            r#"{"op":"frobnicate"}"#,
            r#"{"op":"query","kb":"x"}"#,
            r#"{"unclosed": ["#,
            "[1,2,3]",
            "{}",
        ] {
            let response = c.request_line(bad).unwrap();
            assert!(
                response.starts_with(r#"{"ok":false,"error":""#),
                "{bad} => {response}"
            );
            assert!(response.contains(r#""code":"bad-request""#), "{response}");
        }
        // The connection survived all of it.
        assert_eq!(
            c.request_line(r#"{"op":"ping"}"#).unwrap(),
            r#"{"ok":true,"op":"ping"}"#
        );
        // A query parse error keeps the batch-compatible error shape
        // (query echoed, no code field) and the connection open.
        c.request_line(&load_line("med")).unwrap();
        let bad_query = c
            .request_line(r#"{"op":"query","kb":"med","query":"Hep("}"#)
            .unwrap();
        assert!(
            bad_query.starts_with(r#"{"query":"Hep(","ok":false,"error":""#),
            "{bad_query}"
        );
        assert_eq!(
            c.request_line(r#"{"op":"ping"}"#).unwrap(),
            r#"{"ok":true,"op":"ping"}"#
        );
    });
}

#[test]
fn overload_is_rejected_with_backpressure_not_buffering() {
    // One worker, one queue slot, test ops on: occupy the worker and
    // the slot with sleeps, then watch a third request bounce.
    with_server(
        ServerConfig {
            threads: 1,
            max_queue: 1,
            test_ops: true,
            ..ServerConfig::default()
        },
        |addr| {
            let hold = |addr: std::net::SocketAddr| {
                std::thread::spawn(move || {
                    let mut c = Client::connect(addr).unwrap();
                    c.request_line(r#"{"op":"sleep","ms":600}"#).unwrap()
                })
            };
            let a = hold(*addr); // occupies the single worker
            std::thread::sleep(Duration::from_millis(150));
            let b = hold(*addr); // occupies the single queue slot
            std::thread::sleep(Duration::from_millis(150));

            let mut c = Client::connect(*addr).unwrap();
            c.request_line(&load_line("med")).unwrap(); // control op: not queued
            let rejected = c
                .request_line(r#"{"op":"query","kb":"med","query":"Hep(Eric)"}"#)
                .unwrap();
            assert!(rejected.contains(r#""code":"overloaded""#), "{rejected}");
            assert!(rejected.contains("queue full"), "{rejected}");

            // The held requests complete normally; afterwards the same
            // query is admitted and answered.
            assert!(a.join().unwrap().contains(r#""ok":true"#));
            assert!(b.join().unwrap().contains(r#""ok":true"#));
            let answered = c
                .request_line(r#"{"op":"query","kb":"med","query":"Hep(Eric)"}"#)
                .unwrap();
            assert!(answered.contains(r#""value":0.8"#), "{answered}");

            let stats = c.request_line(r#"{"op":"stats"}"#).unwrap();
            let v = Value::parse(&stats).unwrap();
            let queries = v.get("queries").unwrap();
            assert_eq!(
                queries.get("rejected").and_then(Value::as_u64),
                Some(1),
                "{stats}"
            );
        },
    );
}

fn query_line(kb: &str, query: &str) -> String {
    format!(r#"{{"op":"query","kb":"{kb}","query":"{query}"}}"#)
}

/// The `queries` and `cache` objects of a `stats` response.
fn stats(c: &mut Client) -> (Value, Value) {
    let stats = c.request_line(r#"{"op":"stats"}"#).unwrap();
    let v = Value::parse(&stats).unwrap();
    (
        v.get("queries").unwrap().clone(),
        v.get("cache").unwrap().clone(),
    )
}

#[test]
fn cache_hits_are_answered_while_the_worker_and_queue_are_held() {
    // The overload set-up again — one worker, one queue slot, both held
    // by sleeps — but this time the query was answered before: the
    // event loop's probe finds it in the cache and answers it inline.
    // A query never asked before still needs a worker and bounces, and
    // so does one too long to probe on the loop, cached or not.
    with_server(
        ServerConfig {
            threads: 1,
            max_queue: 1,
            test_ops: true,
            ..ServerConfig::default()
        },
        |addr| {
            let mut c = Client::connect(*addr).unwrap();
            c.request_line(&load_line("med")).unwrap();
            let cold = c.request_line(&query_line("med", "Hep(Eric)")).unwrap();
            assert!(cold.contains(r#""cache_hit":false"#), "{cold}");

            let hold = |addr: std::net::SocketAddr| {
                std::thread::spawn(move || {
                    let mut c = Client::connect(addr).unwrap();
                    c.request_line(r#"{"op":"sleep","ms":600}"#).unwrap()
                })
            };
            let a = hold(*addr); // occupies the single worker
            std::thread::sleep(Duration::from_millis(150));
            let b = hold(*addr); // occupies the single queue slot
            std::thread::sleep(Duration::from_millis(150));

            // A repeat and a syntactic variant are both hits.
            for query in ["Hep(Eric)", "!!Hep(Eric)"] {
                let warm = c.request_line(&query_line("med", query)).unwrap();
                assert!(warm.contains(r#""ok":true"#), "{warm}");
                assert!(warm.contains(r#""cache_hit":true"#), "{warm}");
                assert!(warm.contains(r#""value":0.8"#), "{warm}");
            }
            // A parse error needs no worker either.
            let bad = c.request_line(&query_line("med", "Hep(")).unwrap();
            assert!(
                bad.starts_with(r#"{"query":"Hep(","ok":false,"error":""#),
                "{bad}"
            );
            let fresh = c.request_line(&query_line("med", "Hep(Tom)")).unwrap();
            assert!(fresh.contains(r#""code":"overloaded""#), "{fresh}");
            let long = format!("Hep(Eric){}", " ".repeat(5000));
            let queued = c.request_line(&query_line("med", &long)).unwrap();
            assert!(queued.contains(r#""code":"overloaded""#), "{queued}");

            assert!(a.join().unwrap().contains(r#""ok":true"#));
            assert!(b.join().unwrap().contains(r#""ok":true"#));
            // Its worker probes the long query, and finds it cached.
            let answered = c.request_line(&query_line("med", &long)).unwrap();
            assert!(answered.contains(r#""cache_hit":true"#), "{answered}");
            let (queries, cache) = stats(&mut c);
            assert_eq!(queries.get("answered").and_then(Value::as_u64), Some(4));
            assert_eq!(queries.get("failed").and_then(Value::as_u64), Some(1));
            assert_eq!(queries.get("rejected").and_then(Value::as_u64), Some(2));
            assert_eq!(cache.get("hits").and_then(Value::as_u64), Some(3));
        },
    );
}

#[test]
fn an_inline_cache_hit_waits_for_the_reply_ahead_of_it() {
    with_server(
        ServerConfig {
            test_ops: true,
            ..config()
        },
        |addr| {
            let mut c = Client::connect(addr).unwrap();
            c.request_line(&load_line("med")).unwrap();
            let cold = c.request_line(&query_line("med", "Hep(Eric)")).unwrap();
            assert!(cold.contains(r#""cache_hit":false"#), "{cold}");
            // One burst: the hit is answered on the event loop at once,
            // long before the worker finishes the sleep, yet its reply
            // leaves second. A miss behind it keeps its place too.
            c.send_line(r#"{"op":"sleep","ms":300}"#).unwrap();
            c.send_line(&query_line("med", "Hep(Eric)")).unwrap();
            c.send_line(&query_line("med", "Hep(Tom)")).unwrap();
            c.send_line(&query_line("med", "(Hep(Eric))")).unwrap();
            assert_eq!(c.recv_line().unwrap(), r#"{"ok":true,"op":"sleep"}"#);
            for (query, hit) in [
                ("Hep(Eric)", true),
                ("Hep(Tom)", false),
                ("(Hep(Eric))", true),
            ] {
                let line = c.recv_line().unwrap();
                assert!(line.contains(&format!(r#""query":"{query}""#)), "{line}");
                assert!(
                    line.contains(&format!(r#""cache_hit":{hit}"#)),
                    "{query}: {line}"
                );
            }
            // Inline answers are booked like worker answers: every query
            // sent is counted as answered.
            let (queries, cache) = stats(&mut c);
            assert_eq!(queries.get("answered").and_then(Value::as_u64), Some(4));
            assert_eq!(queries.get("failed").and_then(Value::as_u64), Some(0));
            assert_eq!(cache.get("hits").and_then(Value::as_u64), Some(2));
        },
    );
}

/// `answered` of stage `stage` in a `stats` response's `stages` array.
fn stage_answered(c: &mut Client, stage: &str) -> Option<u64> {
    let stats = Value::parse(&c.request_line(r#"{"op":"stats"}"#).unwrap()).unwrap();
    let Some(Value::Arr(stages)) = stats.get("stages") else {
        panic!("no stages array");
    };
    stages
        .iter()
        .find(|s| s.get("stage").and_then(Value::as_str) == Some(stage))
        .and_then(|s| s.get("answered").and_then(Value::as_u64))
}

#[test]
fn pipelined_duplicates_behind_a_miss_run_the_pipeline_once() {
    // One worker, held by a sleep while eight copies of a maxent query are
    // framed: every probe on the event loop misses. The first copy runs
    // the pipeline; each copy behind it finds the answer on the worker's
    // uncounted second look, and every reply keeps its place.
    with_server(
        ServerConfig {
            threads: 1,
            test_ops: true,
            ..ServerConfig::default()
        },
        |addr| {
            let mut c = Client::connect(*addr).unwrap();
            let kb = "||Black(x) | Bird(x)||_x ~=_1 0.2; ||Bird(x)||_x ~=_2 0.1";
            c.request_line(&format!(r#"{{"op":"load","kb":"birds","text":"{kb}"}}"#))
                .unwrap();
            c.send_line(r#"{"op":"sleep","ms":300}"#).unwrap();
            for _ in 0..8 {
                c.send_line(&query_line("birds", "Black(Clyde)")).unwrap();
            }
            assert_eq!(c.recv_line().unwrap(), r#"{"ok":true,"op":"sleep"}"#);
            let belief = |line: &str| {
                let v = Value::parse(line).unwrap();
                v.get("belief")
                    .and_then(|b| b.get("value"))
                    .and_then(Value::as_f64)
            };
            let first = c.recv_line().unwrap();
            assert!(first.contains(r#""cache_hit":false"#), "{first}");
            assert!(first.contains("maximum entropy"), "{first}");
            for i in 1..8 {
                let line = c.recv_line().unwrap();
                assert!(line.contains(r#""query":"Black(Clyde)""#), "{line}");
                assert!(line.contains(r#""cache_hit":true"#), "{i}: {line}");
                assert_eq!(belief(&line), belief(&first), "{i}: {line}");
            }
            assert_eq!(stage_answered(&mut c, "maxent"), Some(1));
            assert_eq!(stage_answered(&mut c, "cache"), Some(7));
            // The eight probes are the only counted lookups.
            let (queries, cache) = stats(&mut c);
            assert_eq!(queries.get("answered").and_then(Value::as_u64), Some(8));
            assert_eq!(cache.get("hits").and_then(Value::as_u64), Some(0));
            assert_eq!(cache.get("misses").and_then(Value::as_u64), Some(8));
        },
    );
}

#[test]
fn a_deeply_nested_query_is_a_parse_error_and_the_connection_lives_on() {
    // Deep enough to overflow a worker's stack without the parser's
    // nesting cap, yet far below the line limit.
    with_server(config(), |addr| {
        let mut c = Client::connect(addr).unwrap();
        c.request_line(&load_line("med")).unwrap();
        let deep = format!("{}Hep(Eric){}", "(".repeat(1000), ")".repeat(1000));
        let bangs = format!("{}Hep(Eric)", "!".repeat(10_000));
        for query in [deep, bangs] {
            let line = c.request_line(&query_line("med", &query)).unwrap();
            assert!(line.contains(r#""ok":false"#), "{line}");
            assert!(line.contains("nesting deeper than"), "{line}");
        }
        let fine = c.request_line(&query_line("med", "Hep(Eric)")).unwrap();
        assert!(fine.contains(r#""value":0.8"#), "{fine}");
    });
}

/// `links` copies of `item` joined by `op`.
fn chain(item: &str, op: &str, links: usize) -> String {
    vec![item; links].join(op)
}

#[test]
fn hostile_chains_and_vocabularies_each_get_one_reply_and_the_connection_lives_on() {
    with_server(config(), |addr| {
        let mut c = Client::connect(addr).unwrap();
        c.request_line(&load_line("med")).unwrap();
        // Flat `&`/`or` chains are one n-ary node at any length: answered.
        for op in [" & ", " or "] {
            let query = chain("Hep(Eric)", op, 6000);
            let line = c.request_line(&query_line("med", &query)).unwrap();
            assert!(line.contains(r#""ok":true"#), "{op}: {line}");
        }
        // The chains that stay binary count toward the nesting cap.
        let iffs = chain("Hep(Eric)", " <=> ", 6000);
        let sums = format!("{} ~=_1 0.5", chain("||Hep(x)||_x", " + ", 6000));
        for query in [iffs, sums] {
            let line = c.request_line(&query_line("med", &query)).unwrap();
            assert!(line.contains(r#""ok":false"#), "{line}");
            assert!(line.contains("nesting deeper than"), "{line}");
        }
        // 72 unary predicates: every atom-set engine must decline before
        // allocating 2^72 atoms. One reply, whatever it says: the next
        // request's reply is its own.
        let facts: Vec<String> = (0..70).map(|i| format!("Q{i}(K{i})")).collect();
        let load = format!(
            r#"{{"op":"load","kb":"wide","text":"{MED_KB}; {}"}}"#,
            facts.join("; ")
        );
        let loaded = c.request_line(&load).unwrap();
        assert!(loaded.contains(r#""ok":true"#), "{loaded}");
        let wide = c
            .request_line(&query_line("wide", "Hep(Eric) & Hep(Tom)"))
            .unwrap();
        assert!(wide.contains(r#""query":"Hep(Eric) & Hep(Tom)""#), "{wide}");
        let fine = c.request_line(&query_line("med", "Hep(Eric)")).unwrap();
        assert!(fine.contains(r#""value":0.8"#), "{fine}");
    });
}

#[test]
fn oversized_lines_are_answered_and_resynced_not_buffered() {
    with_server(config(), |addr| {
        let mut c = Client::connect(addr).unwrap();
        // Lines past MAX_LINE get exactly one structured error each and
        // leave the connection usable — whether the overflow completes
        // with a newline (barely over) or streams far past the cap
        // (trips mid-line, then resynchronizes at the newline).
        for extra in [128, rw_server::MAX_LINE] {
            let huge = "x".repeat(rw_server::MAX_LINE + extra);
            let response = c.request_line(&huge).unwrap();
            assert!(response.contains(r#""code":"bad-request""#), "{response}");
            assert!(response.contains("exceeds"), "{response}");
            // Resynchronized: the next request works.
            assert_eq!(
                c.request_line(r#"{"op":"ping"}"#).unwrap(),
                r#"{"ok":true,"op":"ping"}"#
            );
        }
    });
}

#[test]
fn sleep_op_is_refused_without_test_ops() {
    with_server(config(), |addr| {
        let mut c = Client::connect(addr).unwrap();
        let response = c.request_line(r#"{"op":"sleep","ms":1}"#).unwrap();
        assert!(response.contains(r#""code":"bad-request""#), "{response}");
        assert!(response.contains("test-only"), "{response}");
    });
}

#[test]
fn exact_and_approx_sessions_coexist_per_loaded_kb() {
    with_server(config(), |addr| {
        let mut c = Client::connect(addr).unwrap();
        c.request_line(&load_line("exact")).unwrap();
        let loaded = c
            .request_line(&format!(
                r#"{{"op":"load","kb":"mc","text":"{MED_KB}","approx":{{"seed":42,"samples":32768}}}}"#
            ))
            .unwrap();
        assert!(loaded.contains(r#""approx":true"#), "{loaded}");

        // The trap conjunction: sampled on the approx KB...
        let sampled = c
            .request_line(r#"{"op":"query","kb":"mc","query":"Hep(Eric) & Hep(Tom)"}"#)
            .unwrap();
        assert!(sampled.contains(r#""type":"approximate""#), "{sampled}");
        assert!(sampled.contains(r#""mc":{"drawn":"#), "{sampled}");
        // ...and the exact KB answers a theorem query exactly, with no
        // cross-talk from the sampled keyspace.
        let exact = c
            .request_line(r#"{"op":"query","kb":"exact","query":"Hep(Eric)"}"#)
            .unwrap();
        assert!(exact.contains(r#""type":"point","value":0.8"#), "{exact}");
        assert!(exact.contains(r#""cache_hit":false"#), "{exact}");

        // Same seed, same KB: reloading under another name and re-asking
        // hits the shared cache (sampling is deterministic, so the entry
        // is reusable).
        c.request_line(&format!(
            r#"{{"op":"load","kb":"mc2","text":"{MED_KB}","approx":{{"seed":42,"samples":32768}}}}"#
        ))
        .unwrap();
        let again = c
            .request_line(r#"{"op":"query","kb":"mc2","query":"Hep(Eric) & Hep(Tom)"}"#)
            .unwrap();
        assert!(again.contains(r#""cache_hit":true"#), "{again}");
    });
}

#[test]
fn pipelined_requests_answer_in_request_order_and_resync_after_oversize() {
    for front in FRONTS {
        with_front(front, config(), |addr| {
            let mut c = Client::connect(addr).unwrap();
            // One burst, no reads in between: control ops, queries, a
            // malformed line and an oversized line all pipeline through the
            // event loop, and the answers come back strictly in request
            // order — the oversized line costs exactly one error and the
            // requests behind it stay correctly framed (the oversize
            // resync regression pin, at wire level).
            c.send_line(r#"{"op":"ping"}"#).unwrap();
            c.send_line(&load_line("med")).unwrap();
            c.send_line(r#"{"op":"query","kb":"med","query":"Hep(Eric)"}"#)
                .unwrap();
            c.send_line("garbage that is not json").unwrap();
            c.send_line(&"x".repeat(rw_server::MAX_LINE + 1)).unwrap();
            c.send_line(r#"{"op":"query","kb":"med","query":"!Hep(Eric)"}"#)
                .unwrap();
            c.send_line(r#"{"op":"ping"}"#).unwrap();

            assert_eq!(c.recv_line().unwrap(), r#"{"ok":true,"op":"ping"}"#);
            assert!(c.recv_line().unwrap().contains(r#""op":"load""#));
            let first = c.recv_line().unwrap();
            assert!(
                first.contains(r#""query":"Hep(Eric)""#) && first.contains(r#""value":0.8"#),
                "{first}"
            );
            let bad = c.recv_line().unwrap();
            assert!(bad.contains(r#""code":"bad-request""#), "{bad}");
            let oversized = c.recv_line().unwrap();
            assert!(
                oversized.contains(r#""code":"bad-request""#) && oversized.contains("exceeds"),
                "{oversized}"
            );
            let second = c.recv_line().unwrap();
            assert!(
                second.contains(r#""query":"!Hep(Eric)""#) && second.contains(r#""value":0.2"#),
                "{second}"
            );
            assert_eq!(c.recv_line().unwrap(), r#"{"ok":true,"op":"ping"}"#);
        });
    }
}

#[test]
fn idle_connections_are_evicted_and_active_ones_are_not() {
    with_server(
        ServerConfig {
            threads: 1,
            idle_timeout_ms: 150,
            ..ServerConfig::default()
        },
        |addr| {
            let mut idle = Client::connect(addr).unwrap();
            assert!(idle
                .request_line(r#"{"op":"ping"}"#)
                .unwrap()
                .contains("ping"));
            let mut active = Client::connect(addr).unwrap();
            // The active connection keeps traffic flowing through the
            // idle window; the quiet one gets evicted.
            for _ in 0..12 {
                std::thread::sleep(Duration::from_millis(50));
                assert!(active
                    .request_line(r#"{"op":"ping"}"#)
                    .unwrap()
                    .contains("ping"));
            }
            let evicted = idle.request_line(r#"{"op":"ping"}"#);
            assert!(evicted.is_err(), "idle conn survived: {evicted:?}");
            let metrics = active.request_line(r#"{"op":"metrics"}"#).unwrap();
            let v = Value::parse(&metrics).unwrap();
            let closed = v
                .get("metrics")
                .and_then(|m| m.get("counters"))
                .and_then(|c| c.get("conns.idle_closed"))
                .and_then(Value::as_u64)
                .unwrap_or(0);
            assert!(closed >= 1, "{metrics}");
        },
    );
}

#[test]
fn connections_past_the_ceiling_are_refused_with_a_structured_error() {
    for front in FRONTS {
        with_front(
            front,
            ServerConfig {
                threads: 1,
                max_conns: 2,
                ..ServerConfig::default()
            },
            |addr| {
                let mut a = Client::connect(addr).unwrap();
                let mut b = Client::connect(addr).unwrap();
                assert!(a.request_line(r#"{"op":"ping"}"#).unwrap().contains("ping"));
                assert!(b.request_line(r#"{"op":"ping"}"#).unwrap().contains("ping"));
                // The third connection is accepted just long enough to be
                // told why it is refused.
                let mut refused = Client::connect(addr).unwrap();
                let line = refused.recv_line().unwrap();
                assert!(line.contains(r#""code":"overloaded""#), "{line}");
                assert!(line.contains("connection limit reached"), "{line}");
                // Closing one admitted connection frees the slot.
                drop(a);
                std::thread::sleep(Duration::from_millis(100));
                let mut c = Client::connect(addr).unwrap();
                assert!(c.request_line(r#"{"op":"ping"}"#).unwrap().contains("ping"));
            },
        );
    }
}

#[test]
fn graceful_drain_completes_in_flight_work_and_refuses_new_connects() {
    let server = Arc::new(
        Server::bind(ServerConfig {
            threads: 1,
            test_ops: true,
            ..ServerConfig::default()
        })
        .unwrap(),
    );
    let addr = server.local_addr().unwrap();
    let runner = {
        let server = Arc::clone(&server);
        std::thread::spawn(move || server.run().expect("run"))
    };

    // A request is mid-flight on the single worker when shutdown lands.
    let mut inflight = Client::connect(addr).unwrap();
    inflight.send_line(r#"{"op":"sleep","ms":700}"#).unwrap();
    std::thread::sleep(Duration::from_millis(150));

    let mut ctl = Client::connect(addr).unwrap();
    assert!(ctl
        .request_line(r#"{"op":"shutdown"}"#)
        .unwrap()
        .contains("shutdown"));

    // While the drain waits on the in-flight sleep, a new connection is
    // told the server is going away instead of hanging in the backlog.
    let mut late = Client::connect(addr).unwrap();
    let refusal = late.recv_line().unwrap();
    assert!(refusal.contains(r#""code":"shutting-down""#), "{refusal}");

    // The admitted request still completes and flushes before close.
    assert_eq!(inflight.recv_line().unwrap(), r#"{"ok":true,"op":"sleep"}"#);
    runner.join().expect("run() returns once drained");
}

#[test]
fn shutdown_request_stops_the_whole_server() {
    let server = Server::bind(config()).unwrap();
    let addr = server.local_addr().unwrap();
    let runner = std::thread::spawn(move || {
        server.run().expect("run");
        // Returning from run() drops the Server — and its listener.
    });
    let mut c = Client::connect(addr).unwrap();
    assert!(c
        .request_line(r#"{"op":"shutdown"}"#)
        .unwrap()
        .contains("shutdown"));
    // run() returns on its own — no external stop() needed — and once
    // the listener is dropped new connections are refused.
    runner.join().expect("join");
    std::thread::sleep(Duration::from_millis(50));
    assert!(Client::connect(addr).is_err());
}
