//! Snapshot integrity: property-tested save/load roundtrips over
//! generated KBs, a corruption suite (truncation, byte flips), and a
//! server-level warm-restart check.
//!
//! The durability contract under test:
//!
//! * **roundtrip** — saving a warm registry and loading it into a fresh
//!   one restores every KB and cache entry bit-identically (re-saving
//!   the restored state reproduces the same snapshot entries), and
//!   every previously answered query replays as a cache hit with a
//!   byte-identical response line (modulo wall times);
//! * **corruption** — truncating the snapshot at any byte, or flipping
//!   any single byte, yields a structured [`SnapshotError`] (never a
//!   panic) and restores **nothing**: the registry is exactly as cold
//!   as a fresh start, so a stale or torn snapshot can never leak an
//!   answer;
//! * **warm restart** — a [`Server`] with a snapshot dir that drains
//!   and restarts serves its first golden replay from the cache,
//!   byte-identical to the pre-restart answer.

use proptest::prelude::*;
use rw_core::AnswerCache;
use rw_server::json::mask_times;
use rw_server::proto::{KbSource, ScanParams};
use rw_server::snapshot::{self, CACHE_FILE, REGISTRY_FILE};
use rw_server::{Client, KbRegistry, Server, ServerConfig};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// A unique per-invocation temp directory (cleaned by the caller).
fn temp_dir(tag: &str) -> PathBuf {
    static COUNTER: AtomicU64 = AtomicU64::new(0);
    let id = COUNTER.fetch_add(1, Ordering::Relaxed);
    let dir = std::env::temp_dir().join(format!("rwsnap-it-{}-{tag}-{id}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// Exactly representable statistic values, so float formatting is not
/// what is under test.
const VALS: &[&str] = &["0.125", "0.25", "0.5", "0.75", "0.8125"];

/// Generates a theorem-speed KB (direct-inference statistics over one
/// evidence literal — sub-millisecond even in debug builds) plus the
/// queries it answers.
fn kb_and_queries() -> impl Strategy<Value = (String, Vec<String>)> {
    proptest::collection::vec(0usize..VALS.len(), 1..4).prop_map(|idxs| {
        let mut text = String::from("Jaun(Eric)\n");
        let mut queries = Vec::new();
        for (i, vi) in idxs.iter().enumerate() {
            text.push_str(&format!("||P{i}(x) | Jaun(x)||_x ~=_1 {}\n", VALS[*vi]));
            queries.push(format!("P{i}(Eric)"));
        }
        (text, queries)
    })
}

/// Warms a fresh registry with the generated KBs and returns each
/// query's first response line (keyed for later comparison).
fn warm(kbs: &[(String, Vec<String>)]) -> (KbRegistry, Vec<String>) {
    let reg = KbRegistry::new(Arc::new(AnswerCache::new()));
    let mut lines = Vec::new();
    for (i, (text, queries)) in kbs.iter().enumerate() {
        let name = format!("kb{i}");
        reg.load(
            &name,
            &KbSource::Text(text.clone()),
            None,
            ScanParams::default(),
        )
        .unwrap_or_else(|e| panic!("generated KB must load: {}", e.message));
        for q in queries {
            let (line, ok) = reg.get(&name).unwrap().answer_json_line(q);
            assert!(ok, "{line}");
            lines.push(line);
        }
    }
    (reg, lines)
}

/// The snapshot's entry lines (header and checksum trailer stripped),
/// sorted — cache export order follows hash-map iteration, so equality
/// is up to permutation while each line itself must be bit-identical.
fn sorted_entries(dir: &Path, file: &str) -> Vec<String> {
    let content = std::fs::read_to_string(dir.join(file)).expect("snapshot file");
    let mut lines: Vec<String> = content
        .lines()
        .skip(1)
        .filter(|l| !l.starts_with(r#"{"checksum""#))
        .map(str::to_string)
        .collect();
    lines.sort();
    lines
}

/// A cold line and its warm replay agree on the semantic payload —
/// query, belief, provenance — once wall times are masked and the
/// fields that *record how the answer was produced this time* are
/// neutralized: `cache_hit` (false on first compute, true on replay)
/// and the stage trace (`theorems` cold, `cache` warm).
fn comparable(line: &str) -> String {
    let line = match line.find(r#","trace":["#) {
        Some(i) => format!("{}}}", &line[..i]),
        None => line.to_string(),
    };
    mask_times(&line).replace(r#""cache_hit":true"#, r#""cache_hit":false"#)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    #[test]
    fn roundtrip_restores_registry_and_cache_bit_identically(
        kbs in proptest::collection::vec(kb_and_queries(), 1..3)
    ) {
        let dir = temp_dir("roundtrip");
        let (reg, cold_lines) = warm(&kbs);
        let saved = snapshot::save(&dir, &reg).expect("save");
        prop_assert_eq!(saved.kbs, kbs.len());
        prop_assert!(saved.answers >= 1, "{:?}", saved);

        let fresh = KbRegistry::new(Arc::new(AnswerCache::new()));
        let loaded = snapshot::load(&dir, &fresh)
            .expect("load")
            .expect("snapshot present");
        prop_assert_eq!(saved.kbs, loaded.kbs);
        prop_assert_eq!(saved.answers, loaded.answers);
        prop_assert_eq!(saved.denoms, loaded.denoms);

        // Re-saving the restored state writes the same entries
        // bit-for-bit.
        let dir2 = temp_dir("resave");
        snapshot::save(&dir2, &fresh).expect("re-save");
        prop_assert_eq!(
            sorted_entries(&dir, REGISTRY_FILE),
            sorted_entries(&dir2, REGISTRY_FILE)
        );
        prop_assert_eq!(
            sorted_entries(&dir, CACHE_FILE),
            sorted_entries(&dir2, CACHE_FILE)
        );

        // Every query replays warm and byte-identical (modulo times).
        let mut cold = cold_lines.iter();
        for (i, (_, queries)) in kbs.iter().enumerate() {
            for q in queries {
                let (line, ok) = fresh.get(&format!("kb{i}")).unwrap().answer_json_line(q);
                prop_assert!(ok, "{}", line);
                prop_assert!(line.contains(r#""cache_hit":true"#), "{}", line);
                prop_assert_eq!(comparable(cold.next().unwrap()), comparable(&line));
            }
        }
        let _ = std::fs::remove_dir_all(&dir);
        let _ = std::fs::remove_dir_all(&dir2);
    }

    #[test]
    fn truncated_snapshots_reject_and_restore_nothing(
        kbs in proptest::collection::vec(kb_and_queries(), 1..2),
        cut in 0usize..4096,
        target_cache in any::<bool>()
    ) {
        let dir = temp_dir("trunc");
        let (reg, _) = warm(&kbs);
        snapshot::save(&dir, &reg).expect("save");
        let path = dir.join(if target_cache { CACHE_FILE } else { REGISTRY_FILE });
        let bytes = std::fs::read(&path).expect("snapshot file");
        // Any proper prefix is a torn write; the full file is skipped.
        let cut = cut % bytes.len();
        std::fs::write(&path, &bytes[..cut]).unwrap();

        let fresh = KbRegistry::new(Arc::new(AnswerCache::new()));
        let err = snapshot::load(&dir, &fresh)
            .expect_err("a torn snapshot must be rejected");
        // Structured rejection — the code is one of the defined classes,
        // and nothing was committed (cold start).
        prop_assert!(
            ["truncated", "checksum-mismatch", "bad-header", "corrupt", "io"]
                .contains(&err.code()),
            "{}: {}", err.code(), err
        );
        prop_assert!(fresh.is_empty(), "rejected snapshot must restore nothing");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn flipped_bytes_reject_and_restore_nothing(
        kbs in proptest::collection::vec(kb_and_queries(), 1..2),
        offset in 0usize..4096,
        bit in 0u8..8,
        target_cache in any::<bool>()
    ) {
        let dir = temp_dir("flip");
        let (reg, _) = warm(&kbs);
        snapshot::save(&dir, &reg).expect("save");
        let path = dir.join(if target_cache { CACHE_FILE } else { REGISTRY_FILE });
        let mut bytes = std::fs::read(&path).expect("snapshot file");
        let offset = offset % bytes.len();
        bytes[offset] ^= 1 << bit;
        std::fs::write(&path, &bytes).unwrap();

        let fresh = KbRegistry::new(Arc::new(AnswerCache::new()));
        match snapshot::load(&dir, &fresh) {
            // Every flip lands under the checksum (or in the trailer
            // itself), so the load must reject — structurally.
            Err(err) => {
                prop_assert!(fresh.is_empty(), "{}", err);
            }
            Ok(_) => prop_assert!(
                false,
                "a flipped byte at {} must not load cleanly",
                offset
            ),
        }
        let _ = std::fs::remove_dir_all(&dir);
    }
}

/// The remaining corruption modes are deterministic: a version-skewed
/// header and a tampered fingerprint must both carry their own error
/// codes (not fold into checksum noise), so they are re-sealed after
/// editing — as are out-of-range `load` knobs, which must be rejected
/// as `corrupt` exactly as the `load` op rejects them.
#[test]
fn version_skew_and_fingerprint_tamper_have_distinct_codes() {
    let dir = temp_dir("skew");
    let (reg, _) = warm(&[(
        "Jaun(Eric)\n||P0(x) | Jaun(x)||_x ~=_1 0.25\n".to_string(),
        vec!["P0(Eric)".to_string()],
    )]);
    snapshot::save(&dir, &reg).expect("save");
    let path = dir.join(REGISTRY_FILE);
    let pristine = std::fs::read_to_string(&path).unwrap();

    // Wrong version: the header is validated before the checksum, so no
    // re-seal is needed for the code to be `wrong-version`.
    let header = |v: i128| format!("{{\"rwsnap\":{v},");
    let skewed = pristine.replace(
        &header(snapshot::SNAPSHOT_VERSION),
        &header(snapshot::SNAPSHOT_VERSION + 1),
    );
    std::fs::write(&path, skewed).unwrap();
    let fresh = KbRegistry::new(Arc::new(AnswerCache::new()));
    let err = snapshot::load(&dir, &fresh).expect_err("version skew rejects");
    assert_eq!(err.code(), "wrong-version");
    assert!(fresh.is_empty());

    // Tampered fingerprint, re-sealed so the checksum passes and the
    // fingerprint re-verification itself must catch it.
    let fp = reg.get("kb0").unwrap().kb.fingerprint();
    let tampered = reseal(
        &pristine,
        &format!("{fp:016x}"),
        &format!("{:016x}", fp.wrapping_add(1)),
    );
    std::fs::write(&path, tampered).unwrap();
    let fresh = KbRegistry::new(Arc::new(AnswerCache::new()));
    let err = snapshot::load(&dir, &fresh).expect_err("fingerprint tamper rejects");
    assert_eq!(err.code(), "fingerprint-mismatch");
    assert!(fresh.is_empty());

    // Knobs the `load` op would refuse, re-sealed so only the restore's
    // own input checks stand between them and the engine.
    let ci = format!("{:016x}", 0.7f64.to_bits());
    let edits = [
        (r#""min_n":null"#, r#""min_n":1"#.to_string()),
        (r#""max_n":null"#, r#""max_n":65"#.to_string()),
        (
            r#""min_n":null,"max_n":null"#,
            r#""min_n":9,"max_n":8"#.to_string(),
        ),
        (
            r#""approx":null"#,
            r#""approx":{"samples":0,"seed":null,"ci":null}"#.to_string(),
        ),
        (
            r#""approx":null"#,
            format!(r#""approx":{{"samples":null,"seed":null,"ci":"{ci}"}}"#),
        ),
    ];
    for (from, to) in &edits {
        std::fs::write(&path, reseal(&pristine, from, to)).unwrap();
        let fresh = KbRegistry::new(Arc::new(AnswerCache::new()));
        let err = snapshot::load(&dir, &fresh).expect_err(to);
        assert_eq!(err.code(), "corrupt", "{to}: {err}");
        assert!(fresh.is_empty(), "{to} restored a KB");
        assert_eq!(fresh.cache().len(), 0, "{to} restored cache entries");
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// `pristine` with `from` replaced by `to` and the checksum trailer
/// recomputed, so the edit passes the frame check.
fn reseal(pristine: &str, from: &str, to: &str) -> String {
    assert!(pristine.contains(from), "no `{from}` to edit");
    let mut body: String = pristine
        .lines()
        .take(pristine.lines().count() - 1)
        .map(|l| format!("{l}\n"))
        .collect::<String>()
        .replace(from, to);
    let sum = rw_logic::canon::fnv1a(body.as_bytes());
    body.push_str(&format!("{{\"checksum\":\"{sum:016x}\"}}\n"));
    body
}

/// Full server lifecycle: serve with `--snapshot-dir`, drain (which
/// writes the final checkpoint), restart on the same directory, and the
/// restarted server answers its first query warm and byte-identical.
/// Then corrupt the snapshot: the restart reports a structured error
/// and serves cold — loading and querying still work.
#[test]
fn server_restarts_warm_then_survives_corruption_cold() {
    let dir = temp_dir("server");
    let config = || ServerConfig {
        threads: 1,
        snapshot_dir: Some(dir.clone()),
        ..ServerConfig::default()
    };
    const LOAD: &str =
        r#"{"op":"load","kb":"med","text":"||Hep(x) | Jaun(x)||_x ~=_1 0.8; Jaun(Eric)"}"#;
    const QUERY: &str = r#"{"op":"query","kb":"med","query":"Hep(Eric)"}"#;

    // First life: load over the wire, answer once, drain.
    let server = Arc::new(Server::bind(config()).expect("bind"));
    assert!(server.load_snapshot().is_none(), "no snapshot yet");
    let addr = server.local_addr().unwrap();
    let runner = {
        let server = Arc::clone(&server);
        std::thread::spawn(move || server.run().expect("run"))
    };
    let mut c = Client::connect(addr).unwrap();
    let loaded = c.request_line(LOAD).unwrap();
    assert!(loaded.contains(r#""ok":true"#), "{loaded}");
    let cold = c.request_line(QUERY).unwrap();
    assert!(cold.contains(r#""value":0.8"#), "{cold}");
    let bye = c.request_line(r#"{"op":"shutdown"}"#).unwrap();
    assert!(bye.contains(r#""ok":true"#), "{bye}");
    runner.join().unwrap();
    drop(c);
    drop(server);

    // Second life: the snapshot restores the KB and the cache, so the
    // very first query is a hit, byte-identical modulo wall times.
    let server = Arc::new(Server::bind(config()).expect("rebind"));
    let stats = server
        .load_snapshot()
        .expect("snapshot present")
        .expect("snapshot loads");
    assert_eq!(stats.kbs, 1, "{stats:?}");
    assert!(stats.answers >= 1, "{stats:?}");
    let addr = server.local_addr().unwrap();
    let runner = {
        let server = Arc::clone(&server);
        std::thread::spawn(move || server.run().expect("run"))
    };
    let mut c = Client::connect(addr).unwrap();
    let warm_line = c.request_line(QUERY).unwrap();
    assert!(warm_line.contains(r#""cache_hit":true"#), "{warm_line}");
    assert_eq!(comparable(&cold), comparable(&warm_line));
    server.stop();
    runner.join().unwrap();
    drop(c);
    drop(server);

    // Third life: a flipped byte in the cache snapshot is rejected with
    // a structured error and the server starts cold but *serves*.
    let path = dir.join(CACHE_FILE);
    let mut bytes = std::fs::read(&path).unwrap();
    let mid = bytes.len() / 2;
    bytes[mid] ^= 0x01;
    std::fs::write(&path, &bytes).unwrap();
    let server = Arc::new(Server::bind(config()).expect("rebind"));
    let err = server
        .load_snapshot()
        .expect("snapshot present")
        .expect_err("corrupt snapshot rejects");
    assert!(!err.code().is_empty(), "{err}");
    assert!(server.registry().is_empty(), "cold start after rejection");
    let addr = server.local_addr().unwrap();
    let runner = {
        let server = Arc::clone(&server);
        std::thread::spawn(move || server.run().expect("run"))
    };
    let mut c = Client::connect(addr).unwrap();
    let missing = c.request_line(QUERY).unwrap();
    assert!(missing.contains(r#""code":"unknown-kb""#), "{missing}");
    let reloaded = c.request_line(LOAD).unwrap();
    assert!(reloaded.contains(r#""ok":true"#), "{reloaded}");
    let again = c.request_line(QUERY).unwrap();
    assert!(again.contains(r#""value":0.8"#), "{again}");
    server.stop();
    runner.join().unwrap();
    let _ = std::fs::remove_dir_all(&dir);
}
