//! The registry of named, loaded knowledge bases.
//!
//! A persistent server answers queries against KBs that were loaded
//! once and stay resident — the whole point of the serving layer is to
//! stop re-parsing and re-fingerprinting the KB on every invocation the
//! way one-shot `rwq query` does. Each [`LoadedKb`] carries its parsed
//! statements as a [`PreparedKb`] — canonical fingerprint computed once at
//! load, theorem-stage analysis built once on the first cache miss — and
//! a [`RandomWorlds`] engine wired to the server's shared
//! [`AnswerCache`]. Exact and approximate (Monte-Carlo) sessions can
//! coexist against the same statements: the engine-config fingerprint
//! inside every cache key keeps their keyspaces disjoint.
//!
//! The registry's KBs also share one [`DenomCache`] and one
//! [`DrawCache`]: a Monte-Carlo KB's later queries replay the draws its
//! earlier ones kept there. A KB's draws are purged when the KB itself
//! is dropped — once it is unloaded or replaced and the last query
//! still running against it has finished, so no late fill can put them
//! back.

use crate::format;
use crate::proto::{ApproxParams, KbSource, ProtoError, ScanParams};
use rw_core::{
    purge_draws, AnswerCache, DenomCache, DrawCache, EngineConfig, EngineError, PendingQuery,
    PreparedKb, Probe, RandomWorlds, Response, DRAW_CACHE_BYTES,
};
use rw_logic::KnowledgeBase;
use std::collections::HashMap;
use std::sync::{Arc, RwLock};

/// One resident knowledge base: statements, fingerprint, and the engine
/// that answers against it. Shared by reference between connection
/// handlers and queue workers.
#[derive(Debug)]
pub struct LoadedKb {
    /// The registry name.
    pub name: String,
    /// The parsed statements, prepared: its fingerprint
    /// ([`PreparedKb::fingerprint`]) is computed at load.
    pub kb: PreparedKb,
    /// The engine (cache installed; Monte-Carlo stage when the load
    /// requested `approx`).
    pub engine: RandomWorlds,
    /// True when the engine answers non-theorem queries by sampling.
    pub approx: bool,
    /// The `.rwkb` source text the KB was parsed from, retained so a
    /// snapshot can re-create this exact KB (and re-verify its
    /// fingerprint) on reload. `None` only for KBs inserted pre-parsed
    /// without text — those cannot be snapshotted.
    pub source: Option<String>,
    /// The Monte-Carlo parameters the load requested, if any.
    pub approx_params: Option<ApproxParams>,
    /// The enumeration-scan settings the engine was built with.
    pub scan: ScanParams,
}

/// The caches every resident KB of one registry shares.
#[derive(Clone, Debug)]
struct SharedCaches {
    answers: Arc<AnswerCache>,
    /// One `#worlds` count per `(KB, vocab, N, τ, budget, mode)` across
    /// every resident KB and reload — safe because entries are pure
    /// functions of their key.
    denoms: Arc<DenomCache>,
    /// The Monte-Carlo draws each resident KB keeps for its later
    /// queries, under one byte budget.
    draws: Arc<DrawCache>,
}

impl Drop for LoadedKb {
    /// Purges the draws this KB kept: nothing can ask it again.
    fn drop(&mut self) {
        purge_draws(self.engine.draw_cache(), self.kb.id());
    }
}

impl LoadedKb {
    /// Builds a resident KB around a shared answer and denominator cache,
    /// with a draw cache of its own. The sampler runs single-threaded —
    /// the server's worker pool is the parallelism, and worker count
    /// never changes sampled answers anyway.
    pub fn new(
        name: String,
        kb: KnowledgeBase,
        source: Option<String>,
        approx: Option<&ApproxParams>,
        scan: ScanParams,
        cache: Arc<AnswerCache>,
        denoms: Arc<DenomCache>,
    ) -> LoadedKb {
        let caches = SharedCaches {
            answers: cache,
            denoms,
            draws: Arc::new(DrawCache::with_budget(DRAW_CACHE_BYTES)),
        };
        LoadedKb::with_caches(name, kb, source, approx, scan, caches)
    }

    /// [`Self::new`] over a registry's shared caches.
    fn with_caches(
        name: String,
        kb: KnowledgeBase,
        source: Option<String>,
        approx: Option<&ApproxParams>,
        scan: ScanParams,
        caches: SharedCaches,
    ) -> LoadedKb {
        let engine = RandomWorlds::from(EngineConfig {
            denom_cache: caches.denoms,
            draw_cache: caches.draws,
            ..EngineConfig::with_options(approx, scan, 1)
        })
        .with_cache(caches.answers);
        let kb = PreparedKb::new(kb);
        kb.fingerprint();
        LoadedKb {
            name,
            approx: approx.is_some(),
            kb,
            engine,
            source,
            approx_params: approx.cloned(),
            scan,
        }
    }

    /// Answers one textual query as a serving JSON line plus a success
    /// flag — identical bytes to `rwq batch` on the same engine
    /// configuration (the golden-corpus contract).
    pub fn answer_json_line(&self, query: &str) -> (String, bool) {
        match self.answer(query) {
            Ok(response) => (crate::json::response_line(query, &response), true),
            Err(e) => (crate::json::error_line(query, &e.to_string()), false),
        }
    }

    /// The answer including the full [`rw_core::Response`] (for callers
    /// that aggregate traces): [`Self::probe`], then [`Self::finish`] on a
    /// miss.
    pub fn answer(&self, query: &str) -> Result<Response, EngineError> {
        self.engine.answer_prepared(&self.kb, query)
    }

    /// Parses, canonicalises and looks `query` up in the shared cache
    /// without running a pipeline stage ([`RandomWorlds::probe`]). The
    /// serving loop answers hits and parse errors with this alone.
    pub fn probe(&self, query: &str) -> Result<Probe, EngineError> {
        self.engine.probe(&self.kb, query)
    }

    /// Runs the pipeline on a query [`Self::probe`] missed and caches the
    /// answer ([`RandomWorlds::finish`]).
    pub fn finish(&self, pending: PendingQuery) -> Result<Response, EngineError> {
        self.engine.finish(pending)
    }

    /// One entry of the `list` response.
    pub fn describe_json(&self) -> String {
        format!(
            r#"{{"kb":"{}","fingerprint":"{:016x}","statements":{},"approx":{}}}"#,
            crate::json::escape(&self.name),
            self.kb.fingerprint(),
            self.kb.conjuncts().len(),
            self.approx
        )
    }
}

/// Named KBs behind an `RwLock`: queries (the hot path) take the read
/// lock for a single `Arc` clone; load/unload take the write lock.
pub struct KbRegistry {
    kbs: RwLock<HashMap<String, Arc<LoadedKb>>>,
    caches: SharedCaches,
}

impl KbRegistry {
    /// An empty registry whose KBs will share `cache`, one denominator
    /// cache and one draw cache.
    pub fn new(cache: Arc<AnswerCache>) -> KbRegistry {
        KbRegistry {
            kbs: RwLock::new(HashMap::new()),
            caches: SharedCaches {
                answers: cache,
                denoms: Arc::new(DenomCache::new()),
                draws: Arc::new(DrawCache::with_budget(DRAW_CACHE_BYTES)),
            },
        }
    }

    /// The shared answer cache.
    pub fn cache(&self) -> &Arc<AnswerCache> {
        &self.caches.answers
    }

    /// The shared denominator cache (for `stats` reporting).
    pub fn denoms(&self) -> &Arc<DenomCache> {
        &self.caches.denoms
    }

    /// The shared draw cache (for `stats` reporting).
    pub fn draws(&self) -> &Arc<DrawCache> {
        &self.caches.draws
    }

    /// Loads (or replaces) a named KB from a request source. Replacement
    /// is safe with a shared cache: keys embed the KB fingerprint, so a
    /// different KB under the same name can never be served the old
    /// entries.
    pub fn load(
        &self,
        name: &str,
        source: &KbSource,
        approx: Option<&ApproxParams>,
        scan: ScanParams,
    ) -> Result<Arc<LoadedKb>, ProtoError> {
        // Both sources resolve to text first so the loaded KB always
        // retains its `.rwkb` source — the snapshot layer re-parses and
        // re-fingerprints that text on restore.
        let structured = |e: format::LoadError| ProtoError {
            code: crate::proto::ErrorCode::LoadFailed,
            message: format!("cannot load KB `{name}`: {e}"),
        };
        let text = match source {
            KbSource::Path(p) => {
                std::fs::read_to_string(p).map_err(|e| structured(format::LoadError::from(e)))?
            }
            KbSource::Text(t) => t.clone(),
        };
        let kb = format::parse_kb(&text).map_err(structured)?;
        let loaded = Arc::new(LoadedKb::with_caches(
            name.to_string(),
            kb,
            Some(text),
            approx,
            scan,
            self.caches.clone(),
        ));
        self.kbs
            .write()
            .expect("registry lock poisoned")
            .insert(name.to_string(), Arc::clone(&loaded));
        Ok(loaded)
    }

    /// Inserts an already-parsed KB with default options.
    pub fn insert(&self, name: &str, kb: KnowledgeBase) -> Arc<LoadedKb> {
        self.insert_scan_source(name, kb, ScanParams::default(), None)
    }

    /// Inserts an already-parsed KB with explicit enumeration-scan
    /// settings, retaining its `.rwkb` source text so it participates in
    /// snapshots like wire-loaded ones — the `rwq serve <file>
    /// --symmetry/--min-n/--max-n` preload path.
    pub fn insert_scan_source(
        &self,
        name: &str,
        kb: KnowledgeBase,
        scan: ScanParams,
        source: Option<String>,
    ) -> Arc<LoadedKb> {
        let loaded = Arc::new(LoadedKb::with_caches(
            name.to_string(),
            kb,
            source,
            None,
            scan,
            self.caches.clone(),
        ));
        self.kbs
            .write()
            .expect("registry lock poisoned")
            .insert(name.to_string(), Arc::clone(&loaded));
        loaded
    }

    /// Every resident KB, sorted by name — the stable order snapshot
    /// files are written in.
    pub fn snapshot_entries(&self) -> Vec<Arc<LoadedKb>> {
        let kbs = self.kbs.read().expect("registry lock poisoned");
        let mut entries: Vec<Arc<LoadedKb>> = kbs.values().cloned().collect();
        entries.sort_by(|a, b| a.name.cmp(&b.name));
        entries
    }

    /// Drops a named KB; `false` if it was not loaded. In-flight queries
    /// holding the `Arc` finish against the departing KB, and its kept
    /// draws go when the last of them does.
    pub fn unload(&self, name: &str) -> bool {
        self.kbs
            .write()
            .expect("registry lock poisoned")
            .remove(name)
            .is_some()
    }

    /// The resident KB under `name`.
    pub fn get(&self, name: &str) -> Option<Arc<LoadedKb>> {
        self.kbs
            .read()
            .expect("registry lock poisoned")
            .get(name)
            .cloned()
    }

    /// How many KBs are resident.
    pub fn len(&self) -> usize {
        self.kbs.read().expect("registry lock poisoned").len()
    }

    /// True when no KB is loaded.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The `list` response entries, sorted by name for a stable wire
    /// order.
    pub fn list_json(&self) -> String {
        let kbs = self.kbs.read().expect("registry lock poisoned");
        let mut entries: Vec<&Arc<LoadedKb>> = kbs.values().collect();
        entries.sort_by(|a, b| a.name.cmp(&b.name));
        let body: Vec<String> = entries.iter().map(|k| k.describe_json()).collect();
        format!(r#"{{"ok":true,"op":"list","kbs":[{}]}}"#, body.join(","))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::proto::KbSource;

    fn registry() -> KbRegistry {
        KbRegistry::new(Arc::new(AnswerCache::new()))
    }

    #[test]
    fn load_query_unload_roundtrip() {
        let reg = registry();
        let src = KbSource::Text("||Hep(x) | Jaun(x)||_x ~=_1 0.8; Jaun(Eric)".to_string());
        let loaded = reg.load("med", &src, None, ScanParams::default()).unwrap();
        assert_eq!(loaded.kb.conjuncts().len(), 2);
        assert!(!loaded.approx);
        let (line, ok) = reg.get("med").unwrap().answer_json_line("Hep(Eric)");
        assert!(ok, "{line}");
        assert!(line.contains(r#""value":0.8"#), "{line}");
        assert!(reg.unload("med"));
        assert!(!reg.unload("med"));
        assert!(reg.get("med").is_none());
        assert!(reg.is_empty());
    }

    #[test]
    fn loads_share_the_cache_across_kb_names() {
        let reg = registry();
        let src = KbSource::Text("P(C)".to_string());
        reg.load("a", &src, None, ScanParams::default()).unwrap();
        reg.load("b", &src, None, ScanParams::default()).unwrap();
        // Identical statements + identical engine config = one keyspace:
        // the second name's first query hits what the first computed.
        let (first, ok) = reg.get("a").unwrap().answer_json_line("P(C)");
        assert!(ok, "{first}");
        assert!(first.contains(r#""cache_hit":false"#), "{first}");
        let (second, ok) = reg.get("b").unwrap().answer_json_line("P(C)");
        assert!(ok, "{second}");
        assert!(second.contains(r#""cache_hit":true"#), "{second}");
        assert_eq!(reg.cache().hits(), 1);
    }

    #[test]
    fn approx_kbs_sample_and_keep_their_own_keyspace() {
        let reg = registry();
        let src =
            KbSource::Text("||Hep(x) | Jaun(x)||_x ~=_1 0.8; Jaun(Eric); Jaun(Tom)".to_string());
        reg.load("exact", &src, None, ScanParams::default())
            .unwrap();
        let params = ApproxParams {
            seed: Some(42),
            ..ApproxParams::default()
        };
        let loaded = reg
            .load("mc", &src, Some(&params), ScanParams::default())
            .unwrap();
        assert!(loaded.approx);
        let (line, ok) = loaded.answer_json_line("Hep(Eric) & Hep(Tom)");
        assert!(ok, "{line}");
        assert!(line.contains(r#""type":"approximate""#), "{line}");
        // The exact KB must not see the sampled entry.
        let (exact_line, ok) = reg
            .get("exact")
            .unwrap()
            .answer_json_line("Hep(Eric) & Jaun(Eric)");
        assert!(ok, "{exact_line}");
        assert!(exact_line.contains(r#""cache_hit":false"#), "{exact_line}");
    }

    #[test]
    fn approx_kbs_replay_kept_draws_until_unloaded_or_replaced() {
        let reg = registry();
        let src =
            KbSource::Text("||Hep(x) | Jaun(x)||_x ~=_1 0.8; Jaun(Eric); Jaun(Tom)".to_string());
        let params = ApproxParams {
            samples: Some(4096),
            ..ApproxParams::default()
        };
        let load = |name: &str| {
            reg.load(name, &src, Some(&params), ScanParams::default())
                .unwrap()
        };
        let (a, b) = (load("a"), load("b"));
        let draws = reg.draws();
        let ask = |kb: &LoadedKb, q: &str| {
            let (line, ok) = kb.answer_json_line(q);
            assert!(ok && line.contains(r#""type":"approximate""#), "{line}");
            line
        };
        ask(&a, "Hep(Eric) & Hep(Tom)");
        let points = draws.misses();
        assert!(points > 0 && draws.hits() == 0);
        // A second query on the same KB replays its draws; the same
        // statements under another name are another KB and draw afresh
        // (asked something new: the answer cache keys both names alike).
        let replayed = ask(&a, "Hep(Eric) & !Hep(Tom)");
        assert_eq!(draws.hits(), points);
        ask(&b, "Hep(Eric) or Hep(Tom)");
        assert_eq!((draws.hits(), draws.misses()), (points, 2 * points));
        let per_kb = draws.len();
        // Replaying changes no byte of the answer but its timings.
        let fresh = registry();
        let fresh_kb = fresh
            .load("a", &src, Some(&params), ScanParams::default())
            .unwrap();
        let untimed = |line: &str| {
            line.split(r#""elapsed_us":"#)
                .map(|part| part.trim_start_matches(|c: char| c.is_ascii_digit()))
                .collect::<String>()
        };
        let drawn = fresh_kb.answer_json_line("Hep(Eric) & !Hep(Tom)").0;
        assert_eq!(untimed(&drawn), untimed(&replayed));
        // An unloaded KB's draws stay while a query still holds it, so
        // a query finishing after the unload fills nothing back behind a
        // purge; they go with the last holder.
        assert!(reg.unload("a"));
        ask(&a, "Hep(Eric) or !Hep(Tom)");
        assert_eq!(draws.len(), per_kb);
        drop(a);
        assert_eq!(draws.len(), per_kb / 2);
        load("b");
        drop(b);
        assert!(draws.is_empty(), "the replaced KB's draws stay behind");
    }

    #[test]
    fn replacing_a_kb_changes_the_keyspace_not_the_entries() {
        let reg = registry();
        reg.load(
            "m",
            &KbSource::Text("P(C)".to_string()),
            None,
            ScanParams::default(),
        )
        .unwrap();
        let (line, _) = reg.get("m").unwrap().answer_json_line("P(C)");
        assert!(line.contains(r#""value":1"#), "{line}");
        // Replace with contradicting statements under the same name: the
        // fingerprint changes, so the old cached belief cannot leak.
        reg.load(
            "m",
            &KbSource::Text("!P(C)".to_string()),
            None,
            ScanParams::default(),
        )
        .unwrap();
        let (line, _) = reg.get("m").unwrap().answer_json_line("P(C)");
        assert!(line.contains(r#""value":0"#), "{line}");
        assert!(line.contains(r#""cache_hit":false"#), "{line}");
    }

    #[test]
    fn symmetry_loads_answer_with_orbit_counts_and_key_apart() {
        let reg = registry();
        let src = KbSource::Text("Likes(A, B)".to_string());
        reg.load("plain", &src, None, ScanParams::default())
            .unwrap();
        let scan = ScanParams {
            symmetry: true,
            min_n: None,
            max_n: Some(12),
        };
        reg.load("deep", &src, None, scan).unwrap();
        let (plain_line, ok) = reg.get("plain").unwrap().answer_json_line("Likes(B, A)");
        assert!(ok, "{plain_line}");
        assert!(!plain_line.contains(r#""orbits""#), "{plain_line}");
        let (deep_line, ok) = reg.get("deep").unwrap().answer_json_line("Likes(B, A)");
        assert!(ok, "{deep_line}");
        assert!(deep_line.contains(r#""orbits""#), "{deep_line}");
        assert!(deep_line.contains(r#""max_n":12"#), "{deep_line}");
        // Different scan configuration = different keyspace: the deep
        // answer was computed, not served from the plain KB's entry.
        assert!(deep_line.contains(r#""cache_hit":false"#), "{deep_line}");
        // The shared denominator cache filled on both paths.
        assert!(!reg.denoms().is_empty());
    }

    #[test]
    fn load_failures_are_structured() {
        let reg = registry();
        let err = reg
            .load(
                "bad",
                &KbSource::Text("||broken".to_string()),
                None,
                ScanParams::default(),
            )
            .unwrap_err();
        assert_eq!(err.code, crate::proto::ErrorCode::LoadFailed);
        assert!(err.message.contains("bad"), "{err}");
        let err = reg
            .load(
                "missing",
                &KbSource::Path("/nonexistent.rwkb".to_string()),
                None,
                ScanParams::default(),
            )
            .unwrap_err();
        assert_eq!(err.code, crate::proto::ErrorCode::LoadFailed);
        assert!(reg.is_empty());
    }

    #[test]
    fn list_is_sorted_and_machine_readable() {
        let reg = registry();
        reg.load(
            "zeta",
            &KbSource::Text("P(C)".to_string()),
            None,
            ScanParams::default(),
        )
        .unwrap();
        reg.load(
            "alpha",
            &KbSource::Text("Q(C); R(C)".to_string()),
            None,
            ScanParams::default(),
        )
        .unwrap();
        let line = reg.list_json();
        let alpha = line.find(r#""kb":"alpha""#).unwrap();
        let zeta = line.find(r#""kb":"zeta""#).unwrap();
        assert!(alpha < zeta, "{line}");
        assert!(line.contains(r#""statements":2"#), "{line}");
        assert!(
            line.starts_with(r#"{"ok":true,"op":"list","kbs":["#),
            "{line}"
        );
    }
}
