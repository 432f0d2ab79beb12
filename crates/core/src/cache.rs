//! A sharded, thread-safe cache of answered queries, keyed by canonical
//! query form and knowledge-base fingerprint.
//!
//! "Random Worlds and Maximum Entropy" (Grove–Halpern–Koller) shows that
//! many distinct surface queries collapse to the same canonical
//! subproblem, so a serving path that normalizes before solving gets
//! reuse far beyond exact string repeats. The key is built from
//! [`rw_logic::canon`]: the canonical form identifies a query up to
//! commutation/reassociation/duplication of `&`/`or`, double negation,
//! alpha-renaming and symbol-interning order — every rewrite preserving
//! the degree of belief — and the KB fingerprint pins the knowledge base
//! the answer was computed against.
//!
//! Storage is sharded ([`AnswerCache::with_shards`]): each shard is a
//! small `Mutex<HashMap>`, so concurrent batch workers contend on
//! (1/shards) of the map instead of one global lock, and hits produced
//! by one worker are immediately visible to the others. Hit/miss
//! counters are lock-free atomics.
//!
//! What is cached is the *semantic* answer — [`Belief`] plus
//! [`Provenance`] — never the per-query [`crate::Trace`] (a cache hit
//! gets a one-step `cache` trace instead, and sets
//! [`crate::Response::cached`]).

use crate::belief::{Belief, Provenance};
use rw_logic::canon::fnv1a;
use rw_worlds::mc::Reservoir;
use rw_worlds::ScaledCount;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

/// A cached semantic answer: what a [`crate::Response`] carries minus the
/// per-run trace.
#[derive(Clone, Debug, PartialEq)]
pub struct CachedAnswer {
    /// The degree of belief.
    pub belief: Belief,
    /// The method that originally produced it.
    pub provenance: Provenance,
}

impl CachedAnswer {
    /// The cacheable part of a [`crate::Response`].
    pub fn of(response: &crate::Response) -> CachedAnswer {
        CachedAnswer {
            belief: response.belief.clone(),
            provenance: response.provenance.clone(),
        }
    }
}

/// A sharded map from `(KB fingerprint, canonical query)` to answers,
/// safe to share across batch workers (and across whole batches: a warm
/// cache keeps its entries).
///
/// ```
/// use rw_core::cache::{AnswerCache, CachedAnswer};
/// use rw_core::{Belief, Provenance};
///
/// let cache = AnswerCache::new();
/// let key = AnswerCache::key(0xfeed, "P:Hep(c:Eric)");
/// assert!(cache.get(&key).is_none());
/// cache.insert(key.clone(), CachedAnswer {
///     belief: Belief::Point(0.8),
///     provenance: Provenance::DirectInference,
/// });
/// assert_eq!(cache.get(&key).unwrap().belief, Belief::Point(0.8));
/// assert_eq!((cache.hits(), cache.misses()), (1, 1));
/// ```
#[derive(Debug)]
pub struct AnswerCache {
    shards: Vec<Mutex<HashMap<String, CachedAnswer>>>,
    hits: AtomicU64,
    misses: AtomicU64,
}

impl AnswerCache {
    /// A cache with the default shard count (16: enough that a typical
    /// worker pool rarely collides on a shard lock).
    pub fn new() -> AnswerCache {
        AnswerCache::with_shards(16)
    }

    /// A cache with an explicit shard count (minimum 1).
    pub fn with_shards(n: usize) -> AnswerCache {
        let n = n.max(1);
        AnswerCache {
            shards: (0..n).map(|_| Mutex::new(HashMap::new())).collect(),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
        }
    }

    /// Builds the cache key for a canonical query against a fingerprinted
    /// KB (see [`rw_logic::canon::canonical_formula`] and
    /// [`rw_logic::canon::kb_fingerprint`]).
    pub fn key(kb_fingerprint: u64, canonical_query: &str) -> String {
        format!("{kb_fingerprint:016x}|{canonical_query}")
    }

    fn shard(&self, key: &str) -> &Mutex<HashMap<String, CachedAnswer>> {
        let i = (fnv1a(key.as_bytes()) as usize) % self.shards.len();
        &self.shards[i]
    }

    /// Looks up a key, counting the outcome in [`Self::hits`] /
    /// [`Self::misses`].
    pub fn get(&self, key: &str) -> Option<CachedAnswer> {
        let found = self.peek(key);
        match &found {
            Some(_) => self.hits.fetch_add(1, Ordering::Relaxed),
            None => self.misses.fetch_add(1, Ordering::Relaxed),
        };
        found
    }

    /// Looks up a key without counting it: for a second look at a key
    /// whose counted lookup already missed.
    pub fn peek(&self, key: &str) -> Option<CachedAnswer> {
        self.shard(key)
            .lock()
            .expect("cache shard poisoned")
            .get(key)
            .cloned()
    }

    /// Stores an answer. Concurrent inserts of the same key are benign:
    /// both workers computed the same semantic answer.
    pub fn insert(&self, key: String, answer: CachedAnswer) {
        self.shard(&key)
            .lock()
            .expect("cache shard poisoned")
            .insert(key, answer);
    }

    /// Lookups that found an entry, since construction or [`Self::clear`].
    pub fn hits(&self) -> u64 {
        self.hits.load(Ordering::Relaxed)
    }

    /// Lookups that found nothing.
    pub fn misses(&self) -> u64 {
        self.misses.load(Ordering::Relaxed)
    }

    /// The number of shards the cache was built with.
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// Number of cached answers across all shards.
    pub fn len(&self) -> usize {
        self.shards
            .iter()
            .map(|s| s.lock().expect("cache shard poisoned").len())
            .sum()
    }

    /// True when nothing is cached.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Every cached entry, cloned out and sorted by key — the stable
    /// iteration order snapshot files are written in. Does not count as
    /// lookups.
    pub fn export(&self) -> Vec<(String, CachedAnswer)> {
        let mut out: Vec<(String, CachedAnswer)> = Vec::with_capacity(self.len());
        for s in &self.shards {
            let shard = s.lock().expect("cache shard poisoned");
            out.extend(shard.iter().map(|(k, v)| (k.clone(), v.clone())));
        }
        out.sort_by(|a, b| a.0.cmp(&b.0));
        out
    }

    /// Bulk-inserts entries restored from a snapshot. Hit/miss counters
    /// are untouched: a reload is not a lookup, and the first real query
    /// against a restored entry must still count as a hit.
    pub fn restore(&self, entries: Vec<(String, CachedAnswer)>) {
        for (key, answer) in entries {
            self.insert(key, answer);
        }
    }

    /// Drops every entry and zeroes the counters.
    pub fn clear(&self) {
        for s in &self.shards {
            s.lock().expect("cache shard poisoned").clear();
        }
        self.hits.store(0, Ordering::Relaxed);
        self.misses.store(0, Ordering::Relaxed);
    }
}

impl Default for AnswerCache {
    fn default() -> AnswerCache {
        AnswerCache::new()
    }
}

/// The key of one denominator entry: which world count it is.
///
/// `#worlds_N^τ(KB)` is a pure function of the knowledge base *content*
/// (its canonical fingerprint), the **vocabulary shape** (each interned
/// symbol contributes slots whether or not the KB mentions it — queries
/// interning fresh constants grow the space by a factor of `N` each),
/// the domain size and the tolerance. Engine configuration is
/// deliberately absent: budgets decide whether a count *finishes*, never
/// what it equals, so every engine sharing a cache agrees on the value.
#[derive(Clone, Debug, Hash, PartialEq, Eq)]
pub struct DenomKey {
    /// [`rw_logic::canon::kb_fingerprint`] of the knowledge base.
    pub kb_fingerprint: u64,
    /// A fingerprint of the vocabulary shape (predicate/function arities
    /// in interning order plus the constant count).
    pub vocab_fingerprint: u64,
    /// The domain size `N`.
    pub n: usize,
    /// The uniform tolerance `τ` as `(numerator, denominator)`.
    pub tau: (i128, i128),
    /// The visited-node budget the count ran under. The *value* of a
    /// count is budget-independent, but whether it **finishes** is not —
    /// and the counting stage's domain-size scan reacts to failures. A
    /// budget-free key would let an entry computed under a large budget
    /// rescue a smaller-budget engine's scan past where a cold run
    /// stops, making answers depend on cache warmth. Keyed by budget, a
    /// hit only ever replaces a count that would have succeeded anyway.
    pub budget: u64,
    /// Whether the count came from the symmetry-reduced orbit counter.
    /// Both modes compute the same exact number when both finish, but
    /// their budget units differ (visited search nodes vs orbit
    /// representatives), so the same budget value means different
    /// reachability — keeping the modes keyed apart preserves the
    /// warmth-independence argument above.
    pub symmetry: bool,
}

/// A small shared cache of `#worlds_N^τ(KB)` denominator counts.
///
/// Definition 4.2 divides every query's numerator by the *same*
/// denominator; a τ-diagonal sweep answering many queries against one KB
/// recomputes it per query unless cached. Only **successful** counts are
/// stored (a count that fit one budget is valid under every budget), so
/// a hit can change how fast an answer arrives but never what it is.
/// Values are [`ScaledCount`]s because symmetry-reduced counts routinely
/// exceed `u128`; plain branch-and-count entries store their `u128`
/// exactly. Hit/miss counters are lock-free atomics, surfaced by the
/// server's `stats` op alongside the [`AnswerCache`]'s.
///
/// ```
/// use rw_core::cache::{DenomCache, DenomKey};
/// use rw_worlds::ScaledCount;
///
/// let cache = DenomCache::new();
/// let key = DenomKey {
///     kb_fingerprint: 0xfeed,
///     vocab_fingerprint: 0xbee,
///     n: 4,
///     tau: (1, 4),
///     budget: 1 << 24,
///     symmetry: false,
/// };
/// assert_eq!(cache.get(&key), None);
/// cache.insert(key.clone(), ScaledCount::from_u128(196_608));
/// assert_eq!(cache.get(&key).unwrap().exact(), Some(196_608));
/// assert_eq!((cache.hits(), cache.misses()), (1, 1));
/// ```
#[derive(Debug, Default)]
pub struct DenomCache {
    entries: Mutex<HashMap<DenomKey, ScaledCount>>,
    hits: AtomicU64,
    misses: AtomicU64,
}

impl DenomCache {
    /// An empty denominator cache.
    pub fn new() -> DenomCache {
        DenomCache::default()
    }

    /// Looks up a cached world count, counting the outcome in
    /// [`Self::hits`] / [`Self::misses`] (mirrored into the global
    /// metrics registry as `cache.denom.hits` / `cache.denom.misses`,
    /// with probe latency under `cache.denom.lookup_us`).
    pub fn get(&self, key: &DenomKey) -> Option<ScaledCount> {
        let start = std::time::Instant::now();
        let found = self
            .entries
            .lock()
            .expect("denominator cache poisoned")
            .get(key)
            .copied();
        match &found {
            Some(_) => self.hits.fetch_add(1, Ordering::Relaxed),
            None => self.misses.fetch_add(1, Ordering::Relaxed),
        };
        if rw_obs::enabled() {
            let reg = rw_obs::registry();
            reg.histogram("cache.denom.lookup_us")
                .record_us(start.elapsed().as_micros() as u64);
            reg.counter(if found.is_some() {
                "cache.denom.hits"
            } else {
                "cache.denom.misses"
            })
            .inc();
        }
        found
    }

    /// Stores a successfully computed world count. Concurrent inserts of
    /// one key are benign: exact counting is deterministic.
    pub fn insert(&self, key: DenomKey, count: ScaledCount) {
        self.entries
            .lock()
            .expect("denominator cache poisoned")
            .insert(key, count);
    }

    /// Lookups that found an entry.
    pub fn hits(&self) -> u64 {
        self.hits.load(Ordering::Relaxed)
    }

    /// Lookups that found nothing.
    pub fn misses(&self) -> u64 {
        self.misses.load(Ordering::Relaxed)
    }

    /// Every cached count, cloned out in a stable key order (snapshot
    /// files are diffable across saves). Does not count as lookups.
    pub fn export(&self) -> Vec<(DenomKey, ScaledCount)> {
        let entries = self.entries.lock().expect("denominator cache poisoned");
        let mut out: Vec<(DenomKey, ScaledCount)> =
            entries.iter().map(|(k, v)| (k.clone(), *v)).collect();
        drop(entries);
        out.sort_by_key(|(k, _)| {
            (
                k.kb_fingerprint,
                k.vocab_fingerprint,
                k.n,
                k.tau,
                k.budget,
                k.symmetry,
            )
        });
        out
    }

    /// Bulk-inserts counts restored from a snapshot, without touching
    /// the hit/miss counters.
    pub fn restore(&self, entries: Vec<(DenomKey, ScaledCount)>) {
        for (key, count) in entries {
            self.insert(key, count);
        }
    }

    /// Number of cached denominators.
    pub fn len(&self) -> usize {
        self.entries
            .lock()
            .expect("denominator cache poisoned")
            .len()
    }

    /// True when nothing is cached.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// The byte budget of a [`DrawCache`] (768 KiB): about ten Monte-Carlo
/// KB copies of the unary-limits shape at the served diagonal, 73–79 KB
/// each as recorded (16,384 draws over `N` = 8, 16, 32).
pub const DRAW_CACHE_BYTES: usize = 3 << 18;

/// What pins a sweep's stored draws besides the sweep point `(τ, N)`:
/// the KB, the sampler configuration and the sample cap.
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub struct DrawKey {
    /// [`crate::PreparedKb::id`] of the KB drawn against. The id, not the
    /// canonical fingerprint: statements in another order build another
    /// plan, which reads the random stream in another order.
    pub kb_id: u64,
    /// [`rw_worlds::mc::McConfig::result_fingerprint`] of the sampler.
    pub config: String,
    /// The sweep's effective sample cap (the stage budget applied).
    pub cap: u64,
}

/// A shared, byte-bounded reservoir of Monte-Carlo draws: per sweep
/// point of a resident KB, the KB-side sums and accepted draws of every
/// chunk a query has run ([`rw_worlds::mc::reservoir`]), scoped by
/// [`DrawKey`]. A later query against the same KB replays them and
/// evaluates only itself, with every tally bit-identical to drawing
/// afresh — so, like the [`DenomCache`], a hit changes how fast an
/// answer arrives but never what it is.
///
/// Build one with `DrawCache::with_budget(`[`DRAW_CACHE_BYTES`]`)`.
/// Entries are evicted least recently used first once they pass the
/// budget, and a sweep point whose records alone would pass it keeps
/// none. A query fills its entries locally and inserts them when done,
/// so no lookup ever waits on sampling. Hit, miss and eviction counters
/// are surfaced by the server's `stats` op; [`purge_draws`] drops a
/// KB's entries.
///
/// ```
/// use rw_core::{purge_draws, EngineConfig, McConfig, PreparedKb, RandomWorlds};
/// use rw_logic::KnowledgeBase;
///
/// let kb = PreparedKb::new(
///     KnowledgeBase::parse("||Hep(x) | Jaun(x)||_x ~=_1 0.8; Jaun(Eric); Jaun(Tom)").unwrap(),
/// );
/// let engine = RandomWorlds::from(EngineConfig {
///     approx: Some(McConfig { max_samples: 4096, ..McConfig::default() }),
///     ..EngineConfig::default()
/// });
/// let draws = engine.draw_cache();
/// engine.answer_prepared(&kb, "Hep(Eric) & Hep(Tom)").unwrap();
/// assert_eq!(draws.hits(), 0);
/// // The second query replays the first one's accepted draws.
/// engine.answer_prepared(&kb, "Hep(Eric) & !Hep(Tom)").unwrap();
/// assert!(draws.hits() > 0);
/// purge_draws(draws, kb.id());
/// assert!(draws.is_empty());
/// ```
pub type DrawCache = Reservoir<DrawKey>;

/// Drops every entry of `cache` drawn against the KB with id `kb_id`
/// (an unloaded KB is never asked again).
pub fn purge_draws(cache: &DrawCache, kb_id: u64) {
    cache.retain(|key| key.kb_id != kb_id);
}

#[cfg(test)]
mod tests {
    use super::*;

    fn answer(v: f64) -> CachedAnswer {
        CachedAnswer {
            belief: Belief::Point(v),
            provenance: Provenance::DirectInference,
        }
    }

    #[test]
    fn get_insert_roundtrip_and_counters() {
        let cache = AnswerCache::new();
        let k = AnswerCache::key(1, "q");
        assert!(cache.get(&k).is_none());
        cache.insert(k.clone(), answer(0.5));
        assert_eq!(cache.get(&k), Some(answer(0.5)));
        assert_eq!(cache.hits(), 1);
        assert_eq!(cache.misses(), 1);
        assert_eq!(cache.len(), 1);
    }

    #[test]
    fn distinct_kb_fingerprints_do_not_collide() {
        let cache = AnswerCache::new();
        cache.insert(AnswerCache::key(1, "q"), answer(0.25));
        cache.insert(AnswerCache::key(2, "q"), answer(0.75));
        assert_eq!(
            cache.get(&AnswerCache::key(1, "q")).unwrap().belief,
            Belief::Point(0.25)
        );
        assert_eq!(
            cache.get(&AnswerCache::key(2, "q")).unwrap().belief,
            Belief::Point(0.75)
        );
    }

    #[test]
    fn clear_resets_entries_and_counters() {
        let cache = AnswerCache::with_shards(4);
        let k = AnswerCache::key(9, "x");
        cache.insert(k.clone(), answer(1.0));
        let _ = cache.get(&k);
        cache.clear();
        assert!(cache.is_empty());
        assert_eq!(cache.hits(), 0);
        assert_eq!(cache.misses(), 0);
    }

    #[test]
    fn shard_floor_is_one() {
        let cache = AnswerCache::with_shards(0);
        cache.insert(AnswerCache::key(0, "q"), answer(0.0));
        assert_eq!(cache.len(), 1);
    }

    #[test]
    fn denom_cache_counts_lookups_and_keys_modes_apart() {
        let cache = DenomCache::new();
        let key = DenomKey {
            kb_fingerprint: 1,
            vocab_fingerprint: 2,
            n: 4,
            tau: (1, 16),
            budget: 1 << 24,
            symmetry: false,
        };
        assert_eq!(cache.get(&key), None);
        cache.insert(key.clone(), ScaledCount::from_u128(42));
        assert_eq!(cache.get(&key).unwrap().exact(), Some(42));
        // The symmetry-mode twin of the same point is a distinct entry.
        let sym_key = DenomKey {
            symmetry: true,
            ..key.clone()
        };
        assert_eq!(cache.get(&sym_key), None);
        cache.insert(sym_key.clone(), ScaledCount::new(3, 200));
        assert_eq!(cache.len(), 2);
        assert_eq!(cache.get(&sym_key), Some(ScaledCount::new(3, 200)));
        assert_eq!((cache.hits(), cache.misses()), (2, 2));
    }

    #[test]
    fn export_is_sorted_and_restore_rebuilds_without_counting() {
        let cache = AnswerCache::with_shards(4);
        cache.insert(AnswerCache::key(2, "zz"), answer(0.2));
        cache.insert(AnswerCache::key(1, "aa"), answer(0.1));
        let exported = cache.export();
        let keys: Vec<&str> = exported.iter().map(|(k, _)| k.as_str()).collect();
        let mut sorted = keys.clone();
        sorted.sort();
        assert_eq!(keys, sorted);
        let fresh = AnswerCache::new();
        fresh.restore(exported.clone());
        assert_eq!(fresh.export(), exported);
        // Restoring is not a lookup: counters start cold.
        assert_eq!((fresh.hits(), fresh.misses()), (0, 0));

        let denoms = DenomCache::new();
        let key = DenomKey {
            kb_fingerprint: 7,
            vocab_fingerprint: 8,
            n: 3,
            tau: (1, 8),
            budget: 1 << 20,
            symmetry: true,
        };
        denoms.insert(key.clone(), ScaledCount::new(5, 100));
        let fresh = DenomCache::new();
        fresh.restore(denoms.export());
        assert_eq!(fresh.get(&key), Some(ScaledCount::new(5, 100)));
    }

    #[test]
    fn concurrent_workers_share_entries() {
        let cache = AnswerCache::new();
        std::thread::scope(|s| {
            for t in 0..4 {
                let cache = &cache;
                s.spawn(move || {
                    for i in 0..50 {
                        let k = AnswerCache::key(i % 8, "shared");
                        if cache.get(&k).is_none() {
                            cache.insert(k, answer(t as f64));
                        }
                    }
                });
            }
        });
        assert_eq!(cache.len(), 8);
        assert_eq!(cache.hits() + cache.misses(), 200);
    }
}
