//! The draw reservoir: a sweep point's accepted draws, kept so a later
//! query against the same knowledge base replays them instead of
//! drawing and checking them again.
//!
//! The KB side of `#worlds(φ ∧ KB) / #worlds(KB)` does not depend on the
//! query, and neither does the sampler's: a chunk's RNG is seeded from
//! `(seed, N, chunk)` alone and the proposal and acceptance check are
//! built from the KB alone. So every query against one KB draws and
//! accepts exactly the same worlds chunk for chunk; only the query check
//! differs. A fresh chunk therefore also yields a [`StoredChunk`]: its
//! KB-side sums (`drawn`, `accepted`, `w_acc`, `w2_acc`) and, per
//! accepted draw, the draw's [`PackedWorld`] and its weight. The record
//! is one bit stream: per draw, the world's predicate-bit words as the
//! proposal wrote them (the last one cut to the bits it holds), then
//! each element slot in as many bits as the domain needs. A chunk's
//! weights take few distinct values (products of the same few coin
//! factors), so they are kept as one-byte codes into a per-chunk table
//! when at most 256 are distinct. Replaying a chunk reads each draw's
//! words back into one packed world and runs the compiled query on it,
//! in draw order, so `hits`, `w_hit` and `w2_hit` are summed in the same
//! order as a fresh run and the chunk's [`Tally`] is bit-identical.
//!
//! [`Reservoir`] is the byte-bounded, LRU-evicting map those chunk lists
//! live in, shared across threads. A sweep reaches it through a
//! [`Scoped`] view, which addresses one sweep point by `(τ, N)`; the
//! caller's scope key supplies everything else that selects a stream
//! (the KB, the seed and config, the sample cap). A point records its
//! fresh chunks only while they fit in the budget beside what it loaded,
//! so the memory a sweep holds for the reservoir is bounded by the
//! budget, never by its draw count.

use super::stats::Tally;
use crate::compile::{PackedWorld, Program, SlotLayout};
use rw_util::Rat;
use std::collections::HashMap;
use std::hash::Hash;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// One chunk's KB-side record: enough to rebuild its [`Tally`] for any
/// query over the same slot layout without drawing again.
#[derive(Clone, Debug, PartialEq)]
pub struct StoredChunk {
    drawn: u64,
    w_acc: f64,
    w2_acc: f64,
    /// The accepted draws' packed worlds, back to back in draw order
    /// ([`write_world`]).
    bits: Vec<u64>,
    /// The accepted draws' importance weights, in draw order.
    weights: Weights,
}

/// A chunk's accepted-draw weights.
#[derive(Clone, Debug, PartialEq)]
enum Weights {
    /// `table[codes[i]]` is draw `i`'s weight.
    Coded { table: Vec<f64>, codes: Vec<u8> },
    /// More than 256 distinct weights: each one in full.
    Plain(Vec<f64>),
}

impl Weights {
    /// `weights` coded against a table of its distinct values, when
    /// there are at most 256 of them (compared bit for bit). Codes are
    /// found through an open-addressing index at most half full.
    fn encode(weights: &[f64]) -> Weights {
        const SLOTS: usize = 512;
        // `u64::MAX` is a NaN pattern, never a weight: the empty mark.
        let (mut keys, mut slot_codes) = ([u64::MAX; SLOTS], [0u8; SLOTS]);
        let (mut table, mut len) = ([0f64; 256], 0);
        let mut codes = Vec::with_capacity(weights.len());
        for &w in weights {
            let bits = w.to_bits();
            let mut slot = (bits.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 55) as usize;
            while keys[slot] != bits && keys[slot] != u64::MAX {
                slot = (slot + 1) % SLOTS;
            }
            if keys[slot] == u64::MAX {
                if len == table.len() {
                    return Weights::Plain(weights.to_vec());
                }
                (keys[slot], slot_codes[slot], table[len]) = (bits, len as u8, w);
                len += 1;
            }
            codes.push(slot_codes[slot]);
        }
        Weights::Coded {
            table: table[..len].to_vec(),
            codes,
        }
    }

    fn len(&self) -> usize {
        match self {
            Weights::Coded { codes, .. } => codes.len(),
            Weights::Plain(w) => w.len(),
        }
    }

    fn bytes(&self) -> usize {
        match self {
            Weights::Coded { table, codes } => 8 * table.capacity() + codes.capacity(),
            Weights::Plain(w) => 8 * w.capacity(),
        }
    }

    /// Calls `f` with each weight in draw order.
    #[inline]
    fn for_each(&self, mut f: impl FnMut(f64)) {
        match self {
            Weights::Coded { table, codes } => codes.iter().for_each(|&c| f(table[c as usize])),
            Weights::Plain(w) => w.iter().for_each(|&w| f(w)),
        }
    }
}

impl StoredChunk {
    /// Draws the chunk made (its length under the cap it ran with).
    pub fn drawn(&self) -> u64 {
        self.drawn
    }

    /// Draws the chunk accepted.
    pub fn accepted(&self) -> u64 {
        self.weights.len() as u64
    }

    /// Bytes the record holds, counted against a [`Reservoir`] budget.
    pub fn bytes(&self) -> usize {
        std::mem::size_of::<StoredChunk>() + 8 * self.bits.capacity() + self.weights.bytes()
    }

    /// The chunk's tally for the query `query`, compiled over the layout
    /// the chunk was drawn in: the stored KB-side sums, plus the query
    /// run on each accepted draw in draw order.
    pub(crate) fn replay(&self, query: &Program) -> Tally {
        let mut tally = Tally {
            drawn: self.drawn,
            accepted: self.accepted(),
            w_acc: self.w_acc,
            w2_acc: self.w2_acc,
            ..Tally::default()
        };
        self.for_each_draw(query.layout(), |world, weight| {
            if query.holds(world) {
                tally.hits += 1;
                tally.w_hit += weight;
                tally.w2_hit += weight * weight;
            }
        });
        tally
    }

    /// Calls `f` with each accepted draw's world, read back into one
    /// packed world of `layout`, and its weight, in draw order.
    fn for_each_draw(&self, layout: &SlotLayout, mut f: impl FnMut(&PackedWorld, f64)) {
        let mut world = PackedWorld::new(layout);
        let mut reader = BitReader::new(&self.bits);
        self.weights.for_each(|weight| {
            read_world(layout, &mut reader, &mut world);
            f(&world, weight);
        });
    }
}

/// Builds a [`StoredChunk`] alongside a fresh chunk's tally.
///
/// Draws are written into this thread's scratch buffers, which keep
/// their capacity from chunk to chunk, and copied out once, at their
/// final size, when the chunk is done: a record costs one allocation per
/// buffer and leaves no growth garbage behind.
pub(crate) struct ChunkRecorder {
    writer: BitWriter,
    weights: Vec<f64>,
    /// Bytes the finished record may take.
    limit: usize,
}

thread_local! {
    /// The recorder buffers of the chunk last recorded on this thread.
    static SCRATCH: std::cell::Cell<(Vec<u64>, Vec<f64>)> = const {
        std::cell::Cell::new((Vec::new(), Vec::new()))
    };
}

impl ChunkRecorder {
    /// A recorder for a record of at most `limit` bytes.
    pub(crate) fn new(limit: usize) -> ChunkRecorder {
        let (words, weights) = SCRATCH.take();
        ChunkRecorder {
            writer: BitWriter {
                words,
                ..BitWriter::default()
            },
            weights,
            limit,
        }
    }

    /// Records one accepted draw; false once the finished record could
    /// no longer fit its byte limit (the recorder is then to be dropped).
    /// The test counts the packed bits and one byte per weight, the
    /// least the record can take, so the buffers hold at most about nine
    /// times the limit (each weight is an `f64` until [`Self::finish`]).
    pub(crate) fn accept(&mut self, layout: &SlotLayout, world: &PackedWorld, weight: f64) -> bool {
        write_world(layout, world, &mut self.writer);
        self.weights.push(weight);
        8 * self.writer.full + self.weights.len() <= self.limit
    }

    /// The record of the chunk whose tally is `tally`.
    pub(crate) fn finish(self, tally: &Tally) -> StoredChunk {
        debug_assert_eq!(tally.accepted, self.weights.len() as u64);
        let (mut words, mut weights) = (self.writer.finish(), self.weights);
        let stored = StoredChunk {
            drawn: tally.drawn,
            w_acc: tally.w_acc,
            w2_acc: tally.w2_acc,
            bits: words.to_vec(),
            weights: Weights::encode(&weights),
        };
        words.clear();
        weights.clear();
        SCRATCH.set((words, weights));
        stored
    }
}

/// Bits per slot of `layout`'s element-valued slots (function entries
/// and constants): enough for the values `0..n`.
fn element_width(layout: &SlotLayout) -> u32 {
    usize::BITS - (layout.n() - 1).leading_zeros()
}

/// Appends `world` to `out`: its predicate-bit words as they are, the
/// last one cut to the bits it holds, then each element slot in
/// [`element_width`] bits.
fn write_world(layout: &SlotLayout, world: &PackedWorld, out: &mut BitWriter) {
    out.reserve(world.bit_words().len() + world.elems.len());
    let bits = layout.bit_slot_count();
    for (i, &word) in world.bit_words().iter().enumerate() {
        out.put(word, (bits - 64 * i).min(64) as u32);
    }
    let width = element_width(layout);
    for &e in &world.elems {
        out.put(e as u64, width);
    }
}

/// Reads one world written by [`write_world`] into `world`.
fn read_world(layout: &SlotLayout, input: &mut BitReader<'_>, world: &mut PackedWorld) {
    let bits = layout.bit_slot_count();
    let words = world.words.len() - 1;
    for (i, word) in world.words[..words].iter_mut().enumerate() {
        *word = input.get((bits - 64 * i).min(64) as u32);
    }
    let width = element_width(layout);
    for e in &mut world.elems {
        *e = input.get(width) as usize;
    }
}

/// A little-endian bit stream over `u64` words, written with no branch
/// on where a word ends: that falls at another value from draw to draw.
#[derive(Default)]
struct BitWriter {
    /// The full words, then room the partial word is stored into.
    words: Vec<u64>,
    /// Full words written.
    full: usize,
    /// The partial word, its low `used` bits filled.
    acc: u64,
    used: u32,
}

impl BitWriter {
    /// Makes room for `values` more [`Self::put`]s, each of which ends
    /// at most one word further on.
    fn reserve(&mut self, values: usize) {
        let needed = self.full + values + 1;
        if self.words.len() < needed {
            self.words.resize(needed.max(2 * self.words.len()), 0);
        }
    }

    /// Appends `value`, which must be below `2^width` (`width ≤ 64`),
    /// into room [`Self::reserve`] made.
    #[inline]
    fn put(&mut self, value: u64, width: u32) {
        debug_assert!(
            width == 64 || value >> width == 0,
            "{value} over {width} bits"
        );
        self.acc |= value << self.used;
        self.words[self.full] = self.acc;
        let spilled = self.used + width >= 64;
        // The bits that did not fit, `value >> (64 - used)`: none when
        // `used = 0`.
        let carry = value >> 1 >> (63 - self.used);
        self.acc = if spilled { carry } else { self.acc };
        self.full += spilled as usize;
        self.used = (self.used + width) % 64;
    }

    fn finish(mut self) -> Vec<u64> {
        self.words.truncate(self.full);
        if self.used > 0 {
            self.words.push(self.acc);
        }
        self.words
    }
}

/// Reads back what a [`BitWriter`] wrote, in order.
struct BitReader<'a> {
    words: &'a [u64],
    pos: usize,
}

impl<'a> BitReader<'a> {
    fn new(words: &'a [u64]) -> BitReader<'a> {
        BitReader { words, pos: 0 }
    }

    /// The next `width` (≤ 64) bits.
    #[inline]
    fn get(&mut self, width: u32) -> u64 {
        if width == 0 {
            return 0;
        }
        let (i, off) = (self.pos / 64, (self.pos % 64) as u32);
        // The word a value may run on into, read whether it does or not;
        // the stream's last word has none.
        let next = self.words.get(i + 1).map_or(0, |&w| w);
        self.pos += width as usize;
        (self.words[i] >> off | next << 1 << (63 - off)) & mask(width)
    }
}

fn mask(width: u32) -> u64 {
    u64::MAX >> (64 - width)
}

/// A byte-bounded map from sweep points to stored chunk lists, evicting
/// the least recently used entry first. An entry is keyed by a caller's
/// scope `K` (see [`Reservoir::scope`]) and the point's `(τ, N)`.
/// Lookups and fills take one short lock; a fill is built by its query
/// without the lock held, so no lookup ever waits on sampling.
///
/// ```
/// use rw_logic::KnowledgeBase;
/// use rw_util::Rat;
/// use rw_worlds::mc::{estimate_sweep, estimate_sweep_stored, McConfig, Reservoir};
///
/// let mut kb = KnowledgeBase::parse("||P(x)||_x ~=_1 0.7; Q(C)").unwrap();
/// let (a, b) = (kb.parse_query("P(C)").unwrap(), kb.parse_query("!P(C)").unwrap());
/// let points = [(Rat::new(1, 4), 4)];
/// let cfg = McConfig::default();
/// let reservoir = Reservoir::with_budget(1 << 20);
/// let store = reservoir.scope(1u64);
/// let first = estimate_sweep_stored(&kb, &a, &points, &cfg, Some(&store));
/// assert_eq!(reservoir.len(), 1);
/// // The second query replays the first one's accepted draws.
/// let second = estimate_sweep_stored(&kb, &b, &points, &cfg, Some(&store));
/// assert_eq!(reservoir.hits(), 1);
/// assert_eq!(first, estimate_sweep(&kb, &a, &points, &cfg));
/// assert_eq!(second, estimate_sweep(&kb, &b, &points, &cfg));
/// ```
#[derive(Debug)]
pub struct Reservoir<K> {
    budget: usize,
    lru: Mutex<Lru<PointKey<K>>>,
    hits: AtomicU64,
    misses: AtomicU64,
    evictions: AtomicU64,
}

/// A scope key and a sweep point: `(scope, (τ numerator, τ denominator), N)`.
type PointKey<K> = (K, (i128, i128), usize);

#[derive(Debug)]
struct Lru<K> {
    entries: HashMap<K, Entry>,
    bytes: usize,
    /// Bumped on every touch; an entry's `used` is the tick it was last
    /// touched at.
    tick: u64,
}

#[derive(Debug)]
struct Entry {
    chunks: Vec<Arc<StoredChunk>>,
    bytes: usize,
    used: u64,
}

impl<K: Eq + Hash + Clone> Reservoir<K> {
    /// An empty reservoir holding at most `budget` bytes of chunks.
    pub fn with_budget(budget: usize) -> Reservoir<K> {
        Reservoir {
            budget,
            lru: Mutex::new(Lru {
                entries: HashMap::new(),
                bytes: 0,
                tick: 0,
            }),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            evictions: AtomicU64::new(0),
        }
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, Lru<PointKey<K>>> {
        self.lru.lock().expect("draw reservoir poisoned")
    }

    /// The chunks stored under `key` (empty when none), counting the
    /// lookup as a hit or a miss and marking the entry recently used.
    fn get(&self, key: &PointKey<K>) -> Vec<Arc<StoredChunk>> {
        let mut lru = self.lock();
        lru.tick += 1;
        let tick = lru.tick;
        match lru.entries.get_mut(key) {
            Some(entry) => {
                entry.used = tick;
                self.hits.fetch_add(1, Ordering::Relaxed);
                entry.chunks.clone()
            }
            None => {
                self.misses.fetch_add(1, Ordering::Relaxed);
                Vec::new()
            }
        }
    }

    /// Stores `chunks` under `key`, merged index by index with what is
    /// there: a stored chunk stays unless the new one at its index drew
    /// more (a truncated chunk gives way to a full one). Then evicts
    /// least recently used entries until the budget holds. An entry
    /// larger than the whole budget is itself the one evicted, leaving
    /// the others in place.
    fn fill(&self, key: PointKey<K>, chunks: Vec<Arc<StoredChunk>>) {
        let mut lru = self.lock();
        lru.tick += 1;
        let tick = lru.tick;
        let merged = match lru.entries.remove(&key) {
            Some(old) => {
                lru.bytes -= old.bytes;
                merge(old.chunks, chunks)
            }
            None => chunks,
        };
        let bytes = merged.iter().map(|c| c.bytes()).sum();
        if bytes > self.budget {
            self.evictions.fetch_add(1, Ordering::Relaxed);
            return;
        }
        lru.bytes += bytes;
        lru.entries.insert(
            key,
            Entry {
                chunks: merged,
                bytes,
                used: tick,
            },
        );
        self.evict_to_budget(&mut lru);
    }

    /// Evicts least recently used entries until the budget holds. A
    /// linear scan per eviction: a budget holds a few dozen entries.
    fn evict_to_budget(&self, lru: &mut Lru<PointKey<K>>) {
        while lru.bytes > self.budget {
            let Some(oldest) = lru
                .entries
                .iter()
                .min_by_key(|(_, e)| e.used)
                .map(|(k, _)| k.clone())
            else {
                break;
            };
            let evicted = lru.entries.remove(&oldest).expect("found above");
            lru.bytes -= evicted.bytes;
            self.evictions.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Drops every entry whose scope fails `keep` (not counted as
    /// evictions).
    pub fn retain(&self, mut keep: impl FnMut(&K) -> bool) {
        let mut lru = self.lock();
        let mut freed = 0;
        lru.entries.retain(|(scope, _, _), e| {
            let kept = keep(scope);
            if !kept {
                freed += e.bytes;
            }
            kept
        });
        lru.bytes -= freed;
    }

    /// Lookups that found an entry.
    pub fn hits(&self) -> u64 {
        self.hits.load(Ordering::Relaxed)
    }

    /// Lookups that found nothing.
    pub fn misses(&self) -> u64 {
        self.misses.load(Ordering::Relaxed)
    }

    /// Entries evicted to stay within the budget, counting each point
    /// too large for the whole budget as one.
    pub fn evictions(&self) -> u64 {
        self.evictions.load(Ordering::Relaxed)
    }

    /// Entries held: one per stored sweep point.
    pub fn len(&self) -> usize {
        self.lock().entries.len()
    }

    /// True when nothing is held.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Bytes held, at most the budget.
    pub fn bytes(&self) -> usize {
        self.lock().bytes
    }

    /// The byte budget.
    pub fn budget(&self) -> usize {
        self.budget
    }

    /// One sweep's view of this reservoir: its points' entries, keyed by
    /// `(scope, τ, N)`. `scope` must pin everything else that selects a
    /// point's stream.
    pub fn scope(&self, scope: K) -> Scoped<'_, K> {
        Scoped {
            reservoir: self,
            scope,
        }
    }
}

/// Where a sweep finds and keeps its points' stored chunks: a
/// [`Reservoir`] under one scope key, addressed by `(τ, N)`.
pub struct Scoped<'a, K> {
    reservoir: &'a Reservoir<K>,
    scope: K,
}

impl<K: Eq + Hash + Clone> Scoped<'_, K> {
    /// The stored chunks of the point, chunk `i` at index `i` (empty when
    /// nothing is stored).
    pub(crate) fn load(&self, tau: Rat, n: usize) -> Vec<Arc<StoredChunk>> {
        self.reservoir.get(&self.key(tau, n))
    }

    /// Offers the point's chunks after a run that drew some of them
    /// fresh, chunk `i` at index `i`.
    pub(crate) fn save(&self, tau: Rat, n: usize, chunks: Vec<Arc<StoredChunk>>) {
        self.reservoir.fill(self.key(tau, n), chunks);
    }

    /// The reservoir's byte budget: no point records more.
    pub(crate) fn budget(&self) -> usize {
        self.reservoir.budget
    }

    /// Notes a point whose records outgrew the budget and were dropped
    /// unsaved: an eviction, as for an entry too large to keep.
    pub(crate) fn refuse(&self) {
        self.reservoir.evictions.fetch_add(1, Ordering::Relaxed);
    }

    fn key(&self, tau: Rat, n: usize) -> PointKey<K> {
        (self.scope.clone(), (tau.num(), tau.den()), n)
    }
}

/// `new` laid over `old` index by index: the old chunk stays unless the
/// new one drew more.
fn merge(old: Vec<Arc<StoredChunk>>, new: Vec<Arc<StoredChunk>>) -> Vec<Arc<StoredChunk>> {
    let len = old.len().max(new.len());
    let (mut old, mut new) = (old.into_iter(), new.into_iter());
    (0..len)
        .map(|_| match (old.next(), new.next()) {
            (Some(o), Some(n)) if n.drawn > o.drawn => n,
            (Some(o), _) => o,
            (None, Some(n)) => n,
            (None, None) => unreachable!("both lists end at len"),
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use rw_logic::KnowledgeBase;
    use rw_util::{Rng, StdRng};

    /// A world of `layout` with every slot uniform over its domain.
    fn random_world(layout: &SlotLayout, rng: &mut StdRng) -> PackedWorld {
        let mut world = PackedWorld::new(layout);
        for s in 0..layout.slot_count() {
            world.set(s, rng.next_u64() as usize % layout.domain(s));
        }
        world
    }

    #[test]
    fn worlds_round_trip_through_a_record() {
        // 63, 64 and 65 predicate bits (the last word full, one short and
        // one bit into a second word), with and without function entries
        // and constants beside them.
        let cases = [
            ("P(C)", 63),
            ("P(C)", 64),
            ("P(C)", 65),
            ("||P(x)||_x ~=_1 0.5", 65),
            ("Likes(A, B); P(F(C))", 7),
            ("Likes(A, B); P(F(C))", 8),
            ("Likes(A, B)", 8),
        ];
        let mut rng = StdRng::seed_from_u64(11);
        for (src, n) in cases
            .into_iter()
            .chain([1, 2, 3, 9, 11, 33].map(|n| ("Likes(A, B); P(F(C))", n)))
        {
            let kb = KnowledgeBase::parse(src).unwrap();
            let layout = SlotLayout::new(kb.vocab(), n).unwrap();
            let worlds: Vec<PackedWorld> =
                (0..40).map(|_| random_world(&layout, &mut rng)).collect();
            let mut recorder = ChunkRecorder::new(usize::MAX);
            for (i, w) in worlds.iter().enumerate() {
                assert!(recorder.accept(&layout, w, i as f64));
            }
            let tally = Tally {
                drawn: 40,
                accepted: 40,
                ..Tally::default()
            };
            let stored = recorder.finish(&tally);
            // The record packs each draw's bits, no more.
            let width = usize::BITS - (n - 1).leading_zeros();
            let per_draw = layout.bit_slot_count()
                + (layout.slot_count() - layout.bit_slot_count()) * width as usize;
            assert_eq!(
                stored.bits.len(),
                (40 * per_draw).div_ceil(64),
                "`{src}` at N = {n}"
            );
            let mut back = Vec::new();
            stored.for_each_draw(&layout, |w, weight| back.push((w.clone(), weight)));
            assert_eq!(back.len(), 40);
            for (i, ((w, weight), expect)) in back.iter().zip(&worlds).enumerate() {
                assert_eq!(w, expect, "`{src}` at N = {n}, draw {i}");
                assert_eq!(*weight, i as f64);
            }
        }
    }

    #[test]
    fn weights_are_coded_up_to_256_distinct_values() {
        let few: Vec<f64> = (0..1000).map(|i| 0.5 + (i % 200) as f64).collect();
        let many: Vec<f64> = (0..1000).map(|i| 0.5 + i as f64).collect();
        for (weights, coded) in [(few, true), (many, false)] {
            let stored = Weights::encode(&weights);
            assert_eq!(matches!(stored, Weights::Coded { .. }), coded);
            let mut back = Vec::new();
            stored.for_each(|w| back.push(w));
            assert_eq!(back, weights);
        }
    }

    #[test]
    fn a_recorder_refuses_draws_once_its_record_cannot_fit() {
        let kb = KnowledgeBase::parse("P(C)").unwrap();
        let layout = SlotLayout::new(kb.vocab(), 8).unwrap();
        let mut world = PackedWorld::new(&layout);
        for s in 0..layout.slot_count() {
            world.set(s, 1);
        }
        // 8 predicate bits and 3 constant bits a draw, one byte a weight:
        // eleven draws fill one word (8 + 11 = 19 bytes); the twelfth
        // fills a second, 16 + 12 = 28 bytes, past the limit.
        let mut recorder = ChunkRecorder::new(26);
        let kept = (0..20)
            .take_while(|_| recorder.accept(&layout, &world, 0.5))
            .count();
        assert_eq!(kept, 11);
    }

    fn chunk(drawn: u64, bytes: usize) -> Arc<StoredChunk> {
        Arc::new(StoredChunk {
            drawn,
            w_acc: 0.0,
            w2_acc: 0.0,
            bits: vec![0; bytes / 8],
            weights: Weights::Plain(Vec::new()),
        })
    }

    /// The one sweep point the tests store under each scope.
    const TAU: Rat = Rat::ONE;

    #[test]
    fn least_recently_used_entries_go_first() {
        let size = chunk(1, 800).bytes();
        let reservoir = Reservoir::with_budget(3 * size);
        let at = |scope| reservoir.scope(scope);
        for scope in 0..3 {
            at(scope).save(TAU, 1, vec![chunk(1, 800)]);
        }
        assert_eq!(at(0).load(TAU, 1).len(), 1); // 1 is now the oldest
        at(3).save(TAU, 1, vec![chunk(1, 800)]);
        assert_eq!((reservoir.len(), reservoir.evictions()), (3, 1));
        assert!(at(1).load(TAU, 1).is_empty());
        assert_eq!(at(0).load(TAU, 1).len(), 1);
        // An entry over the whole budget is evicted at once.
        at(4).save(TAU, 1, vec![chunk(1, 8 * size)]);
        assert!(at(4).load(TAU, 1).is_empty());
        assert_eq!(reservoir.bytes(), 3 * size);
        reservoir.retain(|&k| k != 0);
        assert_eq!((reservoir.len(), reservoir.bytes()), (2, 2 * size));
    }

    #[test]
    fn fills_merge_index_by_index_keeping_the_longer_chunk() {
        let reservoir = Reservoir::with_budget(1 << 20);
        let store = reservoir.scope(());
        store.save(TAU, 1, vec![chunk(100, 8), chunk(40, 8)]);
        store.save(TAU, 1, vec![chunk(100, 16), chunk(100, 8), chunk(100, 8)]);
        let drawn: Vec<u64> = store.load(TAU, 1).iter().map(|c| c.drawn()).collect();
        assert_eq!(drawn, vec![100, 100, 100]);
        // The stored chunk 0 stayed: an equal length never replaces.
        assert_eq!(store.load(TAU, 1)[0].bits.len(), 1);
        store.save(TAU, 1, vec![chunk(100, 8), chunk(40, 8)]);
        assert_eq!(store.load(TAU, 1)[1].drawn(), 100);
        // Another point under the same scope is another entry.
        assert!(store.load(Rat::new(1, 2), 1).is_empty());
    }
}
