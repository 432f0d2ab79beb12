//! Sampling chunks: per-chunk seeded RNGs run on the shared
//! [`rw_util::par`] pool.
//!
//! Determinism contract: the unit of work is a **chunk** of consecutive
//! draws whose RNG is seeded from `(seed, N, chunk index)` alone, so a
//! chunk's tally never depends on which worker ran it or on how many
//! workers exist. The pool returns tallies **in chunk order**, and the
//! caller merges them in that order — float summation order is
//! therefore fixed, making a run bit-reproducible for a given seed at
//! *any* thread count.
//!
//! A chunk is either drawn fresh or, when the reservoir holds it at the
//! same length, replayed from its [`StoredChunk`]: both give the same
//! tally bit for bit, so which one ran never shows in a result. Fresh
//! chunks are recorded against one shared byte allowance per sweep
//! point; the first record that does not fit ends recording for the
//! point, so the records a point holds never pass the allowance.

use super::plan::Proposal;
use super::reservoir::{ChunkRecorder, StoredChunk};
use super::stats::Tally;
use crate::compile::{PackedWorld, Program};
use rw_util::{par, StdRng};
use std::ops::Range;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, OnceLock};

/// The KB half of a sweep point: the acceptance check and the plan bound
/// to its layout. Built only when some chunk has to be drawn fresh.
pub(crate) struct Sampler {
    /// The KB compiled at this sweep point, minus the ground literals the
    /// proposal forces: the acceptance check.
    pub kb: Program,
    /// The KB's sampling plan bound to the program's slot layout.
    pub proposal: Proposal,
}

/// Everything a chunk needs, shared read-only across workers.
pub(crate) struct ChunkCtx<'a> {
    /// The query compiled over the sweep point's slot layout.
    pub query: &'a Program,
    /// The KB half, built by `build` on the first fresh chunk.
    pub sampler: &'a OnceLock<Sampler>,
    pub build: &'a (dyn Fn() -> Sampler + Sync),
    /// Stored chunks of this point, chunk `i` at index `i`.
    pub stored: &'a [Arc<StoredChunk>],
    /// Bytes of records this point may still keep: a fresh chunk returns
    /// its [`StoredChunk`] only if it fits. 0 means recording is off, or
    /// stopped because a record did not fit; it never rises again.
    pub record_left: AtomicUsize,
    pub seed: u64,
    /// Draws per full chunk.
    pub chunk_size: u64,
    /// Total draw cap for this sweep point (the last chunk truncates).
    pub cap: u64,
}

/// Mixes the run seed, domain size and chunk index into one RNG seed.
/// Chunk indices map injectively for a fixed `(seed, n)`, and
/// [`StdRng::seed_from_u64`] SplitMix-scrambles the result, so nearby
/// chunks get unrelated streams.
fn chunk_seed(seed: u64, n: usize, chunk: u64) -> u64 {
    seed ^ (n as u64).wrapping_mul(0xD1B5_4A32_D192_ED03)
        ^ chunk.wrapping_add(1).wrapping_mul(0x9E37_79B9_7F4A_7C15)
}

/// One chunk's tally, plus its record when it was drawn fresh and the
/// context records.
pub(crate) type ChunkResult = (Tally, Option<Arc<StoredChunk>>);

impl ChunkCtx<'_> {
    fn chunk_draws(&self, chunk: u64) -> u64 {
        self.chunk_size
            .min(self.cap - (chunk * self.chunk_size).min(self.cap))
    }

    /// Runs one chunk: replays it when it is stored at this length,
    /// draws it fresh otherwise.
    fn run_chunk(&self, chunk: u64) -> ChunkResult {
        let draws = self.chunk_draws(chunk);
        match self.stored.get(chunk as usize) {
            Some(stored) if stored.drawn() == draws => (stored.replay(self.query), None),
            _ => self.draw_chunk(chunk, draws),
        }
    }

    /// Draws one chunk fresh: `draws` proposal draws into a reused
    /// packed world, rejection against the compiled KB, the compiled
    /// query on acceptance.
    fn draw_chunk(&self, chunk: u64, draws: u64) -> ChunkResult {
        let Sampler { kb, proposal } = self.sampler.get_or_init(self.build);
        let layout = kb.layout();
        let mut rng = StdRng::seed_from_u64(chunk_seed(self.seed, layout.n(), chunk));
        let mut world = PackedWorld::new(layout);
        let mut forced = Vec::new();
        let mut tally = Tally::default();
        let limit = self.record_left.load(Ordering::Relaxed);
        let mut recorder = (limit > 0).then(|| ChunkRecorder::new(limit));
        for _ in 0..draws {
            tally.drawn += 1;
            let Some(weight) = proposal.draw(&mut world, &mut forced, &mut rng) else {
                continue; // forced-literal conflict: certain rejection
            };
            if !kb.holds(&world) {
                continue;
            }
            tally.accepted += 1;
            tally.w_acc += weight;
            tally.w2_acc += weight * weight;
            if let Some(r) = &mut recorder {
                if !r.accept(layout, &world, weight) {
                    recorder = None;
                    self.stop_recording();
                }
            }
            if self.query.holds(&world) {
                tally.hits += 1;
                tally.w_hit += weight;
                tally.w2_hit += weight * weight;
            }
        }
        let stored = recorder
            .map(|r| r.finish(&tally))
            .filter(|record| self.reserve(record.bytes()))
            .map(Arc::new);
        (tally, stored)
    }

    /// Takes `bytes` from the point's record allowance, or stops
    /// recording for the point when they do not fit.
    fn reserve(&self, bytes: usize) -> bool {
        let fits = self
            .record_left
            .fetch_update(Ordering::Relaxed, Ordering::Relaxed, |left| {
                left.checked_sub(bytes).filter(|&rest| rest > 0)
            })
            .is_ok();
        if !fits {
            self.stop_recording();
        }
        fits
    }

    fn stop_recording(&self) {
        self.record_left.store(0, Ordering::Relaxed);
    }

    /// True when fresh chunks no longer record: recording was off from
    /// the start, or a record did not fit (the point's records are then
    /// incomplete and must not be saved).
    pub(crate) fn recording_stopped(&self) -> bool {
        self.record_left.load(Ordering::Relaxed) == 0
    }
}

/// Runs the chunks in `range` across `threads` workers (0 = one per
/// core) on the shared [`rw_util::par`] pool, returning their results
/// **in chunk order** regardless of which worker computed what.
pub(crate) fn run_chunks(
    ctx: &ChunkCtx<'_>,
    range: Range<u64>,
    threads: usize,
) -> Vec<ChunkResult> {
    let count = (range.end - range.start) as usize;
    par::map(count, threads, |i| ctx.run_chunk(range.start + i as u64))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mc::SamplePlan;
    use rw_logic::{KnowledgeBase, Tolerances};
    use rw_util::Rat;

    /// The KB half, built, and the query program at `N = 4`, `τ = 1/4`.
    fn ctx_parts() -> (OnceLock<Sampler>, Program) {
        let mut kb = KnowledgeBase::parse("||P(x)||_x ~=_1 0.5; Q(C)").unwrap();
        let q = kb.parse_query("P(C)").unwrap();
        let tol = Tolerances::uniform(Rat::new(1, 4));
        let compile = |f| Program::compile(kb.vocab(), 4, &tol, f).unwrap();
        let acceptance = SamplePlan::acceptance(&kb);
        let kb_program = compile(&acceptance);
        let proposal = SamplePlan::build(&kb).proposal(kb_program.layout());
        let sampler = OnceLock::new();
        assert!(sampler
            .set(Sampler {
                kb: kb_program,
                proposal
            })
            .is_ok());
        (sampler, compile(&q))
    }

    fn prebuilt() -> Sampler {
        unreachable!("the KB half is built up front")
    }

    fn ctx<'a>(sampler: &'a OnceLock<Sampler>, q: &'a Program, seed: u64) -> ChunkCtx<'a> {
        ChunkCtx {
            query: q,
            sampler,
            build: &prebuilt,
            stored: &[],
            record_left: AtomicUsize::new(0),
            seed,
            chunk_size: 256,
            cap: 2048,
        }
    }

    fn tallies(results: Vec<ChunkResult>) -> Vec<Tally> {
        results.into_iter().map(|(t, _)| t).collect()
    }

    #[test]
    fn chunk_tallies_are_identical_across_thread_counts() {
        let (sampler, q) = ctx_parts();
        let ctx = ctx(&sampler, &q, 77);
        let sequential = tallies(run_chunks(&ctx, 0..8, 1));
        for threads in [2usize, 4, 0] {
            let parallel = tallies(run_chunks(&ctx, 0..8, threads));
            assert_eq!(sequential, parallel, "diverged at {threads} threads");
        }
    }

    #[test]
    fn last_chunk_truncates_to_the_cap() {
        let (sampler, q) = ctx_parts();
        let ctx = ChunkCtx {
            chunk_size: 100,
            cap: 250,
            ..ctx(&sampler, &q, 1)
        };
        let tallies = tallies(run_chunks(&ctx, 0..3, 2));
        assert_eq!(
            tallies.iter().map(|t| t.drawn).collect::<Vec<_>>(),
            vec![100, 100, 50]
        );
    }

    #[test]
    fn different_chunks_get_different_streams() {
        let (sampler, q) = ctx_parts();
        let ctx = ChunkCtx {
            chunk_size: 512,
            cap: 1024,
            ..ctx(&sampler, &q, 5)
        };
        let tallies = tallies(run_chunks(&ctx, 0..2, 1));
        assert_ne!(tallies[0], tallies[1]);
    }

    #[test]
    fn replayed_chunks_match_fresh_ones_and_short_ones_are_redrawn() {
        let (sampler, q) = ctx_parts();
        let recording = ChunkCtx {
            record_left: AtomicUsize::new(usize::MAX),
            ..ctx(&sampler, &q, 9)
        };
        let fresh = run_chunks(&recording, 0..4, 2);
        let stored: Vec<Arc<StoredChunk>> = fresh.iter().map(|(_, c)| c.clone().unwrap()).collect();
        for (t, c) in &fresh {
            let c = c.as_ref().unwrap();
            assert_eq!((c.drawn(), c.accepted()), (t.drawn, t.accepted));
        }
        // Every chunk stored: nothing is drawn (the KB half would panic
        // if it had to be built), and the tallies are the fresh ones.
        let unbuilt = OnceLock::new();
        let replaying = ChunkCtx {
            stored: &stored,
            ..ctx(&unbuilt, &q, 9)
        };
        let replayed = run_chunks(&replaying, 0..4, 2);
        assert!(replayed.iter().all(|(_, c)| c.is_none()));
        assert_eq!(tallies(replayed), tallies(fresh.clone()));
        // Under a cap that truncates chunk 3, the stored full chunk does
        // not fit: that chunk alone is drawn again, to the same prefix.
        let capped = ChunkCtx {
            cap: 3 * 256 + 40,
            stored: &stored,
            record_left: AtomicUsize::new(usize::MAX),
            ..ctx(&sampler, &q, 9)
        };
        let mixed = run_chunks(&capped, 0..4, 1);
        assert_eq!(
            mixed.iter().map(|(_, c)| c.is_some()).collect::<Vec<_>>(),
            vec![false, false, false, true]
        );
        assert_eq!(tallies(mixed[..3].to_vec()), tallies(fresh[..3].to_vec()));
        assert_eq!(mixed[3].0.drawn, 40);
    }

    #[test]
    fn records_stop_at_the_allowance_and_tallies_do_not_change() {
        let (sampler, q) = ctx_parts();
        let unbounded = ChunkCtx {
            record_left: AtomicUsize::new(usize::MAX),
            ..ctx(&sampler, &q, 3)
        };
        let full = run_chunks(&unbounded, 0..8, 1);
        let sizes: Vec<usize> = full
            .iter()
            .map(|(_, c)| c.as_ref().unwrap().bytes())
            .collect();
        // Room for the first three records and part of the fourth: the
        // fourth does not fit, and no later chunk records either.
        let allowance = sizes[..3].iter().sum::<usize>() + sizes[3] / 2;
        let bounded = ChunkCtx {
            record_left: AtomicUsize::new(allowance),
            ..ctx(&sampler, &q, 3)
        };
        let cut = run_chunks(&bounded, 0..8, 1);
        assert_eq!(
            cut.iter().map(|(_, c)| c.is_some()).collect::<Vec<_>>(),
            [true, true, true, false, false, false, false, false]
        );
        assert!(bounded.recording_stopped());
        assert_eq!(tallies(cut), tallies(full));
        // A record passing the allowance mid-chunk is dropped as it grows.
        let tiny = ChunkCtx {
            record_left: AtomicUsize::new(64),
            ..ctx(&sampler, &q, 3)
        };
        assert!(run_chunks(&tiny, 0..2, 2).iter().all(|(_, c)| c.is_none()));
        assert!(tiny.recording_stopped());
    }
}
