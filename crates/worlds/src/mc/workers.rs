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

use super::plan::SamplePlan;
use super::stats::Tally;
use crate::eval::Evaluator;
use crate::world::World;
use rw_logic::ast::Formula;
use rw_logic::{Tolerances, Vocabulary};
use rw_util::{par, StdRng};
use std::ops::Range;

/// Everything a chunk needs, shared read-only across workers.
pub(crate) struct ChunkCtx<'a> {
    pub kb_formula: &'a Formula,
    pub query: &'a Formula,
    pub vocab: &'a Vocabulary,
    pub tol: &'a Tolerances,
    pub plan: &'a SamplePlan,
    pub n: usize,
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

impl ChunkCtx<'_> {
    fn chunk_draws(&self, chunk: u64) -> u64 {
        self.chunk_size
            .min(self.cap - (chunk * self.chunk_size).min(self.cap))
    }

    /// Runs one chunk to completion: `chunk_draws` proposal draws,
    /// rejection against the KB, query evaluation on acceptance.
    fn run_chunk(&self, chunk: u64) -> Tally {
        let mut rng = StdRng::seed_from_u64(chunk_seed(self.seed, self.n, chunk));
        let mut world = World::empty(self.vocab, self.n);
        let mut tally = Tally::default();
        for _ in 0..self.chunk_draws(chunk) {
            tally.drawn += 1;
            let Some(weight) = self.plan.draw(self.vocab, self.n, &mut world, &mut rng) else {
                continue; // forced-literal conflict: certain rejection
            };
            let mut ev = Evaluator::new(&world, self.vocab, self.tol);
            if !ev.eval(self.kb_formula) {
                continue;
            }
            tally.accepted += 1;
            tally.w_acc += weight;
            tally.w2_acc += weight * weight;
            if ev.eval(self.query) {
                tally.hits += 1;
                tally.w_hit += weight;
                tally.w2_hit += weight * weight;
            }
        }
        tally
    }
}

/// Runs the chunks in `range` across `threads` workers (0 = one per
/// core) on the shared [`rw_util::par`] pool, returning their tallies
/// **in chunk order** regardless of which worker computed what.
pub(crate) fn run_chunks(ctx: &ChunkCtx<'_>, range: Range<u64>, threads: usize) -> Vec<Tally> {
    let count = (range.end - range.start) as usize;
    par::map(count, threads, |i| ctx.run_chunk(range.start + i as u64))
}

#[cfg(test)]
mod tests {
    use super::*;
    use rw_logic::KnowledgeBase;
    use rw_util::Rat;

    fn ctx_parts() -> (KnowledgeBase, Formula) {
        let mut kb = KnowledgeBase::parse("||P(x)||_x ~=_1 0.5; Q(C)").unwrap();
        let q = kb.parse_query("P(C)").unwrap();
        (kb, q)
    }

    #[test]
    fn chunk_tallies_are_identical_across_thread_counts() {
        let (kb, q) = ctx_parts();
        let plan = SamplePlan::build(&kb);
        let kbf = kb.as_formula();
        let tol = Tolerances::uniform(Rat::new(1, 4));
        let ctx = ChunkCtx {
            kb_formula: &kbf,
            query: &q,
            vocab: kb.vocab(),
            tol: &tol,
            plan: &plan,
            n: 4,
            seed: 77,
            chunk_size: 256,
            cap: 2048,
        };
        let sequential = run_chunks(&ctx, 0..8, 1);
        for threads in [2usize, 4, 0] {
            let parallel = run_chunks(&ctx, 0..8, threads);
            assert_eq!(sequential, parallel, "diverged at {threads} threads");
        }
    }

    #[test]
    fn last_chunk_truncates_to_the_cap() {
        let (kb, q) = ctx_parts();
        let plan = SamplePlan::build(&kb);
        let kbf = kb.as_formula();
        let tol = Tolerances::uniform(Rat::new(1, 4));
        let ctx = ChunkCtx {
            kb_formula: &kbf,
            query: &q,
            vocab: kb.vocab(),
            tol: &tol,
            plan: &plan,
            n: 4,
            seed: 1,
            chunk_size: 100,
            cap: 250,
        };
        let tallies = run_chunks(&ctx, 0..3, 2);
        assert_eq!(
            tallies.iter().map(|t| t.drawn).collect::<Vec<_>>(),
            vec![100, 100, 50]
        );
    }

    #[test]
    fn different_chunks_get_different_streams() {
        let (kb, q) = ctx_parts();
        let plan = SamplePlan::build(&kb);
        let kbf = kb.as_formula();
        let tol = Tolerances::uniform(Rat::new(1, 4));
        let ctx = ChunkCtx {
            kb_formula: &kbf,
            query: &q,
            vocab: kb.vocab(),
            tol: &tol,
            plan: &plan,
            n: 4,
            seed: 5,
            chunk_size: 512,
            cap: 1024,
        };
        let tallies = run_chunks(&ctx, 0..2, 1);
        assert_ne!(tallies[0], tallies[1]);
    }
}
