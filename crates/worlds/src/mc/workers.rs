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

use super::plan::Proposal;
use super::stats::Tally;
use crate::compile::Program;
use rw_util::{par, StdRng};
use std::ops::Range;

/// Everything a chunk needs, shared read-only across workers.
pub(crate) struct ChunkCtx<'a> {
    /// The KB compiled at this sweep point: the acceptance check.
    pub kb: &'a Program,
    /// The query compiled over the same slot layout.
    pub query: &'a Program,
    /// The KB's sampling plan bound to the programs' slot layout.
    pub proposal: &'a Proposal,
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

    /// Runs one chunk to completion: `chunk_draws` proposal draws into a
    /// reused slot vector, rejection against the compiled KB, the
    /// compiled query on acceptance.
    fn run_chunk(&self, chunk: u64) -> Tally {
        let layout = self.kb.layout();
        let mut rng = StdRng::seed_from_u64(chunk_seed(self.seed, layout.n(), chunk));
        let mut slots = vec![0usize; layout.slot_count()];
        let mut forced = Vec::new();
        let mut tally = Tally::default();
        for _ in 0..self.chunk_draws(chunk) {
            tally.drawn += 1;
            let Some(weight) = self.proposal.draw(&mut slots, &mut forced, &mut rng) else {
                continue; // forced-literal conflict: certain rejection
            };
            if !self.kb.holds(&slots) {
                continue;
            }
            tally.accepted += 1;
            tally.w_acc += weight;
            tally.w2_acc += weight * weight;
            if self.query.holds(&slots) {
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
    use crate::mc::SamplePlan;
    use rw_logic::{KnowledgeBase, Tolerances};
    use rw_util::Rat;

    /// The proposal and the KB/query programs at `N = 4`, `τ = 1/4`.
    fn ctx_parts() -> (Proposal, Program, Program) {
        let mut kb = KnowledgeBase::parse("||P(x)||_x ~=_1 0.5; Q(C)").unwrap();
        let q = kb.parse_query("P(C)").unwrap();
        let tol = Tolerances::uniform(Rat::new(1, 4));
        let compile = |f| Program::compile(kb.vocab(), 4, &tol, f).unwrap();
        let kb_formula = kb.as_formula();
        let kb_program = compile(&kb_formula);
        let proposal = SamplePlan::build(&kb).proposal(kb_program.layout());
        (proposal, kb_program, compile(&q))
    }

    #[test]
    fn chunk_tallies_are_identical_across_thread_counts() {
        let (proposal, kb, q) = ctx_parts();
        let ctx = ChunkCtx {
            kb: &kb,
            query: &q,
            proposal: &proposal,
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
        let (proposal, kb, q) = ctx_parts();
        let ctx = ChunkCtx {
            kb: &kb,
            query: &q,
            proposal: &proposal,
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
        let (proposal, kb, q) = ctx_parts();
        let ctx = ChunkCtx {
            kb: &kb,
            query: &q,
            proposal: &proposal,
            seed: 5,
            chunk_size: 512,
            cap: 1024,
        };
        let tallies = run_chunks(&ctx, 0..2, 1);
        assert_ne!(tallies[0], tallies[1]);
    }
}
