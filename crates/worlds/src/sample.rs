//! Uniform sampling of a single world from `W_N(Φ)`.
//!
//! Sampling a world uniformly is trivial by independence of the slots:
//! each predicate bit is a fair coin, each function entry and each
//! constant is uniform over the domain. Degree-of-belief estimation by
//! sampling lives in [`crate::mc`].

use crate::world::World;
use rw_logic::Vocabulary;
use rw_util::Rng;

/// Draws one world uniformly at random.
pub fn sample_world(vocab: &Vocabulary, n: usize, rng: &mut impl Rng) -> World {
    let mut w = World::empty(vocab, n);
    for p in vocab.preds() {
        let size = w.rel(p).size();
        for idx in 0..size {
            w.rel_mut(p).set_raw(idx, rng.gen_bool(0.5));
        }
    }
    for f in 0..vocab.func_count() {
        let table = w.func_table_mut(f);
        for entry in table.iter_mut() {
            *entry = rng.gen_range(0..n);
        }
    }
    for c in 0..vocab.const_count() {
        w.set_const(c, rng.gen_range(0..n));
    }
    w
}

#[cfg(test)]
mod tests {
    use super::*;
    use rw_util::StdRng;

    #[test]
    fn sampled_worlds_are_legal() {
        let mut v = Vocabulary::new();
        v.pred("P", 1).unwrap();
        v.func("f", 1).unwrap();
        v.constant("c").unwrap();
        let mut rng = StdRng::seed_from_u64(3);
        for _ in 0..100 {
            let w = sample_world(&v, 5, &mut rng);
            assert!(w.const_denotation(0) < 5);
            for e in 0..5 {
                assert!(w.apply_func(0, &[e]) < 5);
            }
        }
    }
}
