//! A small, deterministic, std-only random number generator.
//!
//! The workspace is offline-first: it cannot pull the `rand` crate, and the
//! only randomness it needs is Monte-Carlo world sampling (`rw-worlds`) and
//! benchmark input shuffling. This module provides the minimal surface those
//! callers use — [`Rng::gen_bool`], [`Rng::gen_range`] and a seedable
//! generator — backed by xoshiro256** seeded through SplitMix64, the
//! standard construction for fast, high-quality non-cryptographic streams.
//!
//! Not suitable for cryptography.

/// A stream of pseudo-random numbers.
///
/// Implementors supply [`Rng::next_u64`]; the derived helpers mirror the
/// fragment of the `rand` crate's API the workspace historically used.
pub trait Rng {
    /// The next 64 uniformly distributed bits.
    fn next_u64(&mut self) -> u64;

    /// `true` with probability `p` (clamped to `[0, 1]`).
    fn gen_bool(&mut self, p: f64) -> bool {
        // 53 bits gives an exact dyadic uniform in [0, 1).
        let u = (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64);
        u < p
    }

    /// A uniform draw from `range` (which must be non-empty).
    fn gen_range(&mut self, range: std::ops::Range<usize>) -> usize {
        assert!(range.start < range.end, "gen_range over empty range");
        range.start + Below::new(range.end - range.start).sample(self)
    }
}

/// A uniform draw from `0..n` with its rejection zone computed once.
///
/// [`Rng::gen_range`] builds one per call; a sampler drawing many
/// elements below the same `n` keeps one and skips the two 64-bit
/// divisions. Both consume the same words and return the same values.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Below {
    span: u64,
    /// The largest multiple of `span` not above `u64::MAX`: words at or
    /// past it are rejected, which avoids modulo bias (less than one
    /// rejection per draw on average).
    zone: u64,
    /// `span − 1` when `span` is a power of two above 1 (the reduction is
    /// then a mask), 0 otherwise.
    mask: u64,
}

impl Below {
    /// The sampler for `0..n` (`n` must be positive).
    pub fn new(n: usize) -> Below {
        assert!(n > 0, "uniform draw below 0");
        let span = n as u64;
        Below {
            span,
            zone: u64::MAX - (u64::MAX % span),
            mask: if span.is_power_of_two() { span - 1 } else { 0 },
        }
    }

    /// One draw: the first word below the zone, reduced modulo `n`.
    #[inline]
    pub fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> usize {
        loop {
            let v = rng.next_u64();
            if v < self.zone {
                let reduced = if self.mask != 0 {
                    v & self.mask
                } else {
                    v % self.span
                };
                return reduced as usize;
            }
        }
    }
}

/// The workspace's default generator: xoshiro256**.
#[derive(Clone, Debug)]
pub struct StdRng {
    s: [u64; 4],
}

impl StdRng {
    /// A generator whose full 256-bit state is derived from `seed` by
    /// SplitMix64 (so nearby seeds give unrelated streams).
    pub fn seed_from_u64(seed: u64) -> StdRng {
        let mut sm = seed;
        let mut next = || {
            sm = sm.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = sm;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        };
        StdRng {
            s: [next(), next(), next(), next()],
        }
    }
}

impl Rng for StdRng {
    #[inline]
    fn next_u64(&mut self) -> u64 {
        let s = &mut self.s;
        let result = s[1].wrapping_mul(5).rotate_left(7).wrapping_mul(9);
        let t = s[1] << 17;
        s[2] ^= s[0];
        s[3] ^= s[1];
        s[1] ^= s[2];
        s[0] ^= s[3];
        s[2] ^= t;
        s[3] = s[3].rotate_left(45);
        result
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_for_a_seed() {
        let mut a = StdRng::seed_from_u64(42);
        let mut b = StdRng::seed_from_u64(42);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
        let mut c = StdRng::seed_from_u64(43);
        assert_ne!(StdRng::seed_from_u64(42).next_u64(), c.next_u64());
    }

    #[test]
    fn gen_bool_tracks_probability() {
        let mut rng = StdRng::seed_from_u64(7);
        let hits = (0..100_000).filter(|_| rng.gen_bool(0.3)).count();
        let p = hits as f64 / 100_000.0;
        assert!((p - 0.3).abs() < 0.01, "{p}");
        let mut rng = StdRng::seed_from_u64(8);
        assert!((0..1000).all(|_| !rng.gen_bool(0.0)));
        assert!((0..1000).all(|_| rng.gen_bool(1.0)));
    }

    #[test]
    fn gen_range_is_uniform_and_in_bounds() {
        let mut rng = StdRng::seed_from_u64(11);
        let mut counts = [0usize; 5];
        for _ in 0..50_000 {
            let v = rng.gen_range(2..7);
            assert!((2..7).contains(&v));
            counts[v - 2] += 1;
        }
        for c in counts {
            let p = c as f64 / 50_000.0;
            assert!((p - 0.2).abs() < 0.02, "{counts:?}");
        }
    }

    #[test]
    fn below_matches_the_division_form_word_for_word() {
        // The mask and the precomputed zone must reproduce `v % n` with
        // the zone computed per call, rejections included.
        for n in [1usize, 2, 3, 7, 8, 32, 33, 1 << 40, (1 << 63) + 1] {
            let below = Below::new(n);
            let (mut a, mut b) = (
                StdRng::seed_from_u64(n as u64),
                StdRng::seed_from_u64(n as u64),
            );
            for _ in 0..2000 {
                let span = n as u64;
                let zone = u64::MAX - (u64::MAX % span);
                let expect = loop {
                    let v = b.next_u64();
                    if v < zone {
                        break (v % span) as usize;
                    }
                };
                assert_eq!(below.sample(&mut a), expect, "n = {n}");
            }
            assert_eq!(a.next_u64(), b.next_u64(), "n = {n}: streams diverged");
        }
    }
}
