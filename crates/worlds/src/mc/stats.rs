//! Estimator statistics for the Monte-Carlo subsystem: weighted tallies,
//! Wilson score confidence intervals, and the diagonal extrapolation
//! shape shared with the exact finite-`N` stages.
//!
//! The sampler draws worlds from a KB-biased proposal (see
//! [`crate::mc::plan`]) and corrects with importance weights, so the
//! per-sample record is a *weighted* Bernoulli observation. A [`Tally`]
//! accumulates the sufficient statistics; the point estimate is the
//! self-normalized ratio `Σw·hit / Σw·accepted`, and the interval uses
//! the Wilson score with the *effective* sample size
//! `(Σw)² / Σw²` — the standard design-effect correction, which reduces
//! to the plain Wilson interval when every weight is 1 (pure rejection).

/// The 97.5% standard-normal quantile: a 95% two-sided interval.
pub const Z_95: f64 = 1.959_963_984_540_054;

/// Sufficient statistics of one stream (or merged streams) of weighted
/// rejection samples.
///
/// Merging is exact and associative on the integer fields; the floating
/// sums are merged in a fixed (chunk-index) order by the scheduler so a
/// run is bit-reproducible for a given seed regardless of thread count.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct Tally {
    /// Worlds drawn from the proposal.
    pub drawn: u64,
    /// Draws satisfying the knowledge base.
    pub accepted: u64,
    /// Accepted draws also satisfying the query.
    pub hits: u64,
    /// Σ weight over accepted draws.
    pub w_acc: f64,
    /// Σ weight over accepted draws satisfying the query.
    pub w_hit: f64,
    /// Σ weight² over accepted draws (for the effective sample size).
    pub w2_acc: f64,
    /// Σ weight² over accepted draws satisfying the query (for the
    /// ratio-estimator variance).
    pub w2_hit: f64,
}

impl Tally {
    /// Folds `other` into `self` (field-wise sums).
    pub fn absorb(&mut self, other: &Tally) {
        self.drawn += other.drawn;
        self.accepted += other.accepted;
        self.hits += other.hits;
        self.w_acc += other.w_acc;
        self.w_hit += other.w_hit;
        self.w2_acc += other.w2_acc;
        self.w2_hit += other.w2_hit;
    }

    /// The self-normalized estimate of `Pr(query | KB)`, `None` until at
    /// least one draw satisfied the KB.
    pub fn estimate(&self) -> Option<f64> {
        if self.accepted == 0 || self.w_acc <= 0.0 {
            return None;
        }
        Some((self.w_hit / self.w_acc).clamp(0.0, 1.0))
    }

    /// Kish's effective sample size `(Σw)²/Σw²`: the number of equally
    /// weighted samples carrying the same information. Equals `accepted`
    /// when all weights are 1.
    pub fn effective_n(&self) -> f64 {
        if self.w2_acc <= 0.0 {
            return 0.0;
        }
        self.w_acc * self.w_acc / self.w2_acc
    }

    /// Half-width of a 95% interval around [`Self::estimate`]: the larger
    /// of the Wilson score interval at the effective sample size and the
    /// delta-method standard error of the self-normalized ratio.
    ///
    /// The two cover each other's blind spots. Wilson alone assumes the
    /// weights carry no information about the hits, and understates the
    /// spread when they correlate (a biased proposal makes query-heavy
    /// worlds systematically lighter or heavier); the delta-method term
    /// `Var ≈ Σ w²(hit − p̂)² / (Σw)²` captures exactly that, but
    /// degenerates to zero width at `p̂ ∈ {0, 1}` where Wilson stays
    /// honest.
    pub fn ci_half_width(&self) -> Option<f64> {
        let p = self.estimate()?;
        let wilson = wilson_half_width(p, self.effective_n())?;
        // Σ w²(hit − p̂)² expands over the hit / non-hit partition.
        let spread =
            (1.0 - p) * (1.0 - p) * self.w2_hit + p * p * (self.w2_acc - self.w2_hit).max(0.0);
        let delta = Z_95 * (spread.max(0.0)).sqrt() / self.w_acc;
        Some(wilson.max(delta))
    }
}

/// Half-width of the 95% Wilson score interval for an observed
/// proportion `p_hat` out of `n` (possibly fractional, for weighted
/// samples) trials.
///
/// Unlike the Wald/normal approximation, the Wilson interval stays
/// strictly positive at `p_hat ∈ {0, 1}` (where the normal interval
/// collapses to width zero no matter how few samples were seen) and is
/// well behaved at small `n`.
pub fn wilson_half_width(p_hat: f64, n: f64) -> Option<f64> {
    if n.is_nan() || n <= 0.0 || !p_hat.is_finite() {
        return None;
    }
    let p = p_hat.clamp(0.0, 1.0);
    let z2 = Z_95 * Z_95;
    let denom = 1.0 + z2 / n;
    let spread = Z_95 * (p * (1.0 - p) / n + z2 / (4.0 * n * n)).sqrt();
    Some(spread / denom)
}

/// Richardson-style extrapolation for a geometric (τ ∝ 2^-k) diagonal
/// with an `O(τ)` error model; one sample passes through, none is `None`.
/// The Monte-Carlo sweep applies it to its per-`N` estimates.
pub fn extrapolate(values: &[f64]) -> Option<f64> {
    match values {
        [] => None,
        [v] => Some(*v),
        [.., a, b] => Some((2.0 * b - a).clamp(0.0, 1.0)),
    }
}

/// The half-width matching an [`extrapolate`] output, from the
/// half-widths of the same points: the extrapolated value `2b − a` is a
/// linear combination of the last two estimates, so its uncertainty is
/// (conservatively, treating the points as independent and adding in
/// absolute value) `2·hw_b + hw_a`.
pub fn extrapolate_half_width(half_widths: &[f64]) -> Option<f64> {
    match half_widths {
        [] => None,
        [h] => Some(*h),
        [.., a, b] => Some(2.0 * b + a),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn wilson_is_positive_at_extremes() {
        let at_zero = wilson_half_width(0.0, 50.0).unwrap();
        let at_one = wilson_half_width(1.0, 50.0).unwrap();
        assert!(at_zero > 0.0, "{at_zero}");
        assert!((at_zero - at_one).abs() < 1e-12, "symmetric");
        // A plain normal interval would be exactly 0 here.
    }

    #[test]
    fn wilson_shrinks_with_n_and_none_without_samples() {
        let small = wilson_half_width(0.3, 10.0).unwrap();
        let large = wilson_half_width(0.3, 10_000.0).unwrap();
        assert!(large < small);
        assert!(large < 0.01, "{large}");
        assert_eq!(wilson_half_width(0.3, 0.0), None);
    }

    #[test]
    fn wilson_approaches_wald_at_large_n() {
        let n = 1e6;
        let p = 0.4f64;
        let wald = Z_95 * (p * (1.0 - p) / n).sqrt();
        let wilson = wilson_half_width(p, n).unwrap();
        assert!((wald - wilson).abs() / wald < 1e-3);
    }

    #[test]
    fn tally_merges_and_estimates() {
        let mut a = Tally {
            drawn: 10,
            accepted: 4,
            hits: 2,
            w_acc: 4.0,
            w_hit: 2.0,
            w2_acc: 4.0,
            w2_hit: 2.0,
        };
        let b = Tally {
            drawn: 10,
            accepted: 6,
            hits: 6,
            w_acc: 6.0,
            w_hit: 6.0,
            w2_acc: 6.0,
            w2_hit: 6.0,
        };
        a.absorb(&b);
        assert_eq!(a.drawn, 20);
        assert_eq!(a.accepted, 10);
        assert_eq!(a.estimate(), Some(0.8));
        // Unit weights: effective n equals the acceptance count.
        assert!((a.effective_n() - 10.0).abs() < 1e-12);
        assert!(a.ci_half_width().unwrap() > 0.0);
    }

    #[test]
    fn empty_tally_has_no_estimate() {
        let t = Tally::default();
        assert_eq!(t.estimate(), None);
        assert_eq!(t.ci_half_width(), None);
        assert_eq!(t.effective_n(), 0.0);
    }

    #[test]
    fn skewed_weights_reduce_effective_n() {
        let t = Tally {
            drawn: 3,
            accepted: 2,
            hits: 1,
            w_acc: 1.0 + 9.0,
            w_hit: 9.0,
            w2_acc: 1.0 + 81.0,
            w2_hit: 81.0,
        };
        assert!(t.effective_n() < 2.0);
        assert!(t.effective_n() > 1.0);
    }

    #[test]
    fn interval_covers_both_error_models() {
        // Hits systematically heavier than misses: the reported interval
        // must be at least each individual model's width.
        let heavy = 1.5f64;
        let k = 500u64;
        let t = Tally {
            drawn: 2 * k,
            accepted: 2 * k,
            hits: k,
            w_acc: k as f64 * (1.0 + heavy),
            w_hit: k as f64 * heavy,
            w2_acc: k as f64 * (1.0 + heavy * heavy),
            w2_hit: k as f64 * heavy * heavy,
        };
        let p = t.estimate().unwrap();
        let wilson = wilson_half_width(p, t.effective_n()).unwrap();
        let spread = (1.0 - p) * (1.0 - p) * t.w2_hit + p * p * (t.w2_acc - t.w2_hit);
        let delta = Z_95 * spread.sqrt() / t.w_acc;
        let hw = t.ci_half_width().unwrap();
        assert!(hw >= wilson && hw >= delta, "{hw} vs {wilson}/{delta}");
    }

    #[test]
    fn extrapolation_shapes() {
        assert_eq!(extrapolate(&[]), None);
        assert_eq!(extrapolate(&[0.3]), Some(0.3));
        assert_eq!(extrapolate(&[0.4, 0.45]), Some(0.5));
        assert_eq!(extrapolate(&[0.2, 0.7]), Some(1.0)); // clamped
        assert_eq!(extrapolate_half_width(&[]), None);
        assert_eq!(extrapolate_half_width(&[0.05]), Some(0.05));
        assert_eq!(extrapolate_half_width(&[0.9, 0.05, 0.02]), Some(0.09));
    }
}
