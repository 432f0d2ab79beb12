//! Log-domain combinatorics: factorials, binomials, multinomials and falling
//! factorials.
//!
//! The unary counting engine weighs each atom-count profile `(n₁..n_A)` by
//! `multinomial(N; n₁..n_A) · Π_a (n_a)_{k_a}` (the falling factorials place
//! the distinct constant blocks). `N` can be in the thousands, so weights are
//! [`LogWeight`]s computed from a shared `ln(k!)` table.

use crate::logweight::LogWeight;

/// A precomputed table of `ln(k!)` for `k ≤ max_n`.
///
/// Build one per counting pass sized to the domain; lookups are then O(1)
/// and allocation-free in the inner composition loop.
#[derive(Clone, Debug)]
pub struct FactTable {
    ln_fact: Vec<f64>,
}

impl FactTable {
    pub fn new(max_n: usize) -> FactTable {
        let mut ln_fact = Vec::with_capacity(max_n + 1);
        ln_fact.push(0.0);
        let mut acc = 0.0;
        for k in 1..=max_n {
            acc += (k as f64).ln();
            ln_fact.push(acc);
        }
        FactTable { ln_fact }
    }

    pub fn max_n(&self) -> usize {
        self.ln_fact.len() - 1
    }

    /// `ln(n!)`.
    pub fn ln_factorial(&self, n: usize) -> f64 {
        self.ln_fact[n]
    }

    /// `C(n, k)` as a log-domain weight (zero when `k > n`).
    pub fn binomial(&self, n: usize, k: usize) -> LogWeight {
        if k > n {
            return LogWeight::ZERO;
        }
        LogWeight::from_ln(self.ln_fact[n] - self.ln_fact[k] - self.ln_fact[n - k])
    }

    /// `multinomial(n; parts)` where `parts` must sum to `n`.
    pub fn multinomial(&self, n: usize, parts: &[usize]) -> LogWeight {
        debug_assert_eq!(
            parts.iter().sum::<usize>(),
            n,
            "multinomial parts must sum to n"
        );
        let mut ln = self.ln_fact[n];
        for &p in parts {
            ln -= self.ln_fact[p];
        }
        LogWeight::from_ln(ln)
    }

    /// Falling factorial `(n)_k = n (n-1) ... (n-k+1)` (zero when `k > n`).
    pub fn falling(&self, n: usize, k: usize) -> LogWeight {
        if k > n {
            return LogWeight::ZERO;
        }
        LogWeight::from_ln(self.ln_fact[n] - self.ln_fact[n - k])
    }
}

/// Exact `C(n, k)` in `u128`; panics on overflow. Useful for tests and for
/// the small exact counts in the enumeration engine.
pub fn binomial_exact(n: u64, k: u64) -> u128 {
    binomial_checked(n, k).expect("binomial_exact overflow")
}

/// Exact `C(n, k)` in `u128`, or `None` when it does not fit.
///
/// Each step `C(n, i+1) = C(n, i) · (n−i) / (i+1)` divides out the
/// common factor first, so no intermediate exceeds `C(n, i+1)` itself:
/// the result is `None` exactly when `C(n, k)` overflows.
pub fn binomial_checked(n: u64, k: u64) -> Option<u128> {
    if k > n {
        return Some(0);
    }
    let k = k.min(n - k);
    let mut result: u128 = 1;
    for i in 0..k {
        let (top, bottom) = ((n - i) as u128, (i + 1) as u128);
        let g = gcd(result, bottom);
        result = (result / g).checked_mul(top / (bottom / g))?;
    }
    Some(result)
}

fn gcd(mut a: u128, mut b: u128) -> u128 {
    while b != 0 {
        (a, b) = (b, a % b);
    }
    a
}

/// Exact number of weak compositions of `n` into `parts` parts,
/// `C(n + parts - 1, parts - 1)`, saturating at `u128::MAX` — a count
/// that large only ever meets a budget it exceeds.
pub fn weak_compositions_count(n: u64, parts: u64) -> u128 {
    if parts == 0 {
        return if n == 0 { 1 } else { 0 };
    }
    binomial_checked(n + parts - 1, parts - 1).unwrap_or(u128::MAX)
}

/// The `n`-th Bell number (number of set partitions), exact for `n ≤ 25`.
pub fn bell_number(n: usize) -> u128 {
    // Bell triangle.
    let mut row = vec![1u128];
    for _ in 1..=n {
        let mut next = Vec::with_capacity(row.len() + 1);
        next.push(*row.last().unwrap());
        for &v in &row {
            let last = *next.last().unwrap();
            next.push(last.checked_add(v).expect("bell_number overflow"));
        }
        row = next;
    }
    row[0]
}

/// `ln Γ(x)` for `x > 0` via the Lanczos approximation (g = 7, n = 9).
///
/// Needed by the Carnap λ-continuum weights in the random-propensities
/// engine, whose pseudo-counts `n_a + λ/A` are not integers. Accurate to
/// ~1e-13 relative error over the range the engines use; agrees with
/// `ln(n!)` at integer arguments (tested below).
pub fn ln_gamma(x: f64) -> f64 {
    assert!(x > 0.0, "ln_gamma requires a positive argument, got {x}");
    const G: f64 = 7.0;
    // Canonical Lanczos(g=7) coefficients, kept at published precision.
    #[allow(clippy::excessive_precision)]
    const COEF: [f64; 9] = [
        0.999_999_999_999_809_93,
        676.520_368_121_885_1,
        -1_259.139_216_722_402_8,
        771.323_428_777_653_13,
        -176.615_029_162_140_6,
        12.507_343_278_686_905,
        -0.138_571_095_265_720_12,
        9.984_369_578_019_571_6e-6,
        1.505_632_735_149_311_6e-7,
    ];
    if x < 0.5 {
        // Reflection: Γ(x) Γ(1-x) = π / sin(πx).
        return std::f64::consts::PI.ln()
            - (std::f64::consts::PI * x).sin().ln()
            - ln_gamma(1.0 - x);
    }
    let x = x - 1.0;
    let mut acc = COEF[0];
    for (i, &c) in COEF.iter().enumerate().skip(1) {
        acc += c / (x + i as f64);
    }
    let t = x + G + 0.5;
    0.5 * (2.0 * std::f64::consts::PI).ln() + (x + 0.5) * t.ln() - t + acc.ln()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn close(a: f64, b: f64) -> bool {
        (a - b).abs() < 1e-9 * (1.0 + a.abs().max(b.abs()))
    }

    #[test]
    fn factorial_table() {
        let t = FactTable::new(10);
        assert!(close(t.ln_factorial(0), 0.0));
        assert!(close(t.ln_factorial(5), 120f64.ln()));
        assert!(close(t.ln_factorial(10), 3_628_800f64.ln()));
    }

    #[test]
    fn checked_binomials_are_exact_up_to_overflow() {
        for n in 0..60u64 {
            for k in 0..=n + 1 {
                let mut naive: u128 = 1;
                for i in 0..k.min(n + 1) {
                    naive = naive * (n - i) as u128 / (i + 1) as u128;
                }
                assert_eq!(binomial_checked(n, k), Some(naive), "C({n}, {k})");
            }
        }
        // C(130, 65) ≈ 9.5e37 fits though `C(130, 64) · 66` does not.
        let c = binomial_checked(130, 65).unwrap();
        assert_eq!(c % 66, 0);
        assert_eq!(binomial_checked(130, 64), Some(c / 66 * 65));
        assert_eq!(binomial_checked(140, 70), None);
        assert_eq!(weak_compositions_count(32, 1 << 18), u128::MAX);
        assert_eq!(weak_compositions_count(2, 3), 6);
    }

    #[test]
    fn binomial_log_vs_exact() {
        let t = FactTable::new(40);
        for n in 0..=40u64 {
            for k in 0..=n {
                let exact = binomial_exact(n, k) as f64;
                assert!(
                    close(t.binomial(n as usize, k as usize).ln(), exact.ln()),
                    "C({n},{k})"
                );
            }
        }
        assert!(t.binomial(5, 9).is_zero());
    }

    #[test]
    fn multinomial_small() {
        let t = FactTable::new(10);
        // 10! / (2! 3! 5!) = 2520
        assert!(close(t.multinomial(10, &[2, 3, 5]).ln(), 2520f64.ln()));
        // Degenerate: single part.
        assert!(close(t.multinomial(7, &[7]).ln(), 0.0));
    }

    #[test]
    fn falling_factorial() {
        let t = FactTable::new(10);
        assert!(close(t.falling(5, 0).ln(), 0.0));
        assert!(close(t.falling(5, 2).ln(), 20f64.ln()));
        assert!(close(t.falling(5, 5).ln(), 120f64.ln()));
        assert!(t.falling(3, 4).is_zero());
    }

    #[test]
    fn binomial_exact_values() {
        assert_eq!(binomial_exact(0, 0), 1);
        assert_eq!(binomial_exact(52, 5), 2_598_960);
        assert_eq!(binomial_exact(10, 11), 0);
    }

    #[test]
    fn composition_counts() {
        assert_eq!(weak_compositions_count(5, 1), 1);
        assert_eq!(weak_compositions_count(5, 2), 6);
        assert_eq!(weak_compositions_count(4, 3), 15);
        assert_eq!(weak_compositions_count(0, 0), 1);
        assert_eq!(weak_compositions_count(3, 0), 0);
    }

    #[test]
    fn bell_numbers() {
        let expected = [1u128, 1, 2, 5, 15, 52, 203, 877, 4140];
        for (n, &e) in expected.iter().enumerate() {
            assert_eq!(bell_number(n), e, "B({n})");
        }
    }

    #[test]
    fn ln_gamma_matches_factorials_at_integers() {
        let fact = FactTable::new(200);
        for n in 1usize..=200 {
            let lg = ln_gamma(n as f64);
            let lf = fact.ln_factorial(n - 1);
            assert!(
                (lg - lf).abs() < 1e-10 * (1.0 + lf.abs()),
                "ln_gamma({n}) = {lg}, ln({}!) = {lf}",
                n - 1
            );
        }
    }

    #[test]
    fn ln_gamma_half_integer_values() {
        // Γ(1/2) = √π, Γ(3/2) = √π/2, Γ(5/2) = 3√π/4.
        let sqrt_pi = std::f64::consts::PI.sqrt();
        assert!(close(ln_gamma(0.5), sqrt_pi.ln()));
        assert!(close(ln_gamma(1.5), (sqrt_pi / 2.0).ln()));
        assert!(close(ln_gamma(2.5), (3.0 * sqrt_pi / 4.0).ln()));
    }

    #[test]
    fn ln_gamma_recurrence() {
        // Γ(x+1) = x Γ(x) over a spread of non-integer points.
        for &x in &[0.1, 0.37, 0.9, 1.21, 3.99, 10.5, 55.25] {
            let lhs = ln_gamma(x + 1.0);
            let rhs = x.ln() + ln_gamma(x);
            assert!(close(lhs, rhs), "recurrence at {x}: {lhs} vs {rhs}");
        }
    }

    #[test]
    #[should_panic(expected = "positive argument")]
    fn ln_gamma_rejects_nonpositive() {
        let _ = ln_gamma(0.0);
    }
}
