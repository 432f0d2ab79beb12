//! Exact rational arithmetic on `i128`.
//!
//! Proportions in a world of size `N` are quotients with denominator `N^k`
//! for small `k`, and tolerances are user-supplied rationals such as `1/100`.
//! All truth-value decisions in the model checker go through this type so
//! that borderline comparisons (e.g. is `4/5` within `1/10` of `0.9`?) are
//! decided exactly rather than by floating point luck.
//!
//! Arithmetic is checked: overflow panics with a clear message rather than
//! silently wrapping. The magnitudes that arise in practice (numerators
//! bounded by `N^k` with `N ≤ 10^4`, `k ≤ 4`) are far below `i128::MAX`,
//! and every operation normalizes by the gcd to keep them that way.

use std::cmp::Ordering;
use std::fmt;
use std::ops::{Add, Div, Mul, Neg, Sub};

/// An exact rational number with an `i128` numerator and denominator.
///
/// Invariants: the denominator is strictly positive and `gcd(num, den) == 1`
/// (with `0` represented as `0/1`).
#[derive(Clone, Copy, PartialEq, Eq, Hash)]
pub struct Rat {
    num: i128,
    den: i128,
}

fn gcd(mut a: i128, mut b: i128) -> i128 {
    a = a.abs();
    b = b.abs();
    while b != 0 {
        let t = a % b;
        a = b;
        b = t;
    }
    a
}

impl Rat {
    pub const ZERO: Rat = Rat { num: 0, den: 1 };
    pub const ONE: Rat = Rat { num: 1, den: 1 };

    /// Creates `num / den`, normalizing sign and gcd. Panics if `den == 0`.
    pub fn new(num: i128, den: i128) -> Rat {
        assert!(den != 0, "Rat denominator must be nonzero");
        let sign = if den < 0 { -1 } else { 1 };
        let g = gcd(num, den);
        if g == 0 {
            return Rat::ZERO;
        }
        Rat {
            num: sign * num / g,
            den: sign * den / g,
        }
    }

    pub fn int(n: i128) -> Rat {
        Rat { num: n, den: 1 }
    }

    pub fn num(&self) -> i128 {
        self.num
    }

    pub fn den(&self) -> i128 {
        self.den
    }

    pub fn is_zero(&self) -> bool {
        self.num == 0
    }

    pub fn abs(&self) -> Rat {
        Rat {
            num: self.num.abs(),
            den: self.den,
        }
    }

    pub fn recip(&self) -> Rat {
        assert!(self.num != 0, "reciprocal of zero");
        Rat::new(self.den, self.num)
    }

    pub fn to_f64(&self) -> f64 {
        self.num as f64 / self.den as f64
    }

    /// Parses a decimal literal such as `0.8`, `1`, `-0.25` or a fraction
    /// `4/5` into an exact rational.
    pub fn parse(s: &str) -> Option<Rat> {
        let s = s.trim();
        if let Some((n, d)) = s.split_once('/') {
            let n: i128 = n.trim().parse().ok()?;
            let d: i128 = d.trim().parse().ok()?;
            if d == 0 {
                return None;
            }
            return Some(Rat::new(n, d));
        }
        if let Some((int_part, frac_part)) = s.split_once('.') {
            let neg = int_part.trim_start().starts_with('-');
            let int_val: i128 = if int_part.is_empty() || int_part == "-" {
                0
            } else {
                int_part.parse().ok()?
            };
            if frac_part.is_empty() || !frac_part.bytes().all(|b| b.is_ascii_digit()) {
                return None;
            }
            let scale = 10i128.checked_pow(frac_part.len() as u32)?;
            let frac_val: i128 = frac_part.parse().ok()?;
            let mag = int_val.abs().checked_mul(scale)?.checked_add(frac_val)?;
            let signed = if neg || int_val < 0 { -mag } else { mag };
            return Some(Rat::new(signed, scale));
        }
        let n: i128 = s.parse().ok()?;
        Some(Rat::int(n))
    }

    /// `|self - other| <= tol`, decided exactly.
    pub fn approx_eq(&self, other: Rat, tol: Rat) -> bool {
        (*self - other).abs() <= tol
    }

    /// `self - other <= tol`, i.e. `self ⪯ other` under tolerance `tol`.
    pub fn approx_leq(&self, other: Rat, tol: Rat) -> bool {
        *self - other <= tol
    }

    fn checked_bin(a: i128, b: i128, op: &str, f: impl Fn(i128, i128) -> Option<i128>) -> i128 {
        f(a, b).unwrap_or_else(|| panic!("Rat {op} overflow: {a} {op} {b}"))
    }
}

impl Add for Rat {
    type Output = Rat;
    fn add(self, rhs: Rat) -> Rat {
        // Use the lcm-style formulation to delay overflow.
        let g = gcd(self.den, rhs.den);
        let lhs_scale = rhs.den / g;
        let rhs_scale = self.den / g;
        let num = Rat::checked_bin(
            Rat::checked_bin(self.num, lhs_scale, "*", i128::checked_mul),
            Rat::checked_bin(rhs.num, rhs_scale, "*", i128::checked_mul),
            "+",
            i128::checked_add,
        );
        let den = Rat::checked_bin(self.den, lhs_scale, "*", i128::checked_mul);
        Rat::new(num, den)
    }
}

impl Sub for Rat {
    type Output = Rat;
    fn sub(self, rhs: Rat) -> Rat {
        self + (-rhs)
    }
}

impl Neg for Rat {
    type Output = Rat;
    fn neg(self) -> Rat {
        Rat {
            num: -self.num,
            den: self.den,
        }
    }
}

impl Mul for Rat {
    type Output = Rat;
    fn mul(self, rhs: Rat) -> Rat {
        // Cross-cancel before multiplying to keep magnitudes small.
        let g1 = gcd(self.num, rhs.den);
        let g2 = gcd(rhs.num, self.den);
        let num = Rat::checked_bin(self.num / g1, rhs.num / g2, "*", i128::checked_mul);
        let den = Rat::checked_bin(self.den / g2, rhs.den / g1, "*", i128::checked_mul);
        Rat::new(num, den)
    }
}

impl Div for Rat {
    type Output = Rat;
    // Division by the reciprocal is the intended arithmetic here.
    #[allow(clippy::suspicious_arithmetic_impl)]
    fn div(self, rhs: Rat) -> Rat {
        self * rhs.recip()
    }
}

impl PartialOrd for Rat {
    fn partial_cmp(&self, other: &Rat) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Rat {
    fn cmp(&self, other: &Rat) -> Ordering {
        // a/b vs c/d  (b,d > 0)  ⇔  a*d vs c*b, with cross-cancellation by the
        // (non-negative) gcds to delay overflow. Dividing by positive common
        // factors preserves the ordering of the cross products.
        let g1 = gcd(self.num, other.num).max(1);
        let g2 = gcd(self.den, other.den);
        let lhs = Rat::checked_bin(self.num / g1, other.den / g2, "*", i128::checked_mul);
        let rhs = Rat::checked_bin(other.num / g1, self.den / g2, "*", i128::checked_mul);
        lhs.cmp(&rhs)
    }
}

impl fmt::Debug for Rat {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}/{}", self.num, self.den)
    }
}

impl fmt::Display for Rat {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.den == 1 {
            write!(f, "{}", self.num)
        } else {
            write!(f, "{}/{}", self.num, self.den)
        }
    }
}

impl From<i128> for Rat {
    fn from(n: i128) -> Rat {
        Rat::int(n)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn normalization() {
        assert_eq!(Rat::new(2, 4), Rat::new(1, 2));
        assert_eq!(Rat::new(-2, -4), Rat::new(1, 2));
        assert_eq!(Rat::new(2, -4), Rat::new(-1, 2));
        assert_eq!(Rat::new(0, -7), Rat::ZERO);
    }

    #[test]
    fn arithmetic() {
        let a = Rat::new(1, 3);
        let b = Rat::new(1, 6);
        assert_eq!(a + b, Rat::new(1, 2));
        assert_eq!(a - b, Rat::new(1, 6));
        assert_eq!(a * b, Rat::new(1, 18));
        assert_eq!(a / b, Rat::int(2));
    }

    #[test]
    fn ordering() {
        assert!(Rat::new(1, 3) < Rat::new(1, 2));
        assert!(Rat::new(-1, 2) < Rat::new(-1, 3));
        assert!(Rat::new(4, 5) > Rat::new(3, 4));
        assert_eq!(Rat::new(2, 6).cmp(&Rat::new(1, 3)), Ordering::Equal);
    }

    #[test]
    fn parse_literals() {
        assert_eq!(Rat::parse("0.8"), Some(Rat::new(4, 5)));
        assert_eq!(Rat::parse("1"), Some(Rat::ONE));
        assert_eq!(Rat::parse("-0.25"), Some(Rat::new(-1, 4)));
        assert_eq!(Rat::parse("4/5"), Some(Rat::new(4, 5)));
        assert_eq!(Rat::parse("7/0"), None);
        assert_eq!(Rat::parse("x"), None);
    }

    #[test]
    fn tolerance_comparisons_exact() {
        let p = Rat::new(4, 5); // 0.8
        assert!(p.approx_eq(Rat::new(9, 10), Rat::new(1, 10))); // |0.8-0.9| = 0.1 <= 0.1
        assert!(!p.approx_eq(Rat::new(9, 10), Rat::new(99, 1000))); // 0.1 > 0.099
        assert!(p.approx_leq(Rat::new(7, 10), Rat::new(1, 10)));
        assert!(!p.approx_leq(Rat::new(7, 10), Rat::new(99, 1000)));
    }

    proptest! {
        #[test]
        fn field_axioms(an in -1000i128..1000, ad in 1i128..1000,
                        bn in -1000i128..1000, bd in 1i128..1000,
                        cn in -1000i128..1000, cd in 1i128..1000) {
            let a = Rat::new(an, ad);
            let b = Rat::new(bn, bd);
            let c = Rat::new(cn, cd);
            prop_assert_eq!(a + b, b + a);
            prop_assert_eq!((a + b) + c, a + (b + c));
            prop_assert_eq!(a * (b + c), a * b + a * c);
            prop_assert_eq!(a + Rat::ZERO, a);
            prop_assert_eq!(a * Rat::ONE, a);
            prop_assert_eq!(a - a, Rat::ZERO);
            if !b.is_zero() {
                prop_assert_eq!(a / b * b, a);
            }
        }

        #[test]
        fn ordering_matches_f64(an in -10_000i128..10_000, ad in 1i128..10_000,
                                bn in -10_000i128..10_000, bd in 1i128..10_000) {
            let a = Rat::new(an, ad);
            let b = Rat::new(bn, bd);
            let fa = an as f64 / ad as f64;
            let fb = bn as f64 / bd as f64;
            if (fa - fb).abs() > 1e-9 {
                prop_assert_eq!(a < b, fa < fb);
            }
        }

        #[test]
        fn display_parse_roundtrip(n in -100_000i128..100_000, d in 1i128..100_000) {
            let r = Rat::new(n, d);
            prop_assert_eq!(Rat::parse(&r.to_string()), Some(r));
        }
    }
}
