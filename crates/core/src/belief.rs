//! Degrees of belief and their provenance.

use std::fmt;

/// A random-worlds degree of belief `Pr∞(φ | KB)` (Definition 4.3).
#[derive(Clone, Debug, PartialEq)]
pub enum Belief {
    /// The double limit exists and equals this value.
    Point(f64),
    /// The limit is only pinned to an interval (interval-valued statistics,
    /// Theorems 5.6/5.23): every accumulation point lies inside.
    Interval(f64, f64),
    /// The limit depends on how `τ⃗ → 0` (conflicting defaults of
    /// unspecified relative strength, §5.3): no robust degree of belief.
    /// Carries the values observed along different tolerance paths.
    NonRobust(Vec<f64>),
    /// A Monte-Carlo point estimate with a 95% confidence half-width —
    /// the approximate-inference stage's answer shape. Unlike the exact
    /// variants this is a *statistical* claim: the true degree of belief
    /// lies within `value ± ci_half_width` at the reported confidence.
    Approximate {
        /// The sampled (and `N`-extrapolated) point estimate.
        value: f64,
        /// Half-width of the 95% confidence interval around `value`.
        ci_half_width: f64,
    },
    /// The KB is not eventually consistent: `Pr_N^τ` is undefined for all
    /// large `N`, small `τ⃗`.
    Undefined,
}

impl Belief {
    /// The point value, if the belief is (effectively) a point. For an
    /// [`Belief::Approximate`] belief this is the Monte-Carlo point
    /// estimate — callers needing the uncertainty should match on the
    /// variant or use [`Self::as_interval`].
    pub fn as_point(&self) -> Option<f64> {
        match self {
            Belief::Point(v) => Some(*v),
            Belief::Interval(lo, hi) if (hi - lo).abs() < 1e-9 => Some(*lo),
            Belief::Approximate { value, .. } => Some(*value),
            _ => None,
        }
    }

    /// The bounding interval, when one exists (for an approximate belief,
    /// the confidence interval clamped to `[0, 1]`).
    pub fn as_interval(&self) -> Option<(f64, f64)> {
        match self {
            Belief::Point(v) => Some((*v, *v)),
            Belief::Interval(lo, hi) => Some((*lo, *hi)),
            Belief::Approximate {
                value,
                ci_half_width,
            } => Some((
                (value - ci_half_width).max(0.0),
                (value + ci_half_width).min(1.0),
            )),
            _ => None,
        }
    }

    /// Does this belief license the default conclusion (`|~rw`, §5.1)?
    pub fn is_one(&self) -> bool {
        matches!(self.as_point(), Some(v) if (v - 1.0).abs() < 2e-3)
    }

    pub fn is_zero(&self) -> bool {
        matches!(self.as_point(), Some(v) if v.abs() < 2e-3)
    }

    /// Approximate equality between beliefs (for cross-engine validation).
    /// An [`Belief::Approximate`] belief widens the tolerance by its own
    /// confidence half-width.
    pub fn approx_eq(&self, other: &Belief, eps: f64) -> bool {
        match (self, other) {
            (Belief::Point(a), Belief::Point(b)) => (a - b).abs() <= eps,
            (Belief::Interval(a1, a2), Belief::Interval(b1, b2)) => {
                (a1 - b1).abs() <= eps && (a2 - b2).abs() <= eps
            }
            (Belief::Point(a), Belief::Interval(lo, hi))
            | (Belief::Interval(lo, hi), Belief::Point(a)) => *a >= lo - eps && *a <= hi + eps,
            (
                Belief::Approximate {
                    value: a,
                    ci_half_width: ha,
                },
                Belief::Approximate {
                    value: b,
                    ci_half_width: hb,
                },
            ) => (a - b).abs() <= eps + ha + hb,
            (
                Belief::Approximate {
                    value: a,
                    ci_half_width: ha,
                },
                other,
            )
            | (
                other,
                Belief::Approximate {
                    value: a,
                    ci_half_width: ha,
                },
            ) => match other.as_interval() {
                Some((lo, hi)) => *a >= lo - eps - ha && *a <= hi + eps + ha,
                None => false,
            },
            (Belief::Undefined, Belief::Undefined) => true,
            (Belief::NonRobust(_), Belief::NonRobust(_)) => true,
            _ => false,
        }
    }
}

impl fmt::Display for Belief {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Belief::Point(v) => write!(f, "{v:.6}"),
            Belief::Interval(lo, hi) => write!(f, "[{lo:.6}, {hi:.6}]"),
            Belief::NonRobust(vs) => {
                write!(f, "non-robust (candidates:")?;
                for v in vs {
                    write!(f, " {v:.4}")?;
                }
                write!(f, ")")
            }
            Belief::Approximate {
                value,
                ci_half_width,
            } => write!(f, "{value:.6} ± {ci_half_width:.4} (95% CI)"),
            Belief::Undefined => write!(f, "undefined (KB not eventually consistent)"),
        }
    }
}

/// Which method produced a belief.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Provenance {
    /// Theorem 5.6 / Corollary 5.7 (direct inference).
    DirectInference,
    /// Theorem 5.16 / Corollary 5.17 (minimal reference class, irrelevance).
    MinimalReferenceClass,
    /// Theorem 5.23 (preference for stronger statistics along a chain).
    StrengthRule,
    /// Theorem 5.26 (Dempster's rule of combination).
    Dempster,
    /// Theorem 5.27 (vocabulary independence product).
    Independence(Vec<Box<Provenance>>),
    /// Theorem 5.3's Or rule: every disjunct of the KB's one disjunction,
    /// conjoined with the rest of the KB, gave the same 0 or 1; the
    /// parts are the disjuncts' provenances, in order.
    OrRule(Vec<Box<Provenance>>),
    /// §5.5 unique-names bias.
    UniqueNames,
    /// Nested-default chaining (Example 5.14's derivation).
    NestedDefault,
    /// Maximum entropy τ-sweep (§6).
    MaxEnt,
    /// Exact world counting along a `(τ, N)` diagonal — compiled
    /// branch-and-count by default, brute-force odometer enumeration in
    /// oracle mode.
    Enumeration {
        /// The largest domain size the counts reached.
        max_n: usize,
        /// Search nodes visited computing the *numerator* counts
        /// (`#(KB ∧ query)` at both diagonal points). Deliberately
        /// excludes denominator work, which a warm
        /// [`crate::cache::DenomCache`] elides — numerator effort is the
        /// same on every run, so traces stay deterministic. `0` in
        /// oracle (odometer) mode.
        visited: u64,
        /// Visited nodes that branched over a slot (the rest were
        /// decided by propagation or pruning). `0` in oracle mode.
        branched: u64,
        /// Orbit representatives enumerated computing the numerator
        /// counts in symmetry-reduced mode (the analogue of `visited`
        /// there, with the same determinism guarantee). `0` in plain
        /// compiled and oracle modes.
        orbits: u64,
    },
    /// Direct entailment of asserted ground facts: every KB-world agrees,
    /// so the degree of belief is 0 or 1 outright (Def 4.2).
    Entailed,
    /// Monte-Carlo rejection sampling over an `N`-sweep
    /// (`rw_worlds::mc`), with the sampler's aggregate counts.
    MonteCarlo {
        /// Worlds drawn from the proposal across the sweep.
        drawn: u64,
        /// Draws that satisfied the KB.
        accepted: u64,
        /// Sweep points that produced an estimate.
        n_points: usize,
    },
}

impl fmt::Display for Provenance {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Provenance::DirectInference => write!(f, "direct inference (Thm 5.6)"),
            Provenance::MinimalReferenceClass => write!(f, "minimal reference class (Thm 5.16)"),
            Provenance::StrengthRule => write!(f, "strength rule (Thm 5.23)"),
            Provenance::Dempster => write!(f, "Dempster combination (Thm 5.26)"),
            Provenance::Independence(parts) => {
                write!(f, "independence product (Thm 5.27) of [{}]", joined(parts))
            }
            Provenance::OrRule(parts) => write!(f, "Or rule (Thm 5.3) of [{}]", joined(parts)),
            Provenance::UniqueNames => write!(f, "unique-names bias (§5.5)"),
            Provenance::NestedDefault => write!(f, "nested-default chain (Ex 5.14)"),
            Provenance::MaxEnt => write!(f, "maximum entropy (§6)"),
            // The rendered form deliberately omits the effort counters:
            // provenance strings are stable serving output, and the
            // counters are surfaced structurally (the JSON `enum`
            // object) instead.
            Provenance::Enumeration { max_n, .. } => write!(f, "world enumeration (N ≤ {max_n})"),
            Provenance::Entailed => write!(f, "asserted ground fact (entailment)"),
            Provenance::MonteCarlo {
                drawn,
                accepted,
                n_points,
            } => write!(
                f,
                "Monte-Carlo sampling ({drawn} drawn, {accepted} accepted, {n_points} N-point(s))"
            ),
        }
    }
}

/// A compound provenance's parts, as `a; b; …`.
fn joined(parts: &[Box<Provenance>]) -> String {
    let parts: Vec<String> = parts.iter().map(|p| p.to_string()).collect();
    parts.join("; ")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn point_extraction() {
        assert_eq!(Belief::Point(0.8).as_point(), Some(0.8));
        assert_eq!(Belief::Interval(0.3, 0.3).as_point(), Some(0.3));
        assert_eq!(Belief::Interval(0.3, 0.4).as_point(), None);
        assert_eq!(Belief::Undefined.as_point(), None);
    }

    #[test]
    fn one_and_zero() {
        assert!(Belief::Point(1.0).is_one());
        assert!(Belief::Point(0.9999999).is_one());
        assert!(!Belief::Point(0.99).is_one());
        assert!(Belief::Point(0.0).is_zero());
    }

    #[test]
    fn approx_equality() {
        assert!(Belief::Point(0.5).approx_eq(&Belief::Point(0.5005), 1e-2));
        assert!(Belief::Point(0.75).approx_eq(&Belief::Interval(0.7, 0.8), 1e-9));
        assert!(!Belief::Point(0.5).approx_eq(&Belief::Undefined, 1.0));
    }

    #[test]
    fn display_forms() {
        assert_eq!(Belief::Point(0.8).to_string(), "0.800000");
        assert!(Belief::Interval(0.7, 0.8).to_string().starts_with('['));
        assert!(Belief::NonRobust(vec![0.0, 1.0])
            .to_string()
            .contains("non-robust"));
    }

    #[test]
    fn approximate_beliefs_carry_their_uncertainty() {
        let b = Belief::Approximate {
            value: 0.64,
            ci_half_width: 0.02,
        };
        assert_eq!(b.as_point(), Some(0.64));
        let (lo, hi) = b.as_interval().unwrap();
        assert!((lo - 0.62).abs() < 1e-12 && (hi - 0.66).abs() < 1e-12);
        assert!(b.to_string().contains("± 0.0200"), "{b}");
        // The CI is clamped to the unit interval.
        let edge = Belief::Approximate {
            value: 0.99,
            ci_half_width: 0.05,
        };
        assert_eq!(edge.as_interval().unwrap().1, 1.0);
    }

    #[test]
    fn approximate_equality_widens_by_the_ci() {
        let b = Belief::Approximate {
            value: 0.64,
            ci_half_width: 0.02,
        };
        assert!(b.approx_eq(&Belief::Point(0.65), 1e-3));
        assert!(!b.approx_eq(&Belief::Point(0.75), 1e-3));
        assert!(Belief::Point(0.65).approx_eq(&b, 1e-3));
        assert!(b.approx_eq(&Belief::Interval(0.6, 0.7), 1e-3));
        assert!(b.approx_eq(
            &Belief::Approximate {
                value: 0.67,
                ci_half_width: 0.02
            },
            1e-3
        ));
        assert!(!b.approx_eq(&Belief::Undefined, 1.0));
    }

    #[test]
    fn monte_carlo_provenance_displays_counts() {
        let p = Provenance::MonteCarlo {
            drawn: 4096,
            accepted: 512,
            n_points: 3,
        };
        let s = p.to_string();
        assert!(
            s.contains("4096 drawn") && s.contains("512 accepted"),
            "{s}"
        );
        assert!(Provenance::Entailed.to_string().contains("ground fact"));
    }
}
