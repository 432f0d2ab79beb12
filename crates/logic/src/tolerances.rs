//! Tolerance vectors: the `τ⃗` that interprets `≈_i` and `⪯_i`.
//!
//! The paper's semantics is parameterized by an infinite vector of positive
//! tolerances `τ⃗ = ⟨τ₁, τ₂, ...⟩`; degrees of belief take `τ⃗ → 0` *after*
//! `N → ∞`. [`Tolerances`] represents such a vector as a default value plus
//! per-index overrides, so "shrink every component" and "component 1 shrinks
//! much faster than component 2" (the paper's default-priority mechanism,
//! §5.3) are both easy to express.

use crate::ast::TolId;
use rw_util::Rat;
use std::collections::BTreeMap;

/// A concrete tolerance vector.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Tolerances {
    default: Rat,
    overrides: BTreeMap<u32, Rat>,
}

impl Tolerances {
    /// Every component equal to `tau`.
    pub fn uniform(tau: Rat) -> Tolerances {
        assert!(tau > Rat::ZERO, "tolerances must be positive");
        Tolerances {
            default: tau,
            overrides: BTreeMap::new(),
        }
    }

    /// Overrides a single component.
    pub fn with(mut self, idx: TolId, tau: Rat) -> Tolerances {
        assert!(tau > Rat::ZERO, "tolerances must be positive");
        self.overrides.insert(idx.0, tau);
        self
    }

    pub fn get(&self, idx: TolId) -> Rat {
        self.overrides.get(&idx.0).copied().unwrap_or(self.default)
    }

    /// Scales every component by `factor` (used by τ-sweep limit detection).
    pub fn scaled(&self, factor: Rat) -> Tolerances {
        assert!(factor > Rat::ZERO);
        Tolerances {
            default: self.default * factor,
            overrides: self
                .overrides
                .iter()
                .map(|(&k, &v)| (k, v * factor))
                .collect(),
        }
    }
}

impl Default for Tolerances {
    fn default() -> Tolerances {
        Tolerances::uniform(Rat::new(1, 10))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn uniform_and_overrides() {
        let t = Tolerances::uniform(Rat::new(1, 10)).with(TolId(2), Rat::new(1, 100));
        assert_eq!(t.get(TolId(1)), Rat::new(1, 10));
        assert_eq!(t.get(TolId(2)), Rat::new(1, 100));
        assert_eq!(t.get(TolId(99)), Rat::new(1, 10));
    }

    #[test]
    fn scaling_preserves_ratios() {
        let t = Tolerances::uniform(Rat::new(1, 10))
            .with(TolId(2), Rat::new(1, 100))
            .scaled(Rat::new(1, 2));
        assert_eq!(t.get(TolId(1)), Rat::new(1, 20));
        assert_eq!(t.get(TolId(2)), Rat::new(1, 200));
    }

    #[test]
    #[should_panic]
    fn zero_tolerance_rejected() {
        Tolerances::uniform(Rat::ZERO);
    }
}
