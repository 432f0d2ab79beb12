//! The propensity counting engine: exact `Pr_N^τ` under an exchangeable
//! prior, plus `N`-sweeps with Aitken extrapolation for the limit.
//!
//! Where random worlds computes `#worlds(φ ∧ KB) / #worlds(KB)`, a
//! propensity method computes `Pr(φ ∧ KB) / Pr(KB)` under the non-uniform
//! world distribution of a [`Prior`]. Both are sums over atom-count
//! profiles, so this engine drives `rw-unary`'s weighted profile sweep with
//! the prior's `q(n⃗)` hook — everything about the language (quantifiers,
//! nested conditional proportions, constants with equality) carries over
//! unchanged.

use crate::prior::Prior;
use rw_logic::ast::Formula;
use rw_logic::{KnowledgeBase, Tolerances};
use rw_unary::{UnaryEngine, UnaryError};
use rw_util::FactTable;

/// Exact finite-`N` degrees of belief under an exchangeable prior.
#[derive(Clone, Debug)]
pub struct PropensityEngine {
    /// The exchangeable prior supplying per-world weights.
    pub prior: Prior,
    /// Profile enumeration budget, forwarded to the unary sweep.
    pub max_profiles: u128,
}

impl PropensityEngine {
    /// An engine with the default profile budget.
    pub fn new(prior: Prior) -> PropensityEngine {
        PropensityEngine {
            prior,
            max_profiles: UnaryEngine::default().max_profiles,
        }
    }

    /// `Pr_N^τ(query | KB)` under the prior; `None` when the KB has
    /// prior-probability zero at this `(N, τ⃗)` (no satisfying world).
    pub fn degree_of_belief_at(
        &self,
        kb: &KnowledgeBase,
        query: &Formula,
        n: usize,
        tol: &Tolerances,
    ) -> Result<Option<f64>, UnaryError> {
        let engine = UnaryEngine {
            max_profiles: self.max_profiles,
        };
        let atoms = engine.atom_space(kb.vocab())?;
        let preds = kb.vocab().pred_count();
        let fact = FactTable::new(n + atoms + 1);
        let totals = engine.sweep_weighted(kb, query, n, tol, |counts| {
            self.prior.log_weight(counts, preds, &fact)
        })?;
        if totals.kb_weight.is_zero() {
            return Ok(None);
        }
        Ok(Some(totals.query_weight.ratio(totals.kb_weight)))
    }

    /// The belief at each domain size in `ns` (a "figure series": the
    /// convergence trend as `N → ∞` at fixed tolerances).
    pub fn belief_trend(
        &self,
        kb: &KnowledgeBase,
        query: &Formula,
        ns: &[usize],
        tol: &Tolerances,
    ) -> Result<Vec<(usize, Option<f64>)>, UnaryError> {
        ns.iter()
            .map(|&n| Ok((n, self.degree_of_belief_at(kb, query, n, tol)?)))
            .collect()
    }

    /// Estimates `lim_{N→∞} Pr_N^τ` from a geometric trend, using Aitken's
    /// Δ² extrapolation on the last three defined sweep values when the
    /// increments contract, else the final value. Returns `None` if no
    /// sweep point is defined.
    pub fn limit_estimate(
        &self,
        kb: &KnowledgeBase,
        query: &Formula,
        ns: &[usize],
        tol: &Tolerances,
    ) -> Result<Option<f64>, UnaryError> {
        let trend = self.belief_trend(kb, query, ns, tol)?;
        let defined: Vec<f64> = trend.into_iter().filter_map(|(_, v)| v).collect();
        Ok(aitken(&defined))
    }
}

/// Aitken Δ² acceleration of the tail of a sequence; falls back to the last
/// value when the increments do not contract (or there are fewer than 3
/// points).
pub(crate) fn aitken(values: &[f64]) -> Option<f64> {
    let &[.., a, b, c] = values else {
        return values.last().copied();
    };
    let (d1, d2) = (b - a, c - b);
    let denom = d2 - d1;
    if denom.abs() < 1e-12 || d2.abs() >= d1.abs() {
        return Some(c);
    }
    let accel = c - d2 * d2 / denom;
    // Extrapolation should stay inside [0,1]; a wild value means the trend
    // is not geometric, so trust the last point instead.
    if (0.0..=1.0).contains(&accel) {
        Some(accel)
    } else {
        Some(c)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rw_util::Rat;

    fn kb_and_query(kb_src: &str, q_src: &str) -> (KnowledgeBase, Formula) {
        let mut kb = KnowledgeBase::parse(kb_src).unwrap();
        let q = kb.parse_query(q_src).unwrap();
        (kb, q)
    }

    #[test]
    fn large_lambda_matches_random_worlds() {
        // λ → ∞ is the uniform-worlds limit: the λ-continuum engine must
        // agree with the rw-unary counting engine.
        let (kb, q) = kb_and_query("||Hep(x) | Jaun(x)||_x ~=_1 0.8; Jaun(Eric)", "Hep(Eric)");
        let tol = Tolerances::uniform(Rat::new(1, 10));
        let rw = rw_unary::degree_of_belief_at(&kb, &q, 24, &tol)
            .unwrap()
            .unwrap();
        let engine = PropensityEngine::new(Prior::Lambda(1e8));
        let prop = engine
            .degree_of_belief_at(&kb, &q, 24, &tol)
            .unwrap()
            .unwrap();
        assert!((rw - prop).abs() < 1e-4, "rw {rw} vs λ→∞ {prop}");
    }

    #[test]
    fn rule_of_succession_from_constants() {
        // Two positive and one negative observation: Laplace gives
        // (2+1)/(3+2) = 0.6 once unique names dominate.
        let (kb, q) = kb_and_query("P(C1); P(C2); !P(C3)", "P(C)");
        let tol = Tolerances::uniform(Rat::new(1, 10));
        for prior in [Prior::PerPredicate, Prior::CarnapStar] {
            let engine = PropensityEngine::new(prior);
            let v = engine
                .limit_estimate(&kb, &q, &[32, 64, 128], &tol)
                .unwrap()
                .unwrap();
            assert!((v - 0.6).abs() < 0.02, "{prior:?}: {v}");
        }
    }

    #[test]
    fn random_worlds_does_not_learn_from_constants() {
        // §7.3: the same KB leaves random worlds at 1/2 — observations of
        // other individuals do not move the fresh constant's belief.
        let (kb, q) = kb_and_query("P(C1); P(C2); !P(C3)", "P(C)");
        let tol = Tolerances::uniform(Rat::new(1, 10));
        let v = rw_unary::degree_of_belief_at(&kb, &q, 96, &tol)
            .unwrap()
            .unwrap();
        assert!((v - 0.5).abs() < 0.02, "random worlds moved: {v}");
    }

    #[test]
    fn aitken_accelerates_geometric_series() {
        // v_k = 1 - 2^-k → limit 1.
        let vals = [0.5, 0.75, 0.875];
        let a = aitken(&vals).unwrap();
        assert!((a - 1.0).abs() < 1e-9, "{a}");
        // Short sequences fall back to the last value.
        assert_eq!(aitken(&[0.3, 0.4]), Some(0.4));
        assert_eq!(aitken(&[]), None);
    }

    #[test]
    fn zero_probability_kb_returns_none() {
        let (kb, q) = kb_and_query("P(C); !P(C)", "P(C)");
        let tol = Tolerances::uniform(Rat::new(1, 10));
        let engine = PropensityEngine::new(Prior::CarnapStar);
        assert_eq!(engine.degree_of_belief_at(&kb, &q, 8, &tol).unwrap(), None);
    }

    #[test]
    fn budget_violations_surface() {
        let (kb, q) = kb_and_query("||P(x)||_x ~=_1 0.5; ||Q(x)||_x ~=_2 0.5", "P(C)");
        let tol = Tolerances::uniform(Rat::new(1, 10));
        let engine = PropensityEngine {
            prior: Prior::CarnapStar,
            max_profiles: 10,
        };
        assert!(matches!(
            engine.degree_of_belief_at(&kb, &q, 64, &tol),
            Err(UnaryError::TooManyProfiles { .. })
        ));
    }
}
