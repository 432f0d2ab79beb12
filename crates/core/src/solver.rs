//! The composable inference pipeline: [`Solver`], per-stage [`Budget`]s,
//! and the per-query [`Trace`] that records what every stage did.
//!
//! The random-worlds method is a *cascade*: cheap exact theorems first,
//! then maximum entropy, then finite-`N` counting. Rather than hard-coding
//! that order, [`crate::RandomWorlds`] runs an ordered list of [`Stage`]s;
//! each stage wraps a [`Solver`] and the resource [`Budget`] it may spend.
//! A stage either answers, declines (the method does not apply), or
//! reports budget exhaustion — and the engine keeps the per-stage record
//! in the [`Trace`] attached to every [`crate::Response`], so callers can
//! always see *why* an answer came from the stage it did.

use crate::belief::{Belief, Provenance};
use crate::prepared::PreparedKb;
use rw_logic::ast::Formula;
use rw_logic::KnowledgeBase;
use rw_util::Rat;
use std::fmt;
use std::time::Duration;

/// Resource limits for one pipeline stage.
///
/// The single knob is a count cap, interpreted by the stage that spends
/// it: visited search nodes for compiled world counting (interpretations
/// in its odometer oracle mode), draws for Monte-Carlo sampling. Theorem
/// and maxent stages do no open-ended counting and ignore it.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Budget {
    /// Cap on the stage's dominant enumeration count.
    pub max_count: u128,
}

impl Budget {
    /// No limit.
    pub const UNLIMITED: Budget = Budget {
        max_count: u128::MAX,
    };

    /// A budget capping the stage's enumeration at `max_count` items.
    pub fn counting(max_count: u128) -> Budget {
        Budget { max_count }
    }
}

impl Default for Budget {
    fn default() -> Budget {
        Budget::UNLIMITED
    }
}

/// A recursion handle into the full pipeline.
///
/// Some theorems decompose a query and solve the pieces with the *whole*
/// engine again (vocabulary independence, Thm 5.27; the Or rule, which
/// splits the KB, Thm 5.3). The pipeline passes this callback to every stage so custom
/// solvers can do the same.
pub type Recurse<'a> = dyn Fn(&KnowledgeBase, &Formula) -> Option<(Belief, Provenance)> + 'a;

/// What one stage did with a query.
#[derive(Clone, Debug, PartialEq)]
pub enum SolverOutcome {
    /// The stage produced a degree of belief.
    Answered {
        /// The degree of belief.
        belief: Belief,
        /// The method that produced it.
        provenance: Provenance,
    },
    /// The stage's method does not apply to this KB/query pair.
    Declined {
        /// Why the stage does not apply.
        reason: String,
    },
    /// The stage's method would apply, but its [`Budget`] ran out.
    BudgetExhausted {
        /// What was exhausted.
        reason: String,
    },
}

/// One inference method in the pipeline.
///
/// Implementations must be *sound*: an `Answered` outcome is a claim that
/// the returned belief is the random-worlds degree of belief
/// `Pr∞(query | KB)` (or an interval/non-robust classification thereof).
/// Anything a solver cannot justify should be a `Declined`.
///
/// `Send + Sync` is required so a configured engine can be shared across
/// serving threads.
pub trait Solver: Send + Sync {
    /// A short, stable, lowercase identifier (used in traces and JSON).
    fn name(&self) -> &str;

    /// Attempts the query, spending at most `budget`. `recurse` re-enters
    /// the full pipeline for decomposed sub-queries.
    fn solve(
        &self,
        kb: &KnowledgeBase,
        query: &Formula,
        budget: &Budget,
        recurse: &Recurse<'_>,
    ) -> SolverOutcome;

    /// [`Self::solve`] against a [`PreparedKb`] — the entry point the
    /// engine calls. A stage with per-KB analysis overrides it to reuse
    /// the prepared analysis across queries; by default the preparation
    /// is ignored.
    fn solve_prepared(
        &self,
        prepared: &PreparedKb,
        query: &Formula,
        budget: &Budget,
        recurse: &Recurse<'_>,
    ) -> SolverOutcome {
        self.solve(prepared.kb(), query, budget, recurse)
    }
}

/// A solver plus the budget it may spend: one slot of the pipeline.
pub struct Stage {
    /// The inference method.
    pub solver: Box<dyn Solver>,
    /// The method's resource cap.
    pub budget: Budget,
}

impl Stage {
    /// A stage with an unlimited budget.
    pub fn new(solver: Box<dyn Solver>) -> Stage {
        Stage {
            solver,
            budget: Budget::UNLIMITED,
        }
    }

    /// A stage with an explicit budget.
    pub fn budgeted(solver: Box<dyn Solver>, budget: Budget) -> Stage {
        Stage { solver, budget }
    }
}

impl fmt::Debug for Stage {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Stage")
            .field("solver", &self.solver.name())
            .field("budget", &self.budget)
            .finish()
    }
}

/// How a stage concluded, as recorded in a [`Trace`].
#[derive(Clone, Debug, PartialEq)]
pub enum StageStatus {
    /// The stage answered the query.
    Answered,
    /// The stage declined, with its reason.
    Declined(String),
    /// The stage ran out of budget, with what was exhausted.
    BudgetExhausted(String),
}

impl StageStatus {
    /// The status keyword (`answered` / `declined` / `budget-exhausted`).
    pub fn keyword(&self) -> &'static str {
        match self {
            StageStatus::Answered => "answered",
            StageStatus::Declined(_) => "declined",
            StageStatus::BudgetExhausted(_) => "budget-exhausted",
        }
    }

    /// The reason string, if the stage did not answer.
    pub fn reason(&self) -> Option<&str> {
        match self {
            StageStatus::Answered => None,
            StageStatus::Declined(r) | StageStatus::BudgetExhausted(r) => Some(r),
        }
    }
}

/// One stage's record in a query's [`Trace`].
#[derive(Clone, Debug, PartialEq)]
pub struct StageTrace {
    /// The stage's [`Solver::name`].
    pub stage: String,
    /// How the stage concluded.
    pub status: StageStatus,
    /// Wall-clock time the stage spent.
    pub elapsed: Duration,
}

/// The per-stage record of one query's trip through the pipeline.
///
/// Every [`crate::Response`] carries a non-empty trace; the last entry is
/// always the stage that answered. [`crate::EngineError::OutOfReach`]
/// carries one too, so "no engine applicable" is diagnosable.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct Trace {
    steps: Vec<StageTrace>,
}

impl Trace {
    /// Appends one stage record.
    pub fn push(&mut self, stage: &str, status: StageStatus, elapsed: Duration) {
        self.steps.push(StageTrace {
            stage: stage.to_string(),
            status,
            elapsed,
        });
    }

    /// The recorded stages, in execution order.
    pub fn steps(&self) -> &[StageTrace] {
        &self.steps
    }

    /// True when no stage has been recorded.
    pub fn is_empty(&self) -> bool {
        self.steps.is_empty()
    }

    /// The record for a named stage, if that stage ran.
    pub fn stage(&self, name: &str) -> Option<&StageTrace> {
        self.steps.iter().find(|s| s.stage == name)
    }
}

impl fmt::Display for Trace {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for (i, s) in self.steps.iter().enumerate() {
            if i > 0 {
                write!(f, "; ")?;
            }
            write!(f, "{} {}", s.stage, s.status.keyword())?;
            if let Some(r) = s.status.reason() {
                write!(f, " ({r})")?;
            }
        }
        Ok(())
    }
}

/// The `(τ_k, N_k)` diagonal along which the finite-`N` stages evaluate
/// `Pr_N^τ` before extrapolating to the Definition 4.3 double limit.
///
/// Theorems 4.4/4.5 take `τ⃗ → 0` *after* `N → ∞`; a practical engine
/// walks a diagonal where the tolerance shrinks while the domain grows,
/// then extrapolates. Points must therefore be ordered with strictly
/// shrinking `τ` and strictly growing `N`.
#[derive(Clone, Debug, PartialEq)]
pub struct Diagonal {
    points: Vec<(Rat, usize)>,
}

impl Diagonal {
    /// A diagonal from explicit `(τ, N)` points. Must be non-empty, with
    /// strictly shrinking `τ` and strictly growing `N` — the ordering the
    /// finite-`N` stages' extrapolation relies on.
    pub fn new(points: Vec<(Rat, usize)>) -> Diagonal {
        assert!(!points.is_empty(), "a Diagonal needs at least one point");
        for w in points.windows(2) {
            assert!(
                w[1].0 < w[0].0 && w[1].1 > w[0].1,
                "Diagonal points must have strictly shrinking τ and strictly growing N, got {:?} then {:?}",
                w[0],
                w[1]
            );
        }
        Diagonal { points }
    }

    /// The standard construction: `steps` points starting at `(τ0, n0)`,
    /// halving the tolerance and doubling the domain each step — the
    /// geometric schedule Richardson extrapolation assumes.
    pub fn geometric(tau0: Rat, n0: usize, steps: usize) -> Diagonal {
        assert!(steps > 0, "a Diagonal needs at least one point");
        let mut points = Vec::with_capacity(steps);
        let mut tau = tau0;
        let mut n = n0;
        for _ in 0..steps {
            points.push((tau, n));
            tau = tau * Rat::new(1, 2);
            n *= 2;
        }
        // Through `new` so degenerate arguments (τ0 = 0, n0 = 0) hit the
        // invariant check instead of silently building a bad diagonal.
        Diagonal::new(points)
    }

    /// The `(τ, N)` points, in sweep order.
    pub fn points(&self) -> &[(Rat, usize)] {
        &self.points
    }

    /// The smallest tolerance on the diagonal.
    pub fn finest_tau(&self) -> Rat {
        self.points
            .iter()
            .map(|(t, _)| *t)
            .min()
            .expect("Diagonal is non-empty by construction")
    }
}

impl Default for Diagonal {
    /// `(1/4, 8), (1/8, 16), (1/16, 32)`: a three-point `N`-sweep for the
    /// sampler, and a finest tolerance of 1/16 for world counting.
    fn default() -> Diagonal {
        Diagonal::geometric(Rat::new(1, 4), 8, 3)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn geometric_diagonal_halves_tau_and_doubles_n() {
        let d = Diagonal::geometric(Rat::new(1, 4), 8, 3);
        assert_eq!(
            d.points(),
            &[
                (Rat::new(1, 4), 8),
                (Rat::new(1, 8), 16),
                (Rat::new(1, 16), 32)
            ]
        );
        assert_eq!(d.finest_tau(), Rat::new(1, 16));
        assert_eq!(d, Diagonal::default());
    }

    #[test]
    fn trace_records_and_finds_stages() {
        let mut t = Trace::default();
        assert!(t.is_empty());
        t.push("a", StageStatus::Declined("nope".into()), Duration::ZERO);
        t.push("b", StageStatus::Answered, Duration::ZERO);
        assert_eq!(t.steps().len(), 2);
        assert_eq!(t.stage("a").unwrap().status.reason(), Some("nope"));
        assert_eq!(t.stage("b").unwrap().status, StageStatus::Answered);
        assert!(t.stage("c").is_none());
        let shown = t.to_string();
        assert!(shown.contains("a declined (nope)"), "{shown}");
        assert!(shown.contains("b answered"), "{shown}");
    }

    #[test]
    fn explicit_diagonals_accept_valid_orderings() {
        let d = Diagonal::new(vec![(Rat::new(1, 3), 5), (Rat::new(1, 9), 10)]);
        assert_eq!(d.finest_tau(), Rat::new(1, 9));
    }

    #[test]
    #[should_panic(expected = "strictly shrinking")]
    fn reversed_diagonals_are_rejected() {
        let _ = Diagonal::new(vec![(Rat::new(1, 16), 32), (Rat::new(1, 4), 8)]);
    }

    #[test]
    fn budget_constructors() {
        assert_eq!(Budget::default(), Budget::UNLIMITED);
        assert_eq!(Budget::counting(10).max_count, 10);
    }
}
