//! Maximum-entropy computation of asymptotic random-worlds degrees of belief
//! for unary knowledge bases (paper §6).
//!
//! For a unary vocabulary the worlds with atom proportions `p⃗` number
//! `≈ e^{N·H(p⃗)}` — so as `N → ∞` essentially *all* worlds satisfying `KB`
//! sit at the entropy-maximizing point of the constraint set `S(KB)` that
//! the knowledge base induces over the atom simplex. Degrees of belief then
//! reduce to conditional probabilities at that point, and the `τ⃗ → 0` outer
//! limit becomes a sweep of maxent solves at shrinking tolerances.
//!
//! Pipeline:
//!
//! 1. [`constraints`] compiles a unary KB into linear constraints over the
//!    atom simplex (universal conjuncts pin atoms to zero; `ζ ≈_i α`
//!    comparisons become two linear inequalities — the conditional case
//!    `||φ|ψ|| ≈_i α` linearizes exactly as `(α−τ)p_ψ ≤ p_{φ∧ψ} ≤ (α+τ)p_ψ`,
//!    which also captures the measure-zero convention at `p_ψ = 0`).
//! 2. [`simplex`] is a dense two-phase simplex LP solver (the feasibility
//!    and witness checks before each solve).
//! 3. [`entropy`] maximizes `H(p) = -Σ p_a ln p_a` over the polytope
//!    (entropy is strictly concave, so the maximizer is unique) by solving
//!    the Gibbs-form dual with projected Newton steps — a few microseconds
//!    per solve.
//! 4. [`belief`] runs the τ-sweep, evaluates queries at each maxent point,
//!    and classifies the limit: converged, non-robust (the value depends on
//!    *how* `τ⃗ → 0` — the paper's conflicting-defaults situation, §5.3), or
//!    infeasible (KB not eventually consistent).

pub mod belief;
pub mod constraints;
pub mod entropy;
pub mod simplex;

pub use belief::{degree_of_belief_limit, maxent_point, LimitOutcome, MaxentError, SweepConfig};
pub use constraints::{compile, CompileError, UnaryConstraintSystem};
pub use entropy::{maximize_entropy_dual, EntropyError};
pub use simplex::{solve_lp, LpResult};
