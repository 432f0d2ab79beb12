//! Entropy maximization over a polytope: the Gibbs-form dual by
//! projected Newton ([`maximize_entropy_dual`], the solver the τ-sweep
//! uses).
//!
//! We maximize `H(p) = -Σ p_a ln p_a` over `{p ∈ Δ : A p ≤ b}`. Entropy is
//! strictly concave, so the maximizer — the paper §6's "maximum-entropy
//! point of `S(KB)`" — is unique whenever the polytope is nonempty. The
//! dual reconstructs the primal point in closed form, so it respects the
//! exact zeros that compiled constraints routinely pin; it cannot certify
//! an empty polytope, which is why callers run an LP feasibility check
//! ([`crate::simplex`]) first.

/// Failure modes of entropy maximization.
#[derive(Clone, Debug, PartialEq)]
pub enum EntropyError {
    /// The constraint polytope is empty.
    Infeasible,
}

impl std::fmt::Display for EntropyError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            EntropyError::Infeasible => write!(f, "constraint polytope is empty"),
        }
    }
}

impl std::error::Error for EntropyError {}

/// Shannon entropy (natural log) of a non-negative vector.
pub fn entropy(p: &[f64]) -> f64 {
    p.iter()
        .map(|&x| if x > 0.0 { -x * x.ln() } else { 0.0 })
        .sum()
}

/// Maximizes entropy over `{p ∈ Δ : rows·p ≤ rhs, p_a = 0 for pinned a}` by
/// solving the *dual* problem in Gibbs form.
///
/// The maximizer of `H(p)` subject to `Σ p = 1` and `A p ≤ b` is
/// `p_a ∝ exp(-(Aᵀλ)_a)` for multipliers `λ ≥ 0` minimizing the convex dual
/// `g(λ) = ln Σ_a exp(-(Aᵀλ)_a) + b·λ`. Because the primal point is
/// reconstructed in closed form from `λ`, coordinates at scale `τ²` (which
/// arise in exceptional-subclass inheritance, paper Example 5.20) come out
/// with full *relative* precision — the regime where a primal method's
/// additive gap bound is useless. The dual has one variable per live row, so it is
/// minimized by projected Newton steps: the Hessian of `g` is the covariance
/// of the rows under the current Gibbs point, a small dense matrix.
///
/// `zero` marks atoms pinned to exactly zero (from universal conjuncts);
/// before solving, a closure pass propagates rows of the form
/// `Σ c_a p_a ≤ 0` with `c ≥ 0`, which force further exact zeros that the
/// Gibbs parameterization cannot represent.
pub fn maximize_entropy_dual(
    rows: &[(Vec<f64>, f64)],
    zero: &[bool],
    n: usize,
) -> Result<Vec<f64>, EntropyError> {
    maximize_entropy_dual_warm(rows, zero, n, None).map(|(p, _)| p)
}

/// As [`maximize_entropy_dual`], optionally warm-started from a previous
/// multiplier vector (the τ-sweep reuses multipliers across steps: `λ`
/// changes by `O(ln 1/factor)` per step, so a warm start is usually a few
/// Newton steps from the next optimum). Returns the point and the final
/// multipliers.
pub fn maximize_entropy_dual_warm(
    rows: &[(Vec<f64>, f64)],
    zero: &[bool],
    n: usize,
    warm: Option<&[f64]>,
) -> Result<(Vec<f64>, Vec<f64>), EntropyError> {
    solve_dual(rows, zero, n, warm).map(|s| (s.p, s.lambda))
}

/// KKT residual below which the dual solve stops.
const KKT_TOL: f64 = 1e-11;
/// Newton iterations before the solve returns its current point.
const MAX_NEWTON_ITERS: usize = 300;
/// Ridge on the Newton system, relative to the Hessian's trace: it makes
/// the system solvable along the flat directions of equality row pairs.
const RIDGE: f64 = 1e-12;
/// Step halvings of the projected line search.
const MAX_HALVINGS: usize = 60;

/// A finished dual solve; `iters` counts the accepted steps.
pub(crate) struct DualSolution {
    pub(crate) p: Vec<f64>,
    pub(crate) lambda: Vec<f64>,
    // Read by the convergence regression test only.
    #[cfg_attr(not(test), allow(dead_code))]
    pub(crate) iters: usize,
}

pub(crate) fn solve_dual(
    rows: &[(Vec<f64>, f64)],
    zero: &[bool],
    n: usize,
    warm: Option<&[f64]>,
) -> Result<DualSolution, EntropyError> {
    // --- Zero closure -----------------------------------------------------
    let mut pinned = zero.to_vec();
    loop {
        let mut changed = false;
        for (coeffs, rhs) in rows {
            if *rhs > 1e-14 {
                continue;
            }
            let mut all_nonneg = true;
            let mut has_pos = false;
            for (a, &c) in coeffs.iter().enumerate() {
                if pinned[a] {
                    continue;
                }
                if c < -1e-14 {
                    all_nonneg = false;
                    break;
                }
                if c > 1e-14 {
                    has_pos = true;
                }
            }
            if all_nonneg {
                if *rhs < -1e-12 {
                    return Err(EntropyError::Infeasible);
                }
                if has_pos {
                    for (a, &c) in coeffs.iter().enumerate() {
                        if !pinned[a] && c > 1e-14 {
                            pinned[a] = true;
                            changed = true;
                        }
                    }
                }
            }
        }
        if !changed {
            break;
        }
    }
    let act: Vec<usize> = (0..n).filter(|&a| !pinned[a]).collect();
    if act.is_empty() {
        return Err(EntropyError::Infeasible);
    }

    // Rows with no support on active atoms are vacuous (0 ≤ rhs) or
    // witness infeasibility (0 ≤ negative rhs).
    for (coeffs, rhs) in rows {
        if *rhs < -1e-12 && act.iter().all(|&a| coeffs[a].abs() <= 1e-14) {
            return Err(EntropyError::Infeasible);
        }
    }
    // Live rows, restricted to the active atoms.
    let (coef, rhs): (Vec<Vec<f64>>, Vec<f64>) = rows
        .iter()
        .filter(|(coeffs, _)| act.iter().any(|&a| coeffs[a].abs() > 1e-14))
        .map(|(coeffs, rhs)| (act.iter().map(|&a| coeffs[a]).collect(), *rhs))
        .unzip();
    let dual = Dual {
        coef,
        rhs,
        atoms: act.len(),
    };

    // --- Dual projected Newton --------------------------------------------
    let lambda = match warm {
        Some(w) if w.len() == dual.rhs.len() => w.to_vec(),
        _ => vec![0.0; dual.rhs.len()],
    };
    let mut cur = dual.at(lambda);
    let mut iters = 0;
    while cur.kkt >= KKT_TOL && iters < MAX_NEWTON_ITERS {
        // A Newton step the line search rejects falls back to one
        // projected-gradient step; when that fails too, neither `g` nor the
        // residual can improve in f64 and the current point is the answer.
        let next = dual
            .newton_direction(&cur)
            .and_then(|d| dual.line_search(&cur, &d))
            .or_else(|| {
                let d: Vec<f64> = cur.grad.iter().map(|g| -g).collect();
                dual.line_search(&cur, &d)
            });
        match next {
            Some(next) => cur = next,
            None => break,
        }
        iters += 1;
    }
    let mut p = vec![0.0; n];
    for (&a, &q) in act.iter().zip(&cur.q) {
        p[a] = q;
    }
    Ok(DualSolution {
        p,
        lambda: cur.lambda,
        iters,
    })
}

/// The dual over the live rows: `coef[j][i]` is row `j`'s coefficient on
/// the `i`-th of `atoms` active atoms.
struct Dual {
    coef: Vec<Vec<f64>>,
    rhs: Vec<f64>,
    atoms: usize,
}

/// The dual evaluated at one multiplier vector.
struct DualPoint {
    lambda: Vec<f64>,
    /// The Gibbs point over the active atoms.
    q: Vec<f64>,
    g: f64,
    /// `∇g_j = b_j − E_q[row_j]`.
    grad: Vec<f64>,
    /// KKT residual: stationarity on positive multipliers, primal
    /// feasibility on zero ones.
    kkt: f64,
}

impl Dual {
    fn at(&self, lambda: Vec<f64>) -> DualPoint {
        let mut theta = vec![0.0; self.atoms];
        for (row, &l) in self.coef.iter().zip(&lambda) {
            if l != 0.0 {
                for (t, &c) in theta.iter_mut().zip(row) {
                    *t -= l * c;
                }
            }
        }
        let tmax = theta.iter().copied().fold(f64::NEG_INFINITY, f64::max);
        let mut q: Vec<f64> = theta.iter().map(|t| (t - tmax).exp()).collect();
        let z: f64 = q.iter().sum();
        for x in &mut q {
            *x /= z;
        }
        let mut g = z.ln() + tmax;
        let mut grad = Vec::with_capacity(lambda.len());
        let mut kkt: f64 = 0.0;
        for ((row, &b), &l) in self.coef.iter().zip(&self.rhs).zip(&lambda) {
            g += l * b;
            let e: f64 = row.iter().zip(&q).map(|(c, q)| c * q).sum();
            let gj = b - e;
            grad.push(gj);
            kkt = kkt.max(if l > 0.0 { gj.abs() } else { (-gj).max(0.0) });
        }
        DualPoint {
            lambda,
            q,
            g,
            grad,
            kkt,
        }
    }

    /// The projected Newton direction: zero on the binding multipliers
    /// (`λ_j = 0` with `∇g_j ≥ 0`), `−(H_FF + δ·tr·I)⁻¹ ∇g_F` on the free
    /// set `F`, where `H` is the covariance of the rows under `q`. `None`
    /// when the system is singular.
    fn newton_direction(&self, cur: &DualPoint) -> Option<Vec<f64>> {
        let free: Vec<usize> = (0..self.rhs.len())
            .filter(|&j| cur.lambda[j] > 0.0 || cur.grad[j] < 0.0)
            .collect();
        let f = free.len();
        // Rows centered on their means `E_q[row_j] = b_j − ∇g_j`, so the
        // covariance is a sum of non-negative terms.
        let centered: Vec<Vec<f64>> = free
            .iter()
            .map(|&j| {
                let mean = self.rhs[j] - cur.grad[j];
                self.coef[j].iter().map(|c| c - mean).collect()
            })
            .collect();
        let mut h = vec![vec![0.0; f]; f];
        for r in 0..f {
            for s in 0..=r {
                let v: f64 = centered[r]
                    .iter()
                    .zip(&centered[s])
                    .zip(&cur.q)
                    .map(|((a, b), q)| q * a * b)
                    .sum();
                h[r][s] = v;
                h[s][r] = v;
            }
        }
        let shift = RIDGE * (0..f).map(|r| h[r][r]).sum::<f64>();
        for (r, row) in h.iter_mut().enumerate() {
            row[r] += shift;
        }
        let mut rhs: Vec<f64> = free.iter().map(|&j| -cur.grad[j]).collect();
        cholesky_solve(&mut h, &mut rhs)?;
        let mut d = vec![0.0; self.rhs.len()];
        for (&j, x) in free.iter().zip(rhs) {
            d[j] = x;
        }
        Some(d)
    }

    /// Projected backtracking along `λ(t) = max(0, λ + t·d)`. A step is
    /// accepted when it lowers `g` by more than f64 can resolve at `g`, or,
    /// when `g` does not move visibly, when it shrinks the KKT residual.
    fn line_search(&self, cur: &DualPoint, d: &[f64]) -> Option<DualPoint> {
        let noise = 4.0 * f64::EPSILON * cur.g.abs().max(1.0);
        let mut t = 1.0;
        for _ in 0..MAX_HALVINGS {
            let lambda: Vec<f64> = cur
                .lambda
                .iter()
                .zip(d)
                .map(|(l, d)| (l + t * d).max(0.0))
                .collect();
            if lambda != cur.lambda {
                let cand = self.at(lambda);
                let improves = if cand.g < cur.g - noise {
                    true
                } else {
                    cand.g <= cur.g + noise && cand.kkt < cur.kkt
                };
                if improves {
                    return Some(cand);
                }
            }
            t *= 0.5;
        }
        None
    }
}

/// Solves `A x = b` in place for symmetric positive-definite `A` by
/// Cholesky factorization (`A`'s lower triangle is overwritten by its
/// factor `L`, `b` by `x`). `None` when a pivot is not positive.
fn cholesky_solve(a: &mut [Vec<f64>], b: &mut [f64]) -> Option<()> {
    let dot = |x: &[f64], y: &[f64]| -> f64 { x.iter().zip(y).map(|(x, y)| x * y).sum() };
    for j in 0..a.len() {
        let (top, below) = a.split_at_mut(j + 1);
        let lj = &mut top[j];
        let d = lj[j] - dot(&lj[..j], &lj[..j]);
        if d.is_nan() || d <= 0.0 {
            return None;
        }
        lj[j] = d.sqrt();
        for row in below {
            row[j] = (row[j] - dot(&row[..j], &lj[..j])) / lj[j];
        }
    }
    // Forward substitution with L, then back substitution with Lᵀ.
    for (i, row) in a.iter().enumerate() {
        b[i] = (b[i] - dot(&row[..i], &b[..i])) / row[i];
    }
    for i in (0..b.len()).rev() {
        let s: f64 = (i + 1..b.len()).map(|k| a[k][i] * b[k]).sum();
        b[i] = (b[i] - s) / a[i][i];
    }
    Some(())
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The dual's maxent point over `n` atoms under extra inequality rows
    /// (the simplex `Σ p = 1` is implicit in the Gibbs form).
    fn maxent(n: usize, rows: Vec<(Vec<f64>, f64)>) -> Vec<f64> {
        maximize_entropy_dual(&rows, &vec![false; n], n).unwrap()
    }

    #[test]
    fn unconstrained_simplex_is_uniform() {
        for n in [2usize, 4, 8] {
            let p = maxent(n, vec![]);
            for &x in &p {
                assert!((x - 1.0 / n as f64).abs() < 1e-6, "n={n}: {p:?}");
            }
        }
    }

    #[test]
    fn pinned_coordinate() {
        // Uniform (0.5, 0.5) violates p0 ≤ 0.3, so the constraint binds
        // and the optimum is (0.3, 0.7).
        let p = maxent(2, vec![(vec![1.0, 0.0], 0.3)]);
        assert!((p[0] - 0.3).abs() < 1e-6, "{p:?}");
        assert!((p[1] - 0.7).abs() < 1e-6);
    }

    #[test]
    fn zero_coordinate() {
        let p = maxent(3, vec![(vec![0.0, 0.0, 1.0], 0.0)]);
        assert!(p[2].abs() < 1e-9);
        assert!(
            (p[0] - 0.5).abs() < 1e-6 && (p[1] - 0.5).abs() < 1e-6,
            "{p:?}"
        );
    }

    #[test]
    fn conditional_constraint_shape() {
        // The Black-birds example (paper Example 5.29), atoms ordered
        // (B∧Bl, B∧¬Bl, ¬B∧Bl, ¬B∧¬Bl): ||Bird|| = 0.1, ||Black|Bird|| = 0.2
        // → p0+p1 = 0.1, p0 = 0.02 → maxent splits the rest: p2 = p3 = 0.45.
        let p = maxent(
            4,
            vec![
                (vec![1.0, 1.0, 0.0, 0.0], 0.1),
                (vec![-1.0, -1.0, 0.0, 0.0], -0.1),
                // p0 = 0.2 (p0 + p1):
                (vec![0.8, -0.2, 0.0, 0.0], 0.0),
                (vec![-0.8, 0.2, 0.0, 0.0], 0.0),
            ],
        );
        assert!((p[0] - 0.02).abs() < 1e-5, "{p:?}");
        assert!((p[1] - 0.08).abs() < 1e-5);
        assert!((p[2] - 0.45).abs() < 1e-5);
        assert!((p[3] - 0.45).abs() < 1e-5);
        // Pr(Black(Clyde)) = p0 + p2 = 0.47 — the paper's number.
        assert!((p[0] + p[2] - 0.47).abs() < 1e-4);
    }

    #[test]
    fn cold_dual_solves_converge_in_few_newton_steps() {
        // Every system of the default τ-sweep (τ = 1/16 … 1/2048) of the
        // paper examples and the unary-limits benchmark families, solved
        // cold. Near the optimum `g` stops moving in f64; a solver that
        // keeps accepting such steps runs to its iteration cap here.
        use crate::constraints::compile;
        use rw_logic::{KnowledgeBase, Tolerances};
        use rw_util::Rat;
        let kbs = [
            "||Hep(x) | Jaun(x)||_x ~=_1 0.8; Jaun(Eric)",
            "||Black(x) | Bird(x)||_x ~=_1 0.2; ||Bird(x)||_x ~=_2 0.1",
            "Bird(x) ->_1 Fly(x); Penguin(x) ->_2 !Fly(x); Bird(x) ->_3 Warm-blooded(x); \
             forall x (Penguin(x) => Bird(x)); Penguin(Tweety)",
            "||Q(x) | P(x) & S(x)||_x ~=_1 1; ||Q(x) | R(x)||_x ~=_2 0; P(C); S(C); R(C)",
            "||Q(x) | P(x) & S(x)||_x ~=_1 1; ||Q(x) | R(x)||_x ~=_1 0; P(C); S(C); R(C)",
            "||Hep(x) | Jaun(x)||_x ~=_1 0.8; Jaun(Eric); Jaun(Tom)",
            "||Hep(x)||_x ~=_1 0.3; Jaun(Eric); Jaun(Tom)",
            "||Fly(x) | Bird(x)||_x ~=_1 0.9; Bird(Tweety); Bird(Opus)",
            "||Hep(x) | Jaun(x)||_x ~=_1 0.6; Jaun(Eric); Jaun(Tom); Jaun(Ann)",
        ];
        for src in kbs {
            let kb = KnowledgeBase::parse(src).unwrap();
            for shift in 4..=11 {
                let tau = Rat::new(1, 1 << shift);
                let sys = compile(&kb, &Tolerances::uniform(tau)).unwrap();
                let rows: Vec<(Vec<f64>, f64)> =
                    sys.rows.iter().map(|r| (r.coeffs.clone(), r.rhs)).collect();
                let sol = solve_dual(&rows, &sys.zero, sys.atoms, None).unwrap();
                assert!(
                    sol.iters <= 50,
                    "{src} at τ = 1/{}: {} iterations",
                    1 << shift,
                    sol.iters
                );
                for (coeffs, rhs) in &rows {
                    let lhs: f64 = coeffs.iter().zip(&sol.p).map(|(c, p)| c * p).sum();
                    assert!(
                        lhs <= rhs + 1e-10,
                        "{src} at τ = 1/{}: row {lhs} > {rhs}",
                        1 << shift
                    );
                }
                let total: f64 = sol.p.iter().sum();
                assert!((total - 1.0).abs() < 1e-12, "{src}: Σp = {total}");
            }
        }
    }

    #[test]
    fn entropy_value_sanity() {
        assert!((entropy(&[0.5, 0.5]) - std::f64::consts::LN_2).abs() < 1e-12);
        assert_eq!(entropy(&[1.0, 0.0]), 0.0);
    }

    #[test]
    fn kl_projection_matches_lagrangian_solution() {
        // max H s.t. p0 + p1 = 0.6 over 4 coords: closed form p0=p1=0.3,
        // p2=p3=0.2.
        let p = maxent(
            4,
            vec![
                (vec![1.0, 1.0, 0.0, 0.0], 0.6),
                (vec![-1.0, -1.0, 0.0, 0.0], -0.6),
            ],
        );
        for (i, expect) in [0.3, 0.3, 0.2, 0.2].iter().enumerate() {
            assert!((p[i] - expect).abs() < 1e-6, "{p:?}");
        }
    }
}
