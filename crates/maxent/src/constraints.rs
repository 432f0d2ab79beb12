//! Compiling a unary knowledge base into linear constraints over the atom
//! simplex (the set `S(KB)` of paper §6).
//!
//! Supported conjunct shapes (everything else returns
//! [`CompileError::Unsupported`], signalling the caller to fall back to the
//! exact engines):
//!
//! * `∀x φ(x)`, `φ` quantifier-free unary → atoms outside `S(φ)` are pinned
//!   to zero;
//! * `∃x φ(x)` → recorded; eventually consistent iff some atom of `S(φ)`
//!   remains unpinned (a vanishing-fraction event otherwise);
//! * comparisons `ζ op ζ'` where both sides are *affine* in unconditional
//!   proportions → one or two linear rows (with `τ` slack for `≈_i`/`⪯_i`);
//! * comparisons with a conditional proportion `||φ|ψ||_x` on one side and a
//!   constant on the other → the exact linearization
//!   `(k−τ)·p_ψ ≤ p_{φ∧ψ} ≤ (k+τ)·p_ψ`, which also reproduces the
//!   measure-zero convention at `p_ψ = 0`;
//! * facts about a single constant (any boolean combination of unary atoms
//!   over that constant) → an atom set used for conditioning, not a
//!   constraint on proportions (a single individual has vanishing weight).

use rw_logic::ast::{CmpOp, Formula, PropExpr};
use rw_logic::{ConstId, KnowledgeBase, Pretty, Tolerances, Vocabulary};
use rw_unary::atoms::{compile_atom_set, compile_atom_set_const};
use rw_unary::AtomSet;
use std::collections::BTreeMap;

/// Why a KB (or query) cannot be handled by the maxent engine.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum CompileError {
    NotUnary,
    /// More than [`MAX_ATOMS`]: `preds` unary predicates span `2^preds`.
    TooManyAtoms {
        preds: usize,
    },
    Unsupported(String),
}

impl std::fmt::Display for CompileError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CompileError::NotUnary => write!(f, "maxent engine requires a unary vocabulary"),
            CompileError::TooManyAtoms { preds } => match 1usize.checked_shl(*preds as u32) {
                Some(n) => write!(f, "atom space too large ({n} atoms)"),
                None => write!(f, "atom space too large (2^{preds} atoms)"),
            },
            CompileError::Unsupported(s) => write!(f, "outside the maxent fragment: {s}"),
        }
    }
}

impl std::error::Error for CompileError {}

/// A row `Σ coeffs_a · p_a ≤ rhs`.
#[derive(Clone, Debug, PartialEq)]
pub struct LinearRow {
    pub coeffs: Vec<f64>,
    pub rhs: f64,
}

/// The compiled constraint system over the atom simplex.
#[derive(Clone, Debug)]
pub struct UnaryConstraintSystem {
    pub atoms: usize,
    /// Atoms pinned to zero by universal conjuncts.
    pub zero: Vec<bool>,
    /// Inequality rows (excluding simplex-sum and zero pins).
    pub rows: Vec<LinearRow>,
    /// Conditioning atom set per constant mentioned in the KB.
    pub const_atoms: BTreeMap<ConstId, AtomSet>,
    /// Atom sets of existential conjuncts (for eventual-consistency checks).
    pub exists_sets: Vec<AtomSet>,
}

impl UnaryConstraintSystem {
    /// Full LP rows: simplex equality, zero pins, then compiled rows.
    pub fn lp_rows(&self) -> (Vec<Vec<f64>>, Vec<f64>) {
        let n = self.atoms;
        let mut a = vec![vec![1.0; n], vec![-1.0; n]];
        let mut b = vec![1.0, -1.0];
        for (atom, &z) in self.zero.iter().enumerate() {
            if z {
                let mut row = vec![0.0; n];
                row[atom] = 1.0;
                a.push(row);
                b.push(0.0);
            }
        }
        for r in &self.rows {
            a.push(r.coeffs.clone());
            b.push(r.rhs);
        }
        (a, b)
    }

    /// True when some existential conjunct, or some constant's facts, can
    /// never be witnessed: a fact `ψ(c)` implies `∃x ψ(x)`, so a constant
    /// whose atom set is all pinned to zero voids the KB just the same.
    pub fn exists_violated(&self) -> bool {
        self.exists_sets
            .iter()
            .chain(self.const_atoms.values())
            .any(|s| s.iter().all(|atom| self.zero[atom]))
    }
}

/// An affine function of the atom proportions.
#[derive(Clone, Debug)]
struct Affine {
    coeffs: Vec<f64>,
    konst: f64,
}

impl Affine {
    fn constant(n: usize, k: f64) -> Affine {
        Affine {
            coeffs: vec![0.0; n],
            konst: k,
        }
    }

    fn is_constant(&self) -> bool {
        self.coeffs.iter().all(|&c| c == 0.0)
    }

    fn sub(&self, other: &Affine) -> Affine {
        Affine {
            coeffs: self
                .coeffs
                .iter()
                .zip(&other.coeffs)
                .map(|(a, b)| a - b)
                .collect(),
            konst: self.konst - other.konst,
        }
    }
}

/// A conditional proportion `||φ|ψ||_x` reduced to atom sets.
struct CondProp {
    body_and_cond: AtomSet,
    cond: AtomSet,
}

fn affine_of(e: &PropExpr, vocab: &Vocabulary, n: usize) -> Option<Affine> {
    match e {
        PropExpr::Rat(r) => Some(Affine::constant(n, r.to_f64())),
        PropExpr::Prop { body, cond, vars } => {
            if cond.is_some() || vars.len() != 1 {
                return None;
            }
            let s = compile_atom_set(body, vars[0], vocab)?;
            let mut coeffs = vec![0.0; n];
            for a in s.iter() {
                coeffs[a] = 1.0;
            }
            Some(Affine { coeffs, konst: 0.0 })
        }
        PropExpr::Add(a, b) => {
            let x = affine_of(a, vocab, n)?;
            let y = affine_of(b, vocab, n)?;
            Some(Affine {
                coeffs: x.coeffs.iter().zip(&y.coeffs).map(|(p, q)| p + q).collect(),
                konst: x.konst + y.konst,
            })
        }
        PropExpr::Sub(a, b) => {
            let x = affine_of(a, vocab, n)?;
            let y = affine_of(b, vocab, n)?;
            Some(x.sub(&y))
        }
        PropExpr::Mul(a, b) => {
            let x = affine_of(a, vocab, n)?;
            let y = affine_of(b, vocab, n)?;
            if x.is_constant() {
                Some(Affine {
                    coeffs: y.coeffs.iter().map(|c| c * x.konst).collect(),
                    konst: x.konst * y.konst,
                })
            } else if y.is_constant() {
                Some(Affine {
                    coeffs: x.coeffs.iter().map(|c| c * y.konst).collect(),
                    konst: x.konst * y.konst,
                })
            } else {
                None
            }
        }
    }
}

fn cond_prop_of(e: &PropExpr, vocab: &Vocabulary) -> Option<CondProp> {
    if let PropExpr::Prop {
        body,
        cond: Some(c),
        vars,
    } = e
    {
        if vars.len() != 1 {
            return None;
        }
        let sb = compile_atom_set(body, vars[0], vocab)?;
        let sc = compile_atom_set(c, vars[0], vocab)?;
        return Some(CondProp {
            body_and_cond: sb.intersect(&sc),
            cond: sc,
        });
    }
    None
}

/// The most atoms the engine works over (twelve unary predicates).
pub const MAX_ATOMS: usize = 4096;

/// The number of atoms [`compile`] works over, checked before any atom
/// set is built: the vocabulary must be unary and span at most
/// [`MAX_ATOMS`] atoms.
pub fn atom_space(vocab: &Vocabulary) -> Result<usize, CompileError> {
    if !vocab.is_unary() {
        return Err(CompileError::NotUnary);
    }
    let preds = vocab.pred_count();
    match 1usize.checked_shl(preds as u32) {
        Some(n) if n <= MAX_ATOMS => Ok(n),
        _ => Err(CompileError::TooManyAtoms { preds }),
    }
}

/// Compiles the KB at a concrete tolerance vector.
pub fn compile(
    kb: &KnowledgeBase,
    tol: &Tolerances,
) -> Result<UnaryConstraintSystem, CompileError> {
    let vocab = kb.vocab();
    let n = atom_space(vocab)?;
    let mut sys = UnaryConstraintSystem {
        atoms: n,
        zero: vec![false; n],
        rows: Vec::new(),
        const_atoms: BTreeMap::new(),
        exists_sets: Vec::new(),
    };

    for conjunct in kb.conjuncts() {
        // Comparison chains and nested conjunctions may appear inside one
        // conjunct; flatten first.
        for f in conjunct.conjuncts() {
            compile_conjunct(f, vocab, tol, n, &mut sys)?;
        }
    }
    Ok(sys)
}

fn unsupported(vocab: &Vocabulary, f: &Formula, why: &str) -> CompileError {
    CompileError::Unsupported(format!("`{}`: {why}", Pretty::new(vocab, f)))
}

fn compile_conjunct(
    f: &Formula,
    vocab: &Vocabulary,
    tol: &Tolerances,
    n: usize,
    sys: &mut UnaryConstraintSystem,
) -> Result<(), CompileError> {
    match f {
        Formula::True => Ok(()),
        Formula::False => {
            // An explicitly false KB pins everything to zero: infeasible.
            sys.rows.push(LinearRow {
                coeffs: vec![0.0; n],
                rhs: -1.0,
            });
            Ok(())
        }
        Formula::Forall(v, body) => {
            let s = compile_atom_set(body, *v, vocab).ok_or_else(|| {
                unsupported(vocab, f, "universal body is not quantifier-free unary")
            })?;
            for a in 0..n {
                if !s.contains(a) {
                    sys.zero[a] = true;
                }
            }
            Ok(())
        }
        Formula::Exists(v, body) => {
            let s = compile_atom_set(body, *v, vocab).ok_or_else(|| {
                unsupported(vocab, f, "existential body is not quantifier-free unary")
            })?;
            sys.exists_sets.push(s);
            Ok(())
        }
        Formula::Cmp(lhs, op, rhs) => compile_cmp(f, lhs, *op, rhs, vocab, tol, n, sys),
        other => {
            // Constant facts: boolean combination over a single constant.
            let consts = rw_logic::analysis::constants(other);
            if consts.len() == 1 {
                let c = *consts.iter().next().unwrap();
                if let Some(s) = compile_atom_set_const(other, c, vocab) {
                    let entry = sys.const_atoms.entry(c).or_insert_with(|| AtomSet::full(n));
                    *entry = entry.intersect(&s);
                    return Ok(());
                }
            }
            Err(unsupported(
                vocab,
                other,
                "not a universal, existential, proportion comparison or single-constant fact",
            ))
        }
    }
}

#[allow(clippy::too_many_arguments)]
fn compile_cmp(
    whole: &Formula,
    lhs: &PropExpr,
    op: CmpOp,
    rhs: &PropExpr,
    vocab: &Vocabulary,
    tol: &Tolerances,
    n: usize,
    sys: &mut UnaryConstraintSystem,
) -> Result<(), CompileError> {
    let tau = op.tolerance().map(|t| tol.get(t).to_f64()).unwrap_or(0.0);
    let la = affine_of(lhs, vocab, n);
    let ra = affine_of(rhs, vocab, n);
    match (la, ra) {
        (Some(l), Some(r)) => {
            // l - r ≤ τ  (and for ≈/= the symmetric row).
            let d = l.sub(&r);
            sys.rows.push(LinearRow {
                coeffs: d.coeffs.clone(),
                rhs: tau - d.konst,
            });
            if matches!(op, CmpOp::ApproxEq(_) | CmpOp::Eq) {
                sys.rows.push(LinearRow {
                    coeffs: d.coeffs.iter().map(|c| -c).collect(),
                    rhs: tau + d.konst,
                });
            }
            Ok(())
        }
        (None, Some(r)) if r.is_constant() => {
            let cp = cond_prop_of(lhs, vocab)
                .ok_or_else(|| unsupported(vocab, whole, "left side is not affine or a conditional proportion"))?;
            push_cond_rows(&cp, op, r.konst, tau, n, sys, false);
            Ok(())
        }
        (Some(l), None) if l.is_constant() => {
            let cp = cond_prop_of(rhs, vocab)
                .ok_or_else(|| unsupported(vocab, whole, "right side is not affine or a conditional proportion"))?;
            push_cond_rows(&cp, op, l.konst, tau, n, sys, true);
            Ok(())
        }
        _ => Err(unsupported(
            vocab,
            whole,
            "comparison between two non-affine sides (conditional proportions may only be compared to constants)",
        )),
    }
}

/// Rows for `||φ|ψ|| op k` (or `k op ||φ|ψ||` when `flipped`):
/// upper: `p_b - (k+τ)·p_c ≤ 0`; lower: `(k-τ)·p_c - p_b ≤ 0`.
fn push_cond_rows(
    cp: &CondProp,
    op: CmpOp,
    k: f64,
    tau: f64,
    n: usize,
    sys: &mut UnaryConstraintSystem,
    flipped: bool,
) {
    let mut upper = vec![0.0; n];
    let mut lower = vec![0.0; n];
    for a in cp.body_and_cond.iter() {
        upper[a] += 1.0;
        lower[a] -= 1.0;
    }
    for a in cp.cond.iter() {
        upper[a] -= k + tau;
        lower[a] += k - tau;
    }
    let leq_only = matches!(op, CmpOp::ApproxLeq(_) | CmpOp::Leq);
    if leq_only {
        // prop ⪯ k  →  upper row only;  k ⪯ prop  →  lower row only.
        if flipped {
            sys.rows.push(LinearRow {
                coeffs: lower,
                rhs: 0.0,
            });
        } else {
            sys.rows.push(LinearRow {
                coeffs: upper,
                rhs: 0.0,
            });
        }
    } else {
        sys.rows.push(LinearRow {
            coeffs: upper,
            rhs: 0.0,
        });
        sys.rows.push(LinearRow {
            coeffs: lower,
            rhs: 0.0,
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rw_util::Rat;

    fn tol() -> Tolerances {
        Tolerances::uniform(Rat::new(1, 100))
    }

    #[test]
    fn universal_pins_atoms() {
        let kb = KnowledgeBase::parse("forall x (Penguin(x) => Bird(x))").unwrap();
        let sys = compile(&kb, &tol()).unwrap();
        // Penguin = bit 0, Bird = bit 1: atom 1 (P ∧ ¬B) is pinned.
        assert_eq!(sys.zero, vec![false, true, false, false]);
    }

    #[test]
    fn conditional_linearization() {
        let kb = KnowledgeBase::parse("||Hep(x) | Jaun(x)||_x ~=_1 0.8").unwrap();
        let sys = compile(&kb, &tol()).unwrap();
        assert_eq!(sys.rows.len(), 2);
        // Hep = bit 0, Jaun = bit 1. body∧cond = atom 3; cond = atoms 2,3.
        let up = &sys.rows[0];
        assert!((up.coeffs[3] - (1.0 - 0.81)).abs() < 1e-12);
        assert!((up.coeffs[2] - (-0.81)).abs() < 1e-12);
        assert_eq!(up.rhs, 0.0);
    }

    #[test]
    fn unconditional_affine() {
        let kb = KnowledgeBase::parse("||Bird(x)||_x ~=_1 0.1").unwrap();
        let sys = compile(&kb, &tol()).unwrap();
        assert_eq!(sys.rows.len(), 2);
        // p_bird ≤ 0.1 + τ → coeffs 1 on bird atoms, rhs 0.11.
        assert!((sys.rows[0].rhs - 0.11).abs() < 1e-12);
    }

    #[test]
    fn constant_facts_become_conditioning_sets() {
        let kb = KnowledgeBase::parse("Jaun(Eric); !Hep(Tom)").unwrap();
        let sys = compile(&kb, &tol()).unwrap();
        assert_eq!(sys.const_atoms.len(), 2);
        let eric = kb.vocab().lookup_const("Eric").unwrap();
        // Jaun = bit 0: atoms 1, 3.
        let s = &sys.const_atoms[&eric];
        assert_eq!(s.iter().collect::<Vec<_>>(), vec![1, 3]);
    }

    #[test]
    fn chains_split_into_rows() {
        let kb = KnowledgeBase::parse("0.7 <~_1 ||Chirps(x) | Bird(x)||_x <~_2 0.8").unwrap();
        let sys = compile(&kb, &tol()).unwrap();
        assert_eq!(sys.rows.len(), 2); // one lower, one upper
    }

    #[test]
    fn exists_recorded_and_checked() {
        let kb = KnowledgeBase::parse("exists x (P(x)); forall x (!P(x))").unwrap();
        let sys = compile(&kb, &tol()).unwrap();
        assert!(sys.exists_violated());
        let kb2 = KnowledgeBase::parse("exists x (P(x))").unwrap();
        assert!(!compile(&kb2, &tol()).unwrap().exists_violated());
        // A constant's facts are witnesses too: contradictory facts leave
        // it no atom, and a universal can pin every atom it has.
        for void in ["Q(K) & !Q(K)", "forall x (!P(x)); P(K)"] {
            let kb = KnowledgeBase::parse(void).unwrap();
            assert!(compile(&kb, &tol()).unwrap().exists_violated(), "{void}");
        }
        let kb3 = KnowledgeBase::parse("forall x (!P(x)); Q(K)").unwrap();
        assert!(!compile(&kb3, &tol()).unwrap().exists_violated());
    }

    #[test]
    fn unsupported_shapes_are_reported() {
        for src in [
            "||P(x) & Q(y)||_{x,y} ~=_1 0.5",    // multi-variable proportion
            "P(A) or Q(B)",                      // cross-constant
            "||P(x) | Q(x)||_x ~=_1 ||R(x)||_x", // cond vs non-constant
            "exists! x (P(x))",                  // equality quantifier
        ] {
            let kb = KnowledgeBase::parse(src).unwrap();
            let e = compile(&kb, &tol()).unwrap_err();
            match e {
                CompileError::Unsupported(_) => {}
                other => panic!("{src}: {other:?}"),
            }
        }
        let kb = KnowledgeBase::parse("Likes(A, B)").unwrap();
        assert_eq!(compile(&kb, &tol()).unwrap_err(), CompileError::NotUnary);
    }

    #[test]
    fn lp_rows_include_pins_and_simplex() {
        let kb = KnowledgeBase::parse("forall x (P(x)); ||P(x) & Q(x)||_x <~_1 0.3").unwrap();
        let sys = compile(&kb, &tol()).unwrap();
        let (a, b) = sys.lp_rows();
        // 2 simplex + 2 pins (atoms 0 and 2 lack P) + 1 row.
        assert_eq!(a.len(), 5);
        assert_eq!(b.len(), 5);
    }
}
