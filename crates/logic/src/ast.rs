//! Abstract syntax for `L≈` / `L=` (paper Definition 4.1).

use crate::vocab::{ConstId, FuncId, PredId, VarId};
use rw_util::Rat;
use std::fmt;

/// A tolerance index: the `i` of `≈_i` / `⪯_i`. Comparisons with equal
/// indices share the same tolerance `τ_i`; the paper uses this to encode the
/// relative *strength* of defaults (§5.3: the Nixon diamond with a shared
/// index yields belief 1/2, with distinct indices the limit does not exist).
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct TolId(pub u32);

impl TolId {
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Debug for TolId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "τ{}", self.0)
    }
}

/// First-order terms.
#[derive(Clone, PartialEq, Eq, Hash, Debug)]
pub enum Term {
    Var(VarId),
    Const(ConstId),
    App(FuncId, Vec<Term>),
}

/// Comparison operators between proportion expressions.
///
/// `ApproxEq`/`ApproxLeq` are the `≈_i`/`⪯_i` of `L≈`; `Eq`/`Leq` are the
/// exact connectives of `L=` (used internally, and available for tests and
/// knowledge bases that really do mean exact proportions).
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum CmpOp {
    /// `ζ ≈_i ζ'`: `|ζ - ζ'| ≤ τ_i`.
    ApproxEq(TolId),
    /// `ζ ⪯_i ζ'`: `ζ - ζ' ≤ τ_i`.
    ApproxLeq(TolId),
    /// Exact equality (`L=`).
    Eq,
    /// Exact `≤` (`L=`).
    Leq,
}

impl CmpOp {
    pub fn tolerance(self) -> Option<TolId> {
        match self {
            CmpOp::ApproxEq(t) | CmpOp::ApproxLeq(t) => Some(t),
            CmpOp::Eq | CmpOp::Leq => None,
        }
    }
}

/// Proportion expressions (paper Definition 4.1).
#[derive(Clone, PartialEq, Eq, Hash, Debug)]
pub enum PropExpr {
    /// A rational constant.
    Rat(Rat),
    /// `||body||_vars` or `||body | cond||_vars`.
    ///
    /// Conditional proportions are primitive: in worlds where the condition
    /// has measure zero, every approximate comparison mentioning the
    /// proportion is *true* (the paper's convention, §4.1).
    Prop {
        body: Box<Formula>,
        cond: Option<Box<Formula>>,
        vars: Vec<VarId>,
    },
    Add(Box<PropExpr>, Box<PropExpr>),
    Sub(Box<PropExpr>, Box<PropExpr>),
    Mul(Box<PropExpr>, Box<PropExpr>),
}

impl PropExpr {
    pub fn rat(r: Rat) -> PropExpr {
        PropExpr::Rat(r)
    }

    pub fn proportion(body: Formula, vars: Vec<VarId>) -> PropExpr {
        PropExpr::Prop {
            body: Box::new(body),
            cond: None,
            vars,
        }
    }

    pub fn conditional(body: Formula, cond: Formula, vars: Vec<VarId>) -> PropExpr {
        PropExpr::Prop {
            body: Box::new(body),
            cond: Some(Box::new(cond)),
            vars,
        }
    }
}

/// Formulas of `L≈`.
#[derive(Clone, PartialEq, Eq, Hash, Debug)]
pub enum Formula {
    /// The constant truth values (convenient normal-form endpoints).
    True,
    False,
    /// `R(t₁..t_r)`.
    Pred(PredId, Vec<Term>),
    /// `t₁ = t₂`.
    TermEq(Term, Term),
    Not(Box<Formula>),
    /// An n-ary conjunction: at least two children, none of them an
    /// `And` and no two equal (build it through [`Formula::and`] /
    /// [`Formula::conjoin`], which keep that shape, so a chain of any
    /// length is one level and `φ & φ` is `φ`).
    And(Vec<Formula>),
    /// An n-ary disjunction, shaped like `And` ([`Formula::or`] /
    /// [`Formula::disjoin`]).
    Or(Vec<Formula>),
    Implies(Box<Formula>, Box<Formula>),
    Iff(Box<Formula>, Box<Formula>),
    Forall(VarId, Box<Formula>),
    Exists(VarId, Box<Formula>),
    /// `ζ op ζ'` between proportion expressions.
    Cmp(PropExpr, CmpOp, PropExpr),
}

impl Formula {
    // A by-value constructor, not a `std::ops::Not` (which takes `self`
    // and would force call-site boxing idioms).
    #[allow(clippy::should_implement_trait)]
    pub fn not(f: Formula) -> Formula {
        Formula::Not(Box::new(f))
    }

    pub fn and(a: Formula, b: Formula) -> Formula {
        Formula::conjoin([a, b])
    }

    pub fn or(a: Formula, b: Formula) -> Formula {
        Formula::disjoin([a, b])
    }

    pub fn implies(a: Formula, b: Formula) -> Formula {
        Formula::Implies(Box::new(a), Box::new(b))
    }

    pub fn iff(a: Formula, b: Formula) -> Formula {
        Formula::Iff(Box::new(a), Box::new(b))
    }

    pub fn forall(v: VarId, f: Formula) -> Formula {
        Formula::Forall(v, Box::new(f))
    }

    pub fn exists(v: VarId, f: Formula) -> Formula {
        Formula::Exists(v, Box::new(f))
    }

    pub fn cmp(lhs: PropExpr, op: CmpOp, rhs: PropExpr) -> Formula {
        Formula::Cmp(lhs, op, rhs)
    }

    /// Conjunction of an iterator of formulas (`True` when empty, the
    /// formula itself when single). Conjunctions among them are spliced
    /// in, so no child of the result is an `And`, and only the first
    /// occurrence of each child is kept (`φ ∧ φ ≡ φ`).
    pub fn conjoin(fs: impl IntoIterator<Item = Formula>) -> Formula {
        Formula::junction(true, fs.into_iter().collect())
    }

    /// Disjunction of an iterator of formulas (`False` when empty), with
    /// disjunctions among them spliced in and repeats dropped like
    /// [`Formula::conjoin`].
    pub fn disjoin(fs: impl IntoIterator<Item = Formula>) -> Formula {
        Formula::junction(false, fs.into_iter().collect())
    }

    /// The one constructor of `And`/`Or`. Each call dedupes all of its
    /// children, so build a long chain with one call, not a fold.
    fn junction(and: bool, mut parts: Vec<Formula>) -> Formula {
        let same =
            |f: &Formula| matches!((f, and), (Formula::And(_), true) | (Formula::Or(_), false));
        if parts.iter().any(same) {
            let mut flat = Vec::with_capacity(parts.len());
            for f in parts {
                match (f, and) {
                    (Formula::And(inner), true) | (Formula::Or(inner), false) => flat.extend(inner),
                    (f, _) => flat.push(f),
                }
            }
            parts = flat;
        }
        keep_first_occurrences(&mut parts);
        match parts.len() {
            0 if and => Formula::True,
            0 => Formula::False,
            1 => parts.pop().expect("one part"),
            _ if and => Formula::And(parts),
            _ => Formula::Or(parts),
        }
    }

    /// The statistical reading of a default rule `prem ->_i concl` over the
    /// given tuple of variables: `||concl | prem||_vars ≈_i 1` (paper §4.3).
    pub fn default_rule(prem: Formula, concl: Formula, vars: Vec<VarId>, tol: TolId) -> Formula {
        Formula::Cmp(
            PropExpr::conditional(concl, prem, vars),
            CmpOp::ApproxEq(tol),
            PropExpr::Rat(Rat::ONE),
        )
    }

    /// `∃!x φ(x)` desugared as `∃x (φ(x) ∧ ∀y (φ(y) ⇒ y = x))`.
    ///
    /// The caller must supply a variable `y` that does not occur in `φ`.
    pub fn exists_unique(x: VarId, y: VarId, phi: Formula) -> Formula {
        let phi_y = crate::analysis::rename_var(&phi, x, y);
        Formula::exists(
            x,
            Formula::and(
                phi.clone(),
                Formula::forall(
                    y,
                    Formula::implies(phi_y, Formula::TermEq(Term::Var(y), Term::Var(x))),
                ),
            ),
        )
    }

    /// The top-level conjuncts, left to right (the formula itself when
    /// it is not a conjunction).
    pub fn conjuncts(&self) -> &[Formula] {
        match self {
            Formula::And(parts) => parts,
            other => std::slice::from_ref(other),
        }
    }
}

/// Up to this many children [`keep_first_occurrences`] scans the kept
/// prefix, allocating nothing; past it one hash set is built.
const SCAN_LIMIT: usize = 16;

/// Drops every child equal to an earlier one, keeping the order of first
/// occurrences, in time linear in the number of children.
fn keep_first_occurrences(parts: &mut Vec<Formula>) {
    if parts.len() <= SCAN_LIMIT {
        let mut kept = 0;
        for i in 0..parts.len() {
            if !parts[..kept].contains(&parts[i]) {
                parts.swap(kept, i);
                kept += 1;
            }
        }
        parts.truncate(kept);
    } else {
        let mut seen = std::collections::HashSet::with_capacity(parts.len());
        let keep: Vec<bool> = parts.iter().map(|f| seen.insert(f)).collect();
        let mut keep = keep.into_iter();
        parts.retain(|_| keep.next().unwrap_or(false));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::vocab::Vocabulary;

    #[test]
    fn junctions_keep_first_occurrences_in_order() {
        let mut v = Vocabulary::new();
        let atoms: Vec<Formula> = (0..40)
            .map(|i| Formula::Pred(v.pred(&format!("P{i}"), 0).unwrap(), vec![]))
            .collect();
        let (p, q, r) = (&atoms[0], &atoms[1], &atoms[2]);
        let got = Formula::conjoin([q.clone(), p.clone(), q.clone(), r.clone(), p.clone()]);
        assert_eq!(got, Formula::And(vec![q.clone(), p.clone(), r.clone()]));
        assert_eq!(Formula::disjoin([p.clone(), p.clone()]), p.clone());
        // Nested chains are spliced, then deduped across the splice.
        let left = Formula::and(p.clone(), q.clone());
        let right = Formula::and(q.clone(), r.clone());
        assert_eq!(
            Formula::and(left.clone(), right.clone()),
            Formula::And(vec![p.clone(), q.clone(), r.clone()])
        );
        assert_eq!(Formula::and(left.clone(), left.clone()), left);
        // A conjunction is one child of a disjunction, kept once.
        let or = Formula::disjoin([left.clone(), r.clone(), left.clone()]);
        assert_eq!(or, Formula::Or(vec![left, r.clone()]));
        // The same node below and above the scan limit: every atom twice,
        // interleaved, leaves each once in first-seen order.
        for n in [3, SCAN_LIMIT / 2, SCAN_LIMIT / 2 + 1, SCAN_LIMIT, 40] {
            let twice = atoms[..n].iter().chain(atoms[..n].iter().rev()).cloned();
            let want = if n == 1 {
                atoms[0].clone()
            } else {
                Formula::And(atoms[..n].to_vec())
            };
            assert_eq!(Formula::conjoin(twice), want, "{n} atoms");
        }
    }

    #[test]
    fn conjoin_disjoin_edge_cases() {
        assert_eq!(Formula::conjoin([]), Formula::True);
        assert_eq!(Formula::disjoin([]), Formula::False);
        let mut v = Vocabulary::new();
        let p = v.pred("P", 0).unwrap();
        let atom = Formula::Pred(p, vec![]);
        assert_eq!(Formula::conjoin([atom.clone()]), atom);
    }

    #[test]
    fn conjunct_splitting_is_left_to_right() {
        let mut v = Vocabulary::new();
        let p = v.pred("P", 0).unwrap();
        let q = v.pred("Q", 0).unwrap();
        let r = v.pred("R", 0).unwrap();
        let fp = Formula::Pred(p, vec![]);
        let fq = Formula::Pred(q, vec![]);
        let fr = Formula::Pred(r, vec![]);
        let left = Formula::and(Formula::and(fp.clone(), fq.clone()), fr.clone());
        let right = Formula::and(fp.clone(), Formula::and(fq.clone(), fr.clone()));
        let want = [fp.clone(), fq.clone(), fr.clone()];
        assert_eq!(left.conjuncts(), &want);
        assert_eq!(left, right);
        assert_eq!(Formula::And(want.to_vec()), left);
        assert_eq!(fp.conjuncts(), std::slice::from_ref(&fp));
        // A disjunction stays one child of a conjunction, and vice versa.
        let mixed = Formula::and(Formula::or(fp.clone(), fq.clone()), fr.clone());
        assert_eq!(mixed.conjuncts().len(), 2);
        assert!(matches!(&mixed.conjuncts()[0], Formula::Or(ds) if ds.len() == 2));
        let mixed = Formula::or(Formula::and(fp.clone(), fq.clone()), fr.clone());
        assert!(matches!(&mixed, Formula::Or(ds) if ds.len() == 2));
        assert_eq!(mixed.conjuncts(), std::slice::from_ref(&mixed));
    }

    #[test]
    fn default_rule_shape() {
        let mut v = Vocabulary::new();
        let bird = v.pred("Bird", 1).unwrap();
        let fly = v.pred("Fly", 1).unwrap();
        let x = v.var("x");
        let d = Formula::default_rule(
            Formula::Pred(bird, vec![Term::Var(x)]),
            Formula::Pred(fly, vec![Term::Var(x)]),
            vec![x],
            TolId(1),
        );
        match d {
            Formula::Cmp(
                PropExpr::Prop { cond: Some(_), .. },
                CmpOp::ApproxEq(TolId(1)),
                PropExpr::Rat(r),
            ) => {
                assert_eq!(r, Rat::ONE)
            }
            other => panic!("unexpected desugaring: {other:?}"),
        }
    }
}
