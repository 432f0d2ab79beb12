//! Syntactic analysis over `L≈` formulas: free variables, mentioned symbols,
//! substitution and generalization (alpha-equivalence is a comparison of
//! [`crate::canon::canonical_formula_over`] keys).
//!
//! The theorem engine in `rw-core` leans on these utilities to check the
//! *side conditions* of the paper's theorems — e.g. Theorem 5.6 requires
//! that the constants `c̄` appear in neither `KB'`, `φ(x̄)` nor `ψ(x̄)`, and
//! Theorem 5.16(c) restricts where the symbols of `φ` may occur.

use crate::ast::{Formula, PropExpr, Term};
use crate::vocab::{ConstId, FuncId, PredId, VarId};
use std::collections::BTreeSet;

/// The set of variables occurring free in a formula.
///
/// Both quantifiers and proportion subscripts bind variables (`||·||_x̄` is a
/// binder; paper §4.1).
pub fn free_vars(f: &Formula) -> BTreeSet<VarId> {
    let mut out = BTreeSet::new();
    collect_free(f, &mut Vec::new(), &mut out);
    out
}

fn collect_free_term(t: &Term, bound: &[VarId], out: &mut BTreeSet<VarId>) {
    match t {
        Term::Var(v) => {
            if !bound.contains(v) {
                out.insert(*v);
            }
        }
        Term::Const(_) => {}
        Term::App(_, args) => {
            for a in args {
                collect_free_term(a, bound, out);
            }
        }
    }
}

fn collect_free(f: &Formula, bound: &mut Vec<VarId>, out: &mut BTreeSet<VarId>) {
    match f {
        Formula::True | Formula::False => {}
        Formula::Pred(_, args) => {
            for a in args {
                collect_free_term(a, bound, out);
            }
        }
        Formula::TermEq(a, b) => {
            collect_free_term(a, bound, out);
            collect_free_term(b, bound, out);
        }
        Formula::Not(g) => collect_free(g, bound, out),
        Formula::And(parts) | Formula::Or(parts) => {
            for g in parts {
                collect_free(g, bound, out);
            }
        }
        Formula::Implies(a, b) | Formula::Iff(a, b) => {
            collect_free(a, bound, out);
            collect_free(b, bound, out);
        }
        Formula::Forall(v, g) | Formula::Exists(v, g) => {
            bound.push(*v);
            collect_free(g, bound, out);
            bound.pop();
        }
        Formula::Cmp(l, _, r) => {
            collect_free_prop(l, bound, out);
            collect_free_prop(r, bound, out);
        }
    }
}

fn collect_free_prop(e: &PropExpr, bound: &mut Vec<VarId>, out: &mut BTreeSet<VarId>) {
    match e {
        PropExpr::Rat(_) => {}
        PropExpr::Prop { body, cond, vars } => {
            let n = bound.len();
            bound.extend(vars.iter().copied());
            collect_free(body, bound, out);
            if let Some(c) = cond {
                collect_free(c, bound, out);
            }
            bound.truncate(n);
        }
        PropExpr::Add(a, b) | PropExpr::Sub(a, b) | PropExpr::Mul(a, b) => {
            collect_free_prop(a, bound, out);
            collect_free_prop(b, bound, out);
        }
    }
}

/// Symbols (of each kind) mentioned anywhere in a formula.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Symbols {
    pub preds: BTreeSet<PredId>,
    pub funcs: BTreeSet<FuncId>,
    pub consts: BTreeSet<ConstId>,
}

impl Symbols {
    pub fn is_disjoint(&self, other: &Symbols) -> bool {
        self.preds.is_disjoint(&other.preds)
            && self.funcs.is_disjoint(&other.funcs)
            && self.consts.is_disjoint(&other.consts)
    }

    pub fn union(&self, other: &Symbols) -> Symbols {
        Symbols {
            preds: self.preds.union(&other.preds).copied().collect(),
            funcs: self.funcs.union(&other.funcs).copied().collect(),
            consts: self.consts.union(&other.consts).copied().collect(),
        }
    }
}

/// Collects every predicate, function and constant symbol in a formula.
pub fn symbols(f: &Formula) -> Symbols {
    let mut s = Symbols::default();
    walk_formula(f, &mut |g| {
        match g {
            Formula::Pred(p, args) => {
                s.preds.insert(*p);
                for a in args {
                    collect_term_symbols(a, &mut s);
                }
            }
            Formula::TermEq(a, b) => {
                collect_term_symbols(a, &mut s);
                collect_term_symbols(b, &mut s);
            }
            _ => {}
        }
        true
    });
    s
}

fn collect_term_symbols(t: &Term, s: &mut Symbols) {
    match t {
        Term::Var(_) => {}
        Term::Const(c) => {
            s.consts.insert(*c);
        }
        Term::App(f, args) => {
            s.funcs.insert(*f);
            for a in args {
                collect_term_symbols(a, s);
            }
        }
    }
}

/// Constants mentioned in a formula.
pub fn constants(f: &Formula) -> BTreeSet<ConstId> {
    symbols(f).consts
}

/// Strips paired negations: `!!φ → φ` (recursively), leaving a single
/// negation intact.
pub fn strip_double_neg(f: &Formula) -> &Formula {
    match f {
        Formula::Not(inner) => match inner.as_ref() {
            Formula::Not(g) => strip_double_neg(g),
            _ => f,
        },
        _ => f,
    }
}

/// Recognizes a ground literal — `P(c̄)` or `!P(c̄)` (modulo double
/// negation) with all-constant arguments — as
/// `(predicate, arguments, polarity)`.
pub fn as_ground_literal(f: &Formula) -> Option<(PredId, Vec<ConstId>, bool)> {
    let (atom, value) = match strip_double_neg(f) {
        Formula::Not(inner) => (strip_double_neg(inner), false),
        other => (other, true),
    };
    let Formula::Pred(p, args) = atom else {
        return None;
    };
    let consts: Option<Vec<ConstId>> = args
        .iter()
        .map(|t| match t {
            Term::Const(c) => Some(*c),
            _ => None,
        })
        .collect();
    Some((*p, consts?, value))
}

/// Depth-first traversal visiting every subformula (including bodies and
/// conditions of proportion expressions). The visitor returns `false` to
/// prune descent below a node.
pub fn walk_formula(f: &Formula, visit: &mut impl FnMut(&Formula) -> bool) {
    if !visit(f) {
        return;
    }
    match f {
        Formula::True | Formula::False | Formula::Pred(..) | Formula::TermEq(..) => {}
        Formula::Not(g) => walk_formula(g, visit),
        Formula::And(parts) | Formula::Or(parts) => {
            for g in parts {
                walk_formula(g, visit);
            }
        }
        Formula::Implies(a, b) | Formula::Iff(a, b) => {
            walk_formula(a, visit);
            walk_formula(b, visit);
        }
        Formula::Forall(_, g) | Formula::Exists(_, g) => walk_formula(g, visit),
        Formula::Cmp(l, _, r) => {
            walk_prop(l, visit);
            walk_prop(r, visit);
        }
    }
}

fn walk_prop(e: &PropExpr, visit: &mut impl FnMut(&Formula) -> bool) {
    match e {
        PropExpr::Rat(_) => {}
        PropExpr::Prop { body, cond, .. } => {
            walk_formula(body, visit);
            if let Some(c) = cond {
                walk_formula(c, visit);
            }
        }
        PropExpr::Add(a, b) | PropExpr::Sub(a, b) | PropExpr::Mul(a, b) => {
            walk_prop(a, visit);
            walk_prop(b, visit);
        }
    }
}

/// Renames every *free* occurrence of variable `from` to `to`.
///
/// The caller is responsible for `to` not being captured (use
/// [`crate::Vocabulary::fresh_var`] when in doubt).
pub fn rename_var(f: &Formula, from: VarId, to: VarId) -> Formula {
    substitute_var(f, from, &Term::Var(to))
}

/// Substitutes term `t` for every free occurrence of variable `v`.
pub fn substitute_var(f: &Formula, v: VarId, t: &Term) -> Formula {
    map_terms(f, &mut |term, bound| {
        if let Term::Var(w) = term {
            if *w == v && !bound.contains(w) {
                return Some(t.clone());
            }
        }
        None
    })
}

/// Substitutes variable `v` (as a term) for every occurrence of constant `c`.
///
/// This is the *generalization* step `φ(c) ⇝ φ(x)` used when reading a
/// reference class off the facts known about an individual (paper §5.2). The
/// caller must pass a variable that is not bound anywhere in `f` (a fresh
/// variable always works: binders introduced by the parser are never fresh).
pub fn generalize_const(f: &Formula, c: ConstId, v: VarId) -> Formula {
    map_terms(f, &mut |term, _bound| {
        if let Term::Const(k) = term {
            if *k == c {
                return Some(Term::Var(v));
            }
        }
        None
    })
}

/// Substitutes constants for variables: `φ(x̄) ⇝ φ(c̄)`.
pub fn instantiate(f: &Formula, pairs: &[(VarId, ConstId)]) -> Formula {
    let mut out = f.clone();
    for (v, c) in pairs {
        out = substitute_var(&out, *v, &Term::Const(*c));
    }
    out
}

/// Structurally maps terms through a formula. The callback receives the term
/// and the list of variables bound at that point; returning `Some` replaces
/// the term wholesale, `None` recurses into it.
fn map_terms(f: &Formula, m: &mut impl FnMut(&Term, &[VarId]) -> Option<Term>) -> Formula {
    fn go_term(
        t: &Term,
        bound: &mut Vec<VarId>,
        m: &mut impl FnMut(&Term, &[VarId]) -> Option<Term>,
    ) -> Term {
        if let Some(rep) = m(t, bound) {
            return rep;
        }
        match t {
            Term::Var(_) | Term::Const(_) => t.clone(),
            Term::App(f, args) => {
                Term::App(*f, args.iter().map(|a| go_term(a, bound, m)).collect())
            }
        }
    }
    fn go(
        f: &Formula,
        bound: &mut Vec<VarId>,
        m: &mut impl FnMut(&Term, &[VarId]) -> Option<Term>,
    ) -> Formula {
        match f {
            Formula::True => Formula::True,
            Formula::False => Formula::False,
            Formula::Pred(p, args) => {
                Formula::Pred(*p, args.iter().map(|a| go_term(a, bound, m)).collect())
            }
            Formula::TermEq(a, b) => Formula::TermEq(go_term(a, bound, m), go_term(b, bound, m)),
            Formula::Not(g) => Formula::not(go(g, bound, m)),
            Formula::And(parts) => Formula::conjoin(parts.iter().map(|g| go(g, bound, m))),
            Formula::Or(parts) => Formula::disjoin(parts.iter().map(|g| go(g, bound, m))),
            Formula::Implies(a, b) => Formula::implies(go(a, bound, m), go(b, bound, m)),
            Formula::Iff(a, b) => Formula::iff(go(a, bound, m), go(b, bound, m)),
            Formula::Forall(v, g) => {
                bound.push(*v);
                let body = go(g, bound, m);
                bound.pop();
                Formula::forall(*v, body)
            }
            Formula::Exists(v, g) => {
                bound.push(*v);
                let body = go(g, bound, m);
                bound.pop();
                Formula::exists(*v, body)
            }
            Formula::Cmp(l, op, r) => Formula::Cmp(go_prop(l, bound, m), *op, go_prop(r, bound, m)),
        }
    }
    fn go_prop(
        e: &PropExpr,
        bound: &mut Vec<VarId>,
        m: &mut impl FnMut(&Term, &[VarId]) -> Option<Term>,
    ) -> PropExpr {
        match e {
            PropExpr::Rat(r) => PropExpr::Rat(*r),
            PropExpr::Prop { body, cond, vars } => {
                let n = bound.len();
                bound.extend(vars.iter().copied());
                let new_body = go(body, bound, m);
                let new_cond = cond.as_ref().map(|c| Box::new(go(c, bound, m)));
                bound.truncate(n);
                PropExpr::Prop {
                    body: Box::new(new_body),
                    cond: new_cond,
                    vars: vars.clone(),
                }
            }
            PropExpr::Add(a, b) => PropExpr::Add(
                Box::new(go_prop(a, bound, m)),
                Box::new(go_prop(b, bound, m)),
            ),
            PropExpr::Sub(a, b) => PropExpr::Sub(
                Box::new(go_prop(a, bound, m)),
                Box::new(go_prop(b, bound, m)),
            ),
            PropExpr::Mul(a, b) => PropExpr::Mul(
                Box::new(go_prop(a, bound, m)),
                Box::new(go_prop(b, bound, m)),
            ),
        }
    }
    go(f, &mut Vec::new(), m)
}

/// Tolerance indices mentioned anywhere in a formula.
pub fn tolerance_indices(f: &Formula) -> BTreeSet<crate::ast::TolId> {
    let mut out = BTreeSet::new();
    walk_formula(f, &mut |g| {
        if let Formula::Cmp(_, op, _) = g {
            if let Some(t) = op.tolerance() {
                out.insert(t);
            }
        }
        true
    });
    out
}

/// True when the formula lies in the *quantifier-free unary single-variable*
/// fragment over variable `v`: boolean combinations of `P(v)` atoms. This is
/// the fragment the maximum-entropy compiler consumes directly.
pub fn is_qf_unary_over(f: &Formula, v: VarId) -> bool {
    is_qf_unary_about(f, &Term::Var(v))
}

fn is_qf_unary_about(f: &Formula, t: &Term) -> bool {
    match f {
        Formula::True | Formula::False => true,
        Formula::Pred(_, args) => args.len() == 1 && args[0] == *t,
        Formula::Not(g) => is_qf_unary_about(g, t),
        Formula::And(parts) | Formula::Or(parts) => parts.iter().all(|g| is_qf_unary_about(g, t)),
        Formula::Implies(a, b) | Formula::Iff(a, b) => {
            is_qf_unary_about(a, t) && is_qf_unary_about(b, t)
        }
        _ => false,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse_formula;
    use crate::vocab::Vocabulary;

    fn parse(v: &mut Vocabulary, s: &str) -> Formula {
        parse_formula(v, s).unwrap()
    }

    #[test]
    fn free_vars_sees_through_binders() {
        let mut v = Vocabulary::new();
        let f = parse(&mut v, "forall x (Child(x, y))");
        let y = v.var("y");
        assert_eq!(free_vars(&f), [y].into_iter().collect());

        let g = parse(&mut v, "||Child(x, y)||_x ~=_1 0.5");
        assert_eq!(free_vars(&g), [y].into_iter().collect());

        let h = parse(&mut v, "||Child(x, y)||_{x,y} ~=_1 0.5");
        assert!(free_vars(&h).is_empty());
    }

    #[test]
    fn symbols_collects_everything() {
        let mut v = Vocabulary::new();
        let f = parse(&mut v, "Jaun(Eric) & ||Hep(x) | Jaun(x)||_x ~=_1 0.8");
        let s = symbols(&f);
        assert_eq!(s.preds.len(), 2);
        assert_eq!(s.consts.len(), 1);
        assert!(s.funcs.is_empty());
    }

    #[test]
    fn substitution_avoids_bound_occurrences() {
        let mut v = Vocabulary::new();
        let f = parse(&mut v, "P(x) & forall x (Q(x))");
        let x = v.var("x");
        let eric = v.constant("Eric").unwrap();
        let g = substitute_var(&f, x, &Term::Const(eric));
        let expected = parse(&mut v, "P(Eric) & forall x (Q(x))");
        assert_eq!(g, expected);
    }

    #[test]
    fn generalization_inverts_instantiation() {
        let mut v = Vocabulary::new();
        let f = parse(&mut v, "Jaun(Eric) & Fever(Eric)");
        let eric = v.lookup_const("Eric").unwrap();
        let z = v.fresh_var("z");
        let gen = generalize_const(&f, eric, z);
        let back = instantiate(&gen, &[(z, eric)]);
        assert_eq!(back, f);
        assert!(constants(&gen).is_empty());
    }

    /// Whether `a` and `b` are the same formula up to renaming bound
    /// variables: [`crate::canon`] is the one place that decides it.
    fn alpha_eq(v: &Vocabulary, a: &Formula, b: &Formula) -> bool {
        crate::canon::canonical_formula(v, a) == crate::canon::canonical_formula(v, b)
    }

    #[test]
    fn alpha_equivalence() {
        let mut v = Vocabulary::new();
        let a = parse(&mut v, "forall x (P(x) => Q(x))");
        let b = parse(&mut v, "forall y (P(y) => Q(y))");
        assert!(alpha_eq(&v, &a, &b));
        let c = parse(&mut v, "forall y (Q(y) => P(y))");
        assert!(!alpha_eq(&v, &a, &c));

        let d = parse(&mut v, "||P(x)||_x ~=_1 1");
        let e = parse(&mut v, "||P(w)||_w ~=_1 1");
        assert!(alpha_eq(&v, &d, &e));
        let f2 = parse(&mut v, "||P(w)||_w ~=_2 1");
        assert!(!alpha_eq(&v, &d, &f2));
    }

    #[test]
    fn alpha_eq_distinguishes_free_vars() {
        let mut v = Vocabulary::new();
        let a = parse(&mut v, "P(x)");
        let b = parse(&mut v, "P(y)");
        assert!(!alpha_eq(&v, &a, &b));
    }

    #[test]
    fn qf_unary_fragment() {
        let mut v = Vocabulary::new();
        let f = parse(&mut v, "Bird(x) & !Penguin(x)");
        let x = v.var("x");
        assert!(is_qf_unary_over(&f, x));
        let g = parse(&mut v, "Bird(x) & Child(x, y)");
        assert!(!is_qf_unary_over(&g, x));
        let h = parse(&mut v, "forall z (Bird(z))");
        assert!(!is_qf_unary_over(&h, x));
    }
}
