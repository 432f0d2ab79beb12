//! Symbolic evaluation of unary `L≈` sentences on world *profiles*.
//!
//! A profile fixes the atom-count vector, the equality pattern of the
//! constants and the atom of each constant block — everything a unary
//! sentence's truth value can depend on. The evaluator never touches
//! concrete elements; quantifiers and proportion subscripts range over
//! *element descriptors*:
//!
//! * `Block(b)` — the (distinct) element denoted by constant block `b`;
//! * `Fresh(s)` — an anonymous element of a known atom, distinct from every
//!   block and from every other active `Fresh` descriptor.
//!
//! Within a profile class, any two anonymous elements of the same atom are
//! exchangeable by a domain permutation fixing the named elements, so a
//! quantifier needs one case per block, one per active fresh descriptor, and
//! one per atom with spare capacity (multiplicity `n_a − #named in a`).
//! Proportion counts follow by multiplying case multiplicities.

use crate::atoms::atom_satisfies;
use rw_logic::ast::{CmpOp, Formula, PropExpr, Term};
use rw_logic::{Tolerances, VarId, Vocabulary};
use rw_util::Rat;

/// A world-equivalence class for a unary vocabulary.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Profile {
    /// Elements per atom; sums to the domain size.
    pub counts: Vec<usize>,
    /// Atom of each constant block.
    pub block_atoms: Vec<usize>,
    /// Block of each constant (a restricted growth string).
    pub const_block: Vec<usize>,
}

impl Profile {
    pub fn domain_size(&self) -> usize {
        self.counts.iter().sum()
    }

    /// Number of constant blocks.
    pub fn block_count(&self) -> usize {
        self.block_atoms.len()
    }

    /// True when every atom can host its blocks (`n_a ≥ #blocks in a`);
    /// profiles violating this have weight zero.
    pub fn is_feasible(&self) -> bool {
        let mut need = vec![0usize; self.counts.len()];
        for &a in &self.block_atoms {
            need[a] += 1;
        }
        need.iter().zip(&self.counts).all(|(&k, &n)| k <= n)
    }
}

/// An element descriptor (see module docs).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum ElemRef {
    Block(usize),
    Fresh(usize),
}

/// The value of a proportion expression on a profile.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum PValue {
    Def(Rat),
    Undef,
}

impl PValue {
    fn map2(self, other: PValue, f: impl FnOnce(Rat, Rat) -> Rat) -> PValue {
        match (self, other) {
            (PValue::Def(a), PValue::Def(b)) => PValue::Def(f(a, b)),
            _ => PValue::Undef,
        }
    }
}

/// Reusable evaluator over profiles of a fixed unary vocabulary.
pub struct ProfileEvaluator<'a> {
    vocab: &'a Vocabulary,
    tol: &'a Tolerances,
    profile: Profile,
    blocks_in_atom: Vec<usize>,
    valuation: Vec<Option<ElemRef>>,
    /// Atoms of the active fresh descriptors, indexed by slot.
    fresh: Vec<usize>,
}

impl<'a> ProfileEvaluator<'a> {
    pub fn new(
        vocab: &'a Vocabulary,
        tol: &'a Tolerances,
        profile: Profile,
    ) -> ProfileEvaluator<'a> {
        assert!(
            vocab.is_unary(),
            "profile evaluation requires a unary vocabulary"
        );
        let mut blocks_in_atom = vec![0usize; profile.counts.len()];
        for &a in &profile.block_atoms {
            blocks_in_atom[a] += 1;
        }
        ProfileEvaluator {
            vocab,
            tol,
            profile,
            blocks_in_atom,
            valuation: vec![None; vocab.var_count()],
            fresh: Vec::new(),
        }
    }

    /// Swaps in a new atom-count vector (same block structure).
    pub fn set_counts(&mut self, counts: &[usize]) {
        debug_assert_eq!(counts.len(), self.profile.counts.len());
        self.profile.counts.copy_from_slice(counts);
    }

    /// Replaces the whole profile (block structure may change).
    pub fn set_profile(&mut self, profile: Profile) {
        self.blocks_in_atom = vec![0usize; profile.counts.len()];
        for &a in &profile.block_atoms {
            self.blocks_in_atom[a] += 1;
        }
        self.profile = profile;
    }

    pub fn profile(&self) -> &Profile {
        &self.profile
    }

    fn atom_of(&self, e: ElemRef) -> usize {
        match e {
            ElemRef::Block(b) => self.profile.block_atoms[b],
            ElemRef::Fresh(s) => self.fresh[s],
        }
    }

    /// Spare capacity of atom `a` once blocks and active fresh descriptors
    /// are accounted for.
    fn available(&self, a: usize) -> usize {
        let named = self.blocks_in_atom[a] + self.fresh.iter().filter(|&&x| x == a).count();
        self.profile.counts[a].saturating_sub(named)
    }

    fn resolve_term(&self, t: &Term) -> ElemRef {
        match t {
            Term::Var(v) => self.valuation[v.index()]
                .unwrap_or_else(|| panic!("unbound variable `{}`", self.vocab.var_name(*v))),
            Term::Const(c) => ElemRef::Block(self.profile.const_block[c.index()]),
            Term::App(..) => panic!("function symbols are not part of the unary fragment"),
        }
    }

    pub fn eval(&mut self, f: &Formula) -> bool {
        match f {
            Formula::True => true,
            Formula::False => false,
            Formula::Pred(p, args) => {
                assert_eq!(args.len(), 1, "unary fragment");
                let e = self.resolve_term(&args[0]);
                atom_satisfies(self.atom_of(e), p.index())
            }
            Formula::TermEq(a, b) => self.resolve_term(a) == self.resolve_term(b),
            Formula::Not(g) => !self.eval(g),
            Formula::And(parts) => parts.iter().all(|g| self.eval(g)),
            Formula::Or(parts) => parts.iter().any(|g| self.eval(g)),
            Formula::Implies(a, b) => !self.eval(a) || self.eval(b),
            Formula::Iff(a, b) => self.eval(a) == self.eval(b),
            Formula::Forall(v, g) => self.eval_quant(*v, g, false),
            Formula::Exists(v, g) => self.eval_quant(*v, g, true),
            Formula::Cmp(lhs, op, rhs) => {
                let l = self.eval_prop(lhs);
                let r = self.eval_prop(rhs);
                match (l, r) {
                    (PValue::Def(a), PValue::Def(b)) => match op {
                        CmpOp::ApproxEq(t) => a.approx_eq(b, self.tol.get(*t)),
                        CmpOp::ApproxLeq(t) => a.approx_leq(b, self.tol.get(*t)),
                        CmpOp::Eq => a == b,
                        CmpOp::Leq => a <= b,
                    },
                    _ => true, // measure-zero convention
                }
            }
        }
    }

    fn eval_quant(&mut self, v: VarId, g: &Formula, existential: bool) -> bool {
        // Case 1: the named blocks.
        for b in 0..self.profile.block_count() {
            if self.eval_bound(v, ElemRef::Block(b), g) == existential {
                return existential;
            }
        }
        // Case 2: elements already pinned by an enclosing binder.
        for s in 0..self.fresh.len() {
            if self.eval_bound(v, ElemRef::Fresh(s), g) == existential {
                return existential;
            }
        }
        // Case 3: a new anonymous element of each atom with spare capacity.
        for a in 0..self.profile.counts.len() {
            if self.available(a) == 0 {
                continue;
            }
            self.fresh.push(a);
            let slot = self.fresh.len() - 1;
            let r = self.eval_bound(v, ElemRef::Fresh(slot), g);
            self.fresh.pop();
            if r == existential {
                return existential;
            }
        }
        !existential
    }

    fn eval_bound(&mut self, v: VarId, e: ElemRef, g: &Formula) -> bool {
        let prev = self.valuation[v.index()].replace(e);
        let r = self.eval(g);
        self.valuation[v.index()] = prev;
        r
    }

    pub fn eval_prop(&mut self, e: &PropExpr) -> PValue {
        match e {
            PropExpr::Rat(r) => PValue::Def(*r),
            PropExpr::Prop { body, cond, vars } => {
                let (hits, cond_count) = self.count_tuples(vars, body, cond.as_deref());
                match cond {
                    None => {
                        let n = self.profile.domain_size() as i128;
                        let total = n
                            .checked_pow(vars.len() as u32)
                            .expect("tuple space too large");
                        PValue::Def(Rat::new(hits, total))
                    }
                    Some(_) => {
                        if cond_count == 0 {
                            PValue::Undef
                        } else {
                            PValue::Def(Rat::new(hits, cond_count))
                        }
                    }
                }
            }
            PropExpr::Add(a, b) => {
                let x = self.eval_prop(a);
                let y = self.eval_prop(b);
                x.map2(y, |p, q| p + q)
            }
            PropExpr::Sub(a, b) => {
                let x = self.eval_prop(a);
                let y = self.eval_prop(b);
                x.map2(y, |p, q| p - q)
            }
            PropExpr::Mul(a, b) => {
                let x = self.eval_prop(a);
                let y = self.eval_prop(b);
                x.map2(y, |p, q| p * q)
            }
        }
    }

    /// Counts tuples satisfying `body ∧ cond` and `cond` over the subscript
    /// variables, by case analysis with multiplicities.
    fn count_tuples(
        &mut self,
        vars: &[VarId],
        body: &Formula,
        cond: Option<&Formula>,
    ) -> (i128, i128) {
        let Some((&v, rest)) = vars.split_first() else {
            let in_cond = match cond {
                Some(c) => self.eval(c),
                None => true,
            };
            if !in_cond {
                return (0, 0);
            }
            let hit = self.eval(body);
            return (hit as i128, 1);
        };
        let mut hits: i128 = 0;
        let mut conds: i128 = 0;

        for b in 0..self.profile.block_count() {
            let prev = self.valuation[v.index()].replace(ElemRef::Block(b));
            let (h, c) = self.count_tuples(rest, body, cond);
            self.valuation[v.index()] = prev;
            hits += h;
            conds += c;
        }
        for s in 0..self.fresh.len() {
            let prev = self.valuation[v.index()].replace(ElemRef::Fresh(s));
            let (h, c) = self.count_tuples(rest, body, cond);
            self.valuation[v.index()] = prev;
            hits += h;
            conds += c;
        }
        for a in 0..self.profile.counts.len() {
            let avail = self.available(a) as i128;
            if avail == 0 {
                continue;
            }
            self.fresh.push(a);
            let slot = self.fresh.len() - 1;
            let prev = self.valuation[v.index()].replace(ElemRef::Fresh(slot));
            let (h, c) = self.count_tuples(rest, body, cond);
            self.valuation[v.index()] = prev;
            self.fresh.pop();
            hits += avail * h;
            conds += avail * c;
        }
        (hits, conds)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rw_logic::parse_formula;

    fn setup() -> (Vocabulary, Tolerances) {
        let mut v = Vocabulary::new();
        v.pred("Bird", 1).unwrap(); // bit 0
        v.pred("Fly", 1).unwrap(); // bit 1
        v.constant("Tweety").unwrap();
        (v, Tolerances::uniform(Rat::new(1, 10)))
    }

    /// Atoms: 0 = ¬B¬F, 1 = B¬F, 2 = ¬BF, 3 = BF.
    fn profile(counts: [usize; 4], tweety_atom: usize) -> Profile {
        Profile {
            counts: counts.to_vec(),
            block_atoms: vec![tweety_atom],
            const_block: vec![0],
        }
    }

    #[test]
    fn feasibility() {
        assert!(profile([1, 0, 0, 0], 0).is_feasible());
        assert!(!profile([0, 1, 0, 0], 0).is_feasible());
    }

    #[test]
    fn predicates_on_constants() {
        let (mut v, t) = setup();
        let f = parse_formula(&mut v, "Bird(Tweety) & Fly(Tweety)").unwrap();
        let g = parse_formula(&mut v, "!Bird(Tweety)").unwrap();
        let p = profile([5, 2, 0, 3], 3);
        let mut ev = ProfileEvaluator::new(&v, &t, p);
        assert!(ev.eval(&f));
        assert!(!ev.eval(&g));
    }

    #[test]
    fn quantifiers_over_profiles() {
        let (mut v, t) = setup();
        // 5 non-birds, 2 flightless birds, 3 flying birds; Tweety flies.
        let cases = [
            ("exists x (Bird(x) & !Fly(x))", true),
            ("forall x (Fly(x) => Bird(x))", true),
            ("forall x (Bird(x) => Fly(x))", false),
            ("exists x (!Bird(x) & Fly(x))", false),
        ];
        let parsed: Vec<_> = cases
            .iter()
            .map(|(src, e)| (parse_formula(&mut v, src).unwrap(), *src, *e))
            .collect();
        let p = profile([5, 2, 0, 3], 3);
        let mut ev = ProfileEvaluator::new(&v, &t, p);
        for (f, src, expected) in parsed {
            assert_eq!(ev.eval(&f), expected, "{src}");
        }
    }

    #[test]
    fn proportions_over_profiles() {
        let (mut v, t) = setup();
        let cases = [
            ("||Bird(x)||_x = 1/2", true),               // 5 of 10
            ("||Fly(x) | Bird(x)||_x = 3/5", true),      // 3 of 5
            ("||Fly(x) | Bird(x)||_x ~=_1 0.5", true),   // |3/5 - 1/2| = 1/10 within tau
            ("||Fly(x) | Bird(x)||_x ~=_1 0.45", false), // 3/20 > 1/10
            ("||Fly(x)||_x <~_1 0.25", true),            // 3/10 - 1/4 = 1/20 within tau
        ];
        let parsed: Vec<_> = cases
            .iter()
            .map(|(src, e)| (parse_formula(&mut v, src).unwrap(), *src, *e))
            .collect();
        let p = profile([5, 2, 0, 3], 3);
        let mut ev = ProfileEvaluator::new(&v, &t, p);
        for (f, src, expected) in parsed {
            assert_eq!(ev.eval(&f), expected, "{src}");
        }
    }

    #[test]
    fn equality_and_blocks() {
        let mut v = Vocabulary::new();
        v.pred("P", 1).unwrap();
        v.constant("A").unwrap();
        v.constant("B").unwrap();
        let t = Tolerances::uniform(Rat::new(1, 10));
        let f = parse_formula(&mut v, "A = B").unwrap();
        let g = parse_formula(&mut v, "exists x (x = A & P(x))").unwrap();
        // A and B in the same block (equal), both in atom 1 (P).
        let p = Profile {
            counts: vec![3, 2],
            block_atoms: vec![1],
            const_block: vec![0, 0],
        };
        let mut ev = ProfileEvaluator::new(&v, &t, p);
        assert!(ev.eval(&f));
        // Distinct blocks.
        let p2 = Profile {
            counts: vec![3, 2],
            block_atoms: vec![1, 1],
            const_block: vec![0, 1],
        };
        ev.set_profile(p2);
        assert!(!ev.eval(&f));
        assert!(ev.eval(&g));
    }

    #[test]
    fn multi_variable_counting_respects_distinctness() {
        // ||x = y||_{x,y} must equal 1/N.
        let mut v = Vocabulary::new();
        v.pred("P", 1).unwrap();
        let t = Tolerances::uniform(Rat::new(1, 10));
        let f = parse_formula(&mut v, "||x = y||_{x,y} = 1/7").unwrap();
        // Pairs of distinct elements both satisfying P: 4*3 of 49.
        let g = parse_formula(&mut v, "||P(x) & P(y) & !(x = y)||_{x,y} = 12/49").unwrap();
        let p = Profile {
            counts: vec![3, 4],
            block_atoms: vec![],
            const_block: vec![],
        };
        let mut ev = ProfileEvaluator::new(&v, &t, p);
        assert!(ev.eval(&f));
        assert!(ev.eval(&g));
    }

    #[test]
    fn nested_quantifier_distinctness() {
        // With 2 elements in atom P: exists x exists y (P(x) & P(y) & x != y)
        // must hold; with only 1 it must not.
        let mut v = Vocabulary::new();
        v.pred("P", 1).unwrap();
        let t = Tolerances::uniform(Rat::new(1, 10));
        let f = parse_formula(&mut v, "exists x (exists y (P(x) & P(y) & !(x = y)))").unwrap();
        let p2 = Profile {
            counts: vec![1, 2],
            block_atoms: vec![],
            const_block: vec![],
        };
        let mut ev = ProfileEvaluator::new(&v, &t, p2);
        assert!(ev.eval(&f));
        let p1 = Profile {
            counts: vec![2, 1],
            block_atoms: vec![],
            const_block: vec![],
        };
        ev.set_profile(p1);
        assert!(!ev.eval(&f));
    }

    #[test]
    fn conditional_on_empty_class_is_undef() {
        let (mut v, t) = setup();
        let f = parse_formula(&mut v, "||Fly(x) | Bird(x)||_x ~=_1 1").unwrap();
        let g = parse_formula(&mut v, "||Fly(x) | Bird(x)||_x ~=_1 0").unwrap();
        let p = profile([10, 0, 0, 0], 0);
        let mut ev = ProfileEvaluator::new(&v, &t, p);
        assert!(ev.eval(&f)); // vacuous: no birds
        assert!(ev.eval(&g)); // equally vacuous
    }
}
