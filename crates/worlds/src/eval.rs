//! The `L≈` model checker: `(W, V, τ⃗) ⊨ φ` and exact rational evaluation of
//! proportion expressions (paper §4.1–4.2).
//!
//! Two semantic subtleties are implemented exactly as the paper prescribes:
//!
//! * **Conditional proportions are primitive.** `||φ | ψ||_x̄` evaluates to
//!   `|φ∧ψ| / |ψ|` when `|ψ| > 0` and is *undefined* otherwise; any
//!   comparison mentioning an undefined proportion is **true** (the
//!   convention that makes `∥ψ|θ∥ ≈ α` vacuous on measure-zero conditions).
//!   Example 4.2 of the paper shows why multiplying out across `≈` instead
//!   would be unsound.
//! * **Approximate comparisons are decided exactly.** Proportions inside a
//!   world of size `N` are rationals with denominator `N^k`; tolerances are
//!   rationals; `ζ ≈_i ζ'` means `|ζ - ζ'| ≤ τ_i` with exact arithmetic, so
//!   boundary cases (which matter when τ-sweeping toward the limit) are never
//!   decided by floating-point rounding.

use crate::world::World;
use rw_logic::ast::{CmpOp, Formula, PropExpr, Term};
use rw_logic::{Tolerances, VarId, Vocabulary};
use rw_util::Rat;

/// The value of a proportion expression: a rational, or undefined (a
/// conditional proportion whose condition has measure zero).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum PropValue {
    Def(Rat),
    Undef,
}

impl PropValue {
    pub fn map2(self, other: PropValue, f: impl FnOnce(Rat, Rat) -> Rat) -> PropValue {
        match (self, other) {
            (PropValue::Def(a), PropValue::Def(b)) => PropValue::Def(f(a, b)),
            _ => PropValue::Undef,
        }
    }
}

/// A reusable evaluation context over one world.
pub struct Evaluator<'a> {
    world: &'a World,
    vocab: &'a Vocabulary,
    tol: &'a Tolerances,
    valuation: Vec<Option<usize>>,
}

impl<'a> Evaluator<'a> {
    pub fn new(world: &'a World, vocab: &'a Vocabulary, tol: &'a Tolerances) -> Evaluator<'a> {
        Evaluator::with_valuation(world, vocab, tol, Vec::new())
    }

    /// As [`Evaluator::new`], reusing a caller-owned valuation buffer so
    /// hot loops (world enumeration, per-world cross-checks) evaluate
    /// without a fresh allocation per world. Recover the buffer with
    /// [`Evaluator::into_valuation`].
    pub fn with_valuation(
        world: &'a World,
        vocab: &'a Vocabulary,
        tol: &'a Tolerances,
        mut valuation: Vec<Option<usize>>,
    ) -> Evaluator<'a> {
        valuation.clear();
        valuation.resize(vocab.var_count(), None);
        Evaluator {
            world,
            vocab,
            tol,
            valuation,
        }
    }

    /// Releases the valuation buffer for reuse by the next
    /// [`Evaluator::with_valuation`] call.
    pub fn into_valuation(self) -> Vec<Option<usize>> {
        self.valuation
    }

    /// Binds a variable, returning the previous binding for restoration.
    fn bind(&mut self, v: VarId, elem: usize) -> Option<usize> {
        self.valuation[v.index()].replace(elem)
    }

    fn restore(&mut self, v: VarId, prev: Option<usize>) {
        self.valuation[v.index()] = prev;
    }

    fn eval_term(&self, t: &Term) -> usize {
        match t {
            Term::Var(v) => self.valuation[v.index()]
                .unwrap_or_else(|| panic!("unbound variable `{}`", self.vocab.var_name(*v))),
            Term::Const(c) => self.world.const_denotation(c.index()),
            Term::App(f, args) => {
                // Functions of arity ≤ 4 cover everything in practice; use a
                // small stack buffer to avoid allocating per application.
                let mut buf = [0usize; 8];
                assert!(args.len() <= buf.len(), "function arity too large");
                for (i, a) in args.iter().enumerate() {
                    buf[i] = self.eval_term(a);
                }
                self.world.apply_func(f.index(), &buf[..args.len()])
            }
        }
    }

    pub fn eval(&mut self, f: &Formula) -> bool {
        match f {
            Formula::True => true,
            Formula::False => false,
            Formula::Pred(p, args) => {
                let mut buf = [0usize; 8];
                assert!(args.len() <= buf.len(), "predicate arity too large");
                for (i, a) in args.iter().enumerate() {
                    buf[i] = self.eval_term(a);
                }
                self.world.rel(*p).contains(&buf[..args.len()])
            }
            Formula::TermEq(a, b) => self.eval_term(a) == self.eval_term(b),
            Formula::Not(g) => !self.eval(g),
            Formula::And(parts) => parts.iter().all(|g| self.eval(g)),
            Formula::Or(parts) => parts.iter().any(|g| self.eval(g)),
            Formula::Implies(a, b) => !self.eval(a) || self.eval(b),
            Formula::Iff(a, b) => self.eval(a) == self.eval(b),
            Formula::Forall(v, g) | Formula::Exists(v, g) => {
                // `∀` stops at a counterexample, `∃` at a witness.
                let witness = matches!(f, Formula::Exists(..));
                let prev = self.valuation[v.index()];
                let mut found = false;
                for e in 0..self.world.domain_size() {
                    self.valuation[v.index()] = Some(e);
                    if self.eval(g) == witness {
                        found = true;
                        break;
                    }
                }
                self.restore(*v, prev);
                found == witness
            }
            Formula::Cmp(lhs, op, rhs) => {
                let l = self.eval_prop(lhs);
                let r = self.eval_prop(rhs);
                match (l, r) {
                    (PropValue::Def(a), PropValue::Def(b)) => decide(a, *op, b, self.tol),
                    // The measure-zero convention: comparisons touching an
                    // undefined conditional proportion hold vacuously.
                    _ => true,
                }
            }
        }
    }

    pub fn eval_prop(&mut self, e: &PropExpr) -> PropValue {
        match e {
            PropExpr::Rat(r) => PropValue::Def(*r),
            PropExpr::Prop { body, cond, vars } => {
                self.eval_proportion(body, cond.as_deref(), vars)
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

    fn eval_proportion(
        &mut self,
        body: &Formula,
        cond: Option<&Formula>,
        vars: &[VarId],
    ) -> PropValue {
        let n = self.world.domain_size();
        let k = vars.len();
        let total = (n as i128)
            .checked_pow(k as u32)
            .expect("proportion tuple space too large");
        let mut body_count: i128 = 0;
        let mut cond_count: i128 = 0;

        // Save outer bindings of the subscript variables (they are rebound).
        let saved: Vec<Option<usize>> = vars.iter().map(|v| self.valuation[v.index()]).collect();

        // Odometer over n^k assignments.
        let mut assignment = vec![0usize; k];
        loop {
            for (i, v) in vars.iter().enumerate() {
                self.valuation[v.index()] = Some(assignment[i]);
            }
            let in_cond = match cond {
                Some(c) => self.eval(c),
                None => true,
            };
            if in_cond {
                cond_count += 1;
                if self.eval(body) {
                    body_count += 1;
                }
            }
            // Advance odometer.
            let mut i = k;
            loop {
                if i == 0 {
                    break;
                }
                i -= 1;
                assignment[i] += 1;
                if assignment[i] < n {
                    break;
                }
                assignment[i] = 0;
                if i == 0 {
                    i = usize::MAX; // signal done
                    break;
                }
            }
            if k == 0 || i == usize::MAX {
                break;
            }
        }

        for (v, s) in vars.iter().zip(saved) {
            self.valuation[v.index()] = s;
        }

        match cond {
            None => PropValue::Def(Rat::new(body_count, total)),
            Some(_) => {
                if cond_count == 0 {
                    PropValue::Undef
                } else {
                    PropValue::Def(Rat::new(body_count, cond_count))
                }
            }
        }
    }
}

/// `a ⋈ b` for two defined proportion values under `tol`, decided
/// exactly — the comparison semantics every counting engine shares.
pub(crate) fn decide(a: Rat, op: CmpOp, b: Rat, tol: &Tolerances) -> bool {
    decide_at(a, op, b, tolerance(op, tol))
}

/// The tolerance `op` compares under: `τ_i` for `≈_i` and `⪯_i`, zero
/// (and unread) for the exact operators.
pub(crate) fn tolerance(op: CmpOp, tol: &Tolerances) -> Rat {
    match op {
        CmpOp::ApproxEq(t) | CmpOp::ApproxLeq(t) => tol.get(t),
        CmpOp::Eq | CmpOp::Leq => Rat::ZERO,
    }
}

/// [`decide`] with `op`'s tolerance already resolved to `tau`
/// ([`tolerance`]), for compiled programs that look it up once.
pub(crate) fn decide_at(a: Rat, op: CmpOp, b: Rat, tau: Rat) -> bool {
    match op {
        CmpOp::ApproxEq(_) => a.approx_eq(b, tau),
        CmpOp::ApproxLeq(_) => a.approx_leq(b, tau),
        CmpOp::Eq => a == b,
        CmpOp::Leq => a <= b,
    }
}

/// Evaluates a formula under an explicit valuation (variable → element).
pub fn evaluate(
    world: &World,
    vocab: &Vocabulary,
    tol: &Tolerances,
    f: &Formula,
    valuation: &[(VarId, usize)],
) -> bool {
    let mut ev = Evaluator::new(world, vocab, tol);
    for (v, e) in valuation {
        ev.bind(*v, *e);
    }
    ev.eval(f)
}

/// Evaluates a closed formula.
pub fn evaluate_closed(world: &World, vocab: &Vocabulary, tol: &Tolerances, f: &Formula) -> bool {
    Evaluator::new(world, vocab, tol).eval(f)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rw_logic::parse_formula;

    fn tol() -> Tolerances {
        Tolerances::uniform(Rat::new(1, 10))
    }

    /// Builds a world with Bird = {0,1,2}, Fly = {0,1}, Penguin = {2} over N=4.
    fn bird_world() -> (Vocabulary, World) {
        let mut v = Vocabulary::new();
        let bird = v.pred("Bird", 1).unwrap();
        let fly = v.pred("Fly", 1).unwrap();
        let peng = v.pred("Penguin", 1).unwrap();
        v.constant("Tweety").unwrap();
        let mut w = World::empty(&v, 4);
        for e in [0, 1, 2] {
            w.rel_mut(bird).set(&[e], true);
        }
        for e in [0, 1] {
            w.rel_mut(fly).set(&[e], true);
        }
        w.rel_mut(peng).set(&[2], true);
        w.set_const(0, 2); // Tweety is the penguin
        (v, w)
    }

    #[test]
    fn atoms_and_connectives() {
        let (mut v, w) = bird_world();
        let t = tol();
        for (src, expected) in [
            ("Bird(Tweety)", true),
            ("Fly(Tweety)", false),
            ("Penguin(Tweety) & !Fly(Tweety)", true),
            ("Fly(Tweety) or Bird(Tweety)", true),
            ("Fly(Tweety) => Penguin(Tweety)", true),
            ("Bird(Tweety) <=> Penguin(Tweety)", true),
            ("Tweety = Tweety", true),
        ] {
            let f = parse_formula(&mut v, src).unwrap();
            assert_eq!(evaluate_closed(&w, &v, &t, &f), expected, "{src}");
        }
    }

    #[test]
    fn quantifiers() {
        let (mut v, w) = bird_world();
        let t = tol();
        for (src, expected) in [
            ("forall x (Penguin(x) => Bird(x))", true),
            ("forall x (Bird(x) => Fly(x))", false),
            ("exists x (Bird(x) & !Fly(x))", true),
            ("exists x (Penguin(x) & Fly(x))", false),
            ("exists! x (Penguin(x))", true),
            ("exists! x (Bird(x))", false),
        ] {
            let f = parse_formula(&mut v, src).unwrap();
            assert_eq!(evaluate_closed(&w, &v, &t, &f), expected, "{src}");
        }
    }

    #[test]
    fn unconditional_proportions() {
        let (mut v, w) = bird_world();
        let t = tol();
        // |Bird| = 3 of 4.
        let f = parse_formula(&mut v, "||Bird(x)||_x = 3/4").unwrap();
        assert!(evaluate_closed(&w, &v, &t, &f));
        // Approximate: within 1/10 of 0.7? |3/4 - 7/10| = 1/20 <= 1/10.
        let g = parse_formula(&mut v, "||Bird(x)||_x ~=_1 0.7").unwrap();
        assert!(evaluate_closed(&w, &v, &t, &g));
        let h = parse_formula(&mut v, "||Bird(x)||_x ~=_1 0.6").unwrap();
        assert!(!evaluate_closed(&w, &v, &t, &h));
    }

    #[test]
    fn conditional_proportions() {
        let (mut v, w) = bird_world();
        let t = tol();
        // 2 of 3 birds fly.
        let f = parse_formula(&mut v, "||Fly(x) | Bird(x)||_x = 2/3").unwrap();
        assert!(evaluate_closed(&w, &v, &t, &f));
        // 0 of 1 penguins fly.
        let g = parse_formula(&mut v, "||Fly(x) | Penguin(x)||_x ~=_1 0").unwrap();
        assert!(evaluate_closed(&w, &v, &t, &g));
    }

    #[test]
    fn measure_zero_condition_is_vacuous() {
        // A world must interpret the whole vocabulary, so intern Dragon
        // before building it (empty relation = no dragons).
        let mut v = Vocabulary::new();
        let fly = v.pred("Fly", 1).unwrap();
        v.pred("Dragon", 1).unwrap();
        let mut w = World::empty(&v, 4);
        w.rel_mut(fly).set(&[0], true);
        let t = tol();
        // No dragons: any statement about the proportion of fliers among
        // dragons holds vacuously, with every comparison operator.
        for src in [
            "||Fly(x) | Dragon(x)||_x ~=_1 1",
            "||Fly(x) | Dragon(x)||_x ~=_1 0",
            "||Fly(x) | Dragon(x)||_x = 0.37",
            "||Fly(x) | Dragon(x)||_x <= 0",
        ] {
            let f = parse_formula(&mut v, src).unwrap();
            assert!(evaluate_closed(&w, &v, &t, &f), "{src}");
        }
    }

    #[test]
    fn example_4_2_multiplying_out_is_wrong() {
        // Paper Example 4.2: ||Penguin||_x ~= 0 and ||Fly|Penguin||_x ~= 0.
        // In a world with 1 penguin (of 20) that flies, the multiplied-out
        // reading ||Fly & Penguin||_x ~= 0 holds but the primitive
        // conditional reading correctly fails.
        let mut v = Vocabulary::new();
        let peng = v.pred("Penguin", 1).unwrap();
        let fly = v.pred("Fly", 1).unwrap();
        let mut w = World::empty(&v, 20);
        w.rel_mut(peng).set(&[0], true);
        w.rel_mut(fly).set(&[0], true);
        let t = tol();

        let primitive = parse_formula(&mut v, "||Fly(x) | Penguin(x)||_x ~=_2 0").unwrap();
        assert!(!evaluate_closed(&w, &v, &t, &primitive));

        let multiplied = parse_formula(
            &mut v,
            "||Fly(x) & Penguin(x)||_x ~=_2 0 * ||Penguin(x)||_x",
        )
        .unwrap();
        assert!(evaluate_closed(&w, &v, &t, &multiplied));
    }

    #[test]
    fn multi_variable_proportions() {
        let mut v = Vocabulary::new();
        let likes = v.pred("Likes", 2).unwrap();
        let mut w = World::empty(&v, 3);
        w.rel_mut(likes).set(&[0, 1], true);
        w.rel_mut(likes).set(&[1, 2], true);
        w.rel_mut(likes).set(&[2, 2], true);
        let t = tol();
        let f = parse_formula(&mut v, "||Likes(x, y)||_{x,y} = 3/9").unwrap();
        assert!(evaluate_closed(&w, &v, &t, &f));
        // ||x = y||_{x,y} = 1/N.
        let g = parse_formula(&mut v, "||x = y||_{x,y} = 1/3").unwrap();
        assert!(evaluate_closed(&w, &v, &t, &g));
    }

    #[test]
    fn proportions_with_free_outer_variable() {
        // ||Likes(x, y)||_x with y free: fraction of x liking a fixed y.
        let mut v = Vocabulary::new();
        let likes = v.pred("Likes", 2).unwrap();
        let mut w = World::empty(&v, 3);
        w.rel_mut(likes).set(&[0, 1], true);
        w.rel_mut(likes).set(&[2, 1], true);
        let t = tol();
        let f = parse_formula(&mut v, "forall y (||Likes(x, y)||_x <= 2/3)").unwrap();
        assert!(evaluate_closed(&w, &v, &t, &f));
        let g = parse_formula(&mut v, "exists y (||Likes(x, y)||_x = 2/3)").unwrap();
        assert!(evaluate_closed(&w, &v, &t, &g));
    }

    #[test]
    fn nested_proportions() {
        // The "normally rises late" pattern: individuals x such that
        // ||Rises(x,y) | Day(y)||_y ~= 1.
        let mut v = Vocabulary::new();
        let day = v.pred("Day", 1).unwrap();
        let rises = v.pred("Rises", 2).unwrap();
        // Domain: 0,1 are days; 2,3 are people. Person 2 rises late both
        // days; person 3 never does.
        let mut w = World::empty(&v, 4);
        w.rel_mut(day).set(&[0], true);
        w.rel_mut(day).set(&[1], true);
        w.rel_mut(rises).set(&[2, 0], true);
        w.rel_mut(rises).set(&[2, 1], true);
        let t = tol();
        let f = parse_formula(&mut v, "|| ||Rises(x, y) | Day(y)||_y ~=_1 1 ||_x = 1/4").unwrap();
        assert!(evaluate_closed(&w, &v, &t, &f));
    }

    #[test]
    fn functions_in_terms() {
        let mut v = Vocabulary::new();
        let p = v.pred("P", 1).unwrap();
        v.func("Next", 1).unwrap();
        let mut w = World::empty(&v, 3);
        // Next = cyclic successor; P = {1}.
        for (a, b) in [(0, 1), (1, 2), (2, 0)] {
            w.func_table_mut(0)[a] = b;
        }
        w.rel_mut(p).set(&[1], true);
        let t = tol();
        let f = parse_formula(&mut v, "exists x (P(Next(x)) & !P(x))").unwrap();
        assert!(evaluate_closed(&w, &v, &t, &f));
        let g = parse_formula(&mut v, "forall x (P(Next(Next(Next(x)))) <=> P(x))").unwrap();
        assert!(evaluate_closed(&w, &v, &t, &g));
    }

    #[test]
    fn arithmetic_on_proportions() {
        let (mut v, w) = bird_world();
        let t = tol();
        let f = parse_formula(&mut v, "||Bird(x)||_x + ||Penguin(x)||_x = 1").unwrap();
        assert!(evaluate_closed(&w, &v, &t, &f)); // 3/4 + 1/4
        let g = parse_formula(
            &mut v,
            "||Fly(x) & Bird(x)||_x = ||Fly(x) | Bird(x)||_x * ||Bird(x)||_x",
        )
        .unwrap();
        assert!(evaluate_closed(&w, &v, &t, &g)); // 1/2 = 2/3 * 3/4
    }
}
