//! Knowledge-base classification and matching machinery for the theorem
//! engine.
//!
//! The paper's theorems are stated over KBs of particular *shapes*
//! (statistical statements, universal taxonomy facts, facts about
//! constants). This module classifies conjuncts into those shapes, keys
//! each statistic by [`canonical_formula_over`] (the answer cache's
//! canonical form, with the statistic's variables as its free positions),
//! and decides class subsumption/disjointness under the KB's universal
//! statements by atom-set reasoning.

use rw_logic::ast::{CmpOp, Formula, PropExpr, Term, TolId};
use rw_logic::canon::canonical_formula_over;
use rw_logic::{analysis, ConstId, FuncId, KnowledgeBase, PredId, Tolerances, VarId, Vocabulary};
use rw_unary::atoms::{atom_count, compile_atom_set, compile_atom_set_const};
use rw_unary::AtomSet;
use rw_util::Rat;
use rw_worlds::{evaluate_closed, World};
use std::collections::BTreeMap;
use std::sync::Arc;

/// Synthetic variables used for generalization during matching; never
/// interned, so a key may print them only as free positions of
/// [`canonical_formula_over`] (they have no name).
pub fn synthetic_var(i: usize) -> VarId {
    VarId(u32::MAX - 1 - i as u32)
}

/// A statistical statement `lo ⪯ ||body | cond||_vars ⪯ hi` (with `cond =
/// true` for unconditional proportions), merged from one or more comparison
/// conjuncts about the same proportion. Bounds are the *nominal* values
/// (the `τ → 0` limits of the comparisons).
#[derive(Clone, Debug)]
pub struct StatStatement {
    /// Indices (into the flattened conjunct list) that contributed.
    pub sources: Vec<usize>,
    pub body: Formula,
    pub cond: Formula,
    pub vars: Vec<VarId>,
    pub lo: Rat,
    pub hi: Rat,
    /// Tolerance indices used by the contributing comparisons.
    pub tols: Vec<TolId>,
    /// [`canonical_formula_over`] `body` and `vars`: the key a
    /// generalized query must equal to be this statement's subject.
    pub body_key: String,
    /// The same key of `cond`.
    pub cond_key: String,
    /// The class `cond` as an atom set, for single-variable statements
    /// whose condition is quantifier-free unary — compiled only when the
    /// KB has a [`Taxonomy`] (at most 16 predicates).
    pub class: Option<AtomSet>,
}

impl StatStatement {
    pub fn is_point(&self) -> bool {
        self.lo == self.hi
    }
}

/// A symbol one flattened conjunct mentions.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum Sym {
    Pred(PredId),
    Func(FuncId),
    Const(ConstId),
}

/// The shape of one flattened conjunct, as the ground-fact and
/// unique-names matchers need it.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum PartShape {
    /// `true`.
    True,
    /// A ground literal `P(c̄)` / `!P(c̄)` (modulo double negation).
    Literal,
    /// An equality between two constants.
    ConstEq(ConstId, ConstId),
    /// A comparison under a tolerance (`~=_i`, `<~_i`).
    TolerantCmp,
    /// Anything else.
    Other,
}

/// A conjunct-level classification of a knowledge base, indexed by
/// symbol so each theorem matcher visits only the conjuncts that mention
/// the query's constants and predicates.
///
/// Conjuncts are referred to by position in the flattened list (each
/// top-level conjunct split at `∧`). The formulas themselves stay in the
/// KB's shared conjunct list; the classification holds a handle to that
/// list, never a copy of it. Everything here depends on the conjuncts and
/// on the vocabulary's predicates and functions, not on its constants, so
/// it stays valid for any extension of the vocabulary by constants or
/// variables.
pub struct Classified {
    /// The KB's conjunct list (shared, not copied).
    source: Arc<Vec<Formula>>,
    /// The flattened index of each top-level conjunct's first part, then
    /// the number of flattened conjuncts.
    starts: Vec<u32>,
    shapes: Vec<PartShape>,
    /// Each flattened conjunct's symbols (`syms[sym_starts[i]..sym_starts[i + 1]]`,
    /// sorted).
    sym_starts: Vec<u32>,
    syms: Vec<Sym>,
    /// Flattened-conjunct indices mentioning each predicate / function /
    /// constant, ascending.
    by_pred: Vec<Vec<usize>>,
    by_func: Vec<Vec<usize>>,
    by_const: Vec<Vec<usize>>,
    /// The KB is visibly void: some ground literal is asserted both ways,
    /// some constant's facts contradict the universals (`∀x ¬P(x)` and
    /// `P(K)`), or some conjunct that mentions no symbol is false on
    /// every large enough domain (`false`, `∀x, y (x = y)`).
    pub void: bool,
    /// `void`, or some conjunct mentions no symbol but quantifies over
    /// the domain (`exists x, y (x != y)`): a statement about the domain
    /// size alone, which may void the KB without touching a query's
    /// symbols.
    pub voids_ground_facts: bool,
    /// Statistical statements (merged bounds).
    pub stats: Vec<StatStatement>,
    /// Flattened-conjunct indices that are part of some statistical statement.
    pub stat_sources: Vec<bool>,
    /// Universal conjuncts `∀x φ(x)` with quantifier-free unary bodies,
    /// compiled to allowed-atom sets.
    pub universals: Vec<(usize, AtomSet)>,
    /// Conjuncts recognized as `∃!x φ(x)` (desugared), with the inner body.
    pub exists_unique: Vec<(usize, Formula, VarId)>,
    /// Flattened-conjunct indices that are disjunctions, ascending.
    pub disjunctions: Vec<usize>,
    /// Class subsumption under the universals (`None` above 16
    /// predicates).
    pub taxonomy: Option<Taxonomy>,
}

impl Classified {
    /// The number of flattened conjuncts.
    pub fn len(&self) -> usize {
        *self.starts.last().expect("the total count") as usize
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The flattened conjunct at `idx`.
    pub fn part(&self, idx: usize) -> &Formula {
        let top = self.starts.partition_point(|&s| s as usize <= idx) - 1;
        &self.source[top].conjuncts()[idx - self.starts[top] as usize]
    }

    /// The flattened conjuncts, in order.
    pub fn parts(&self) -> impl Iterator<Item = &Formula> + '_ {
        self.source.iter().flat_map(Formula::conjuncts)
    }

    pub fn shape(&self, idx: usize) -> PartShape {
        self.shapes[idx]
    }

    /// The symbols conjunct `idx` mentions: predicates, then functions,
    /// then constants, each ascending.
    pub fn symbols_of(&self, idx: usize) -> &[Sym] {
        &self.syms[self.sym_starts[idx] as usize..self.sym_starts[idx + 1] as usize]
    }

    /// The number of distinct constants conjunct `idx` mentions.
    pub fn const_count(&self, idx: usize) -> usize {
        self.symbols_of(idx)
            .iter()
            .filter(|s| matches!(s, Sym::Const(_)))
            .count()
    }

    /// Conjuncts mentioning `sym`, ascending (none for a symbol the KB
    /// never uses, e.g. one a query introduced).
    pub fn mentioning(&self, sym: Sym) -> &[usize] {
        let list = match sym {
            Sym::Pred(p) => self.by_pred.get(p.index()),
            Sym::Func(f) => self.by_func.get(f.index()),
            Sym::Const(c) => self.by_const.get(c.index()),
        };
        list.map_or(&[], Vec::as_slice)
    }
}

/// The symbols of one conjunct in [`Classified`]'s sorted order.
pub(crate) fn sorted_symbols(f: &Formula) -> Vec<Sym> {
    let s = analysis::symbols(f);
    let preds = s.preds.into_iter().map(Sym::Pred);
    let funcs = s.funcs.into_iter().map(Sym::Func);
    preds
        .chain(funcs)
        .chain(s.consts.into_iter().map(Sym::Const))
        .collect()
}

fn part_shape(f: &Formula) -> PartShape {
    match f {
        Formula::True => PartShape::True,
        Formula::TermEq(Term::Const(a), Term::Const(b)) => PartShape::ConstEq(*a, *b),
        Formula::Cmp(_, op, _) if op.tolerance().is_some() => PartShape::TolerantCmp,
        _ if analysis::as_ground_literal(f).is_some() => PartShape::Literal,
        _ => PartShape::Other,
    }
}

/// Extracts `(x, φ)` from the desugared `∃x (φ ∧ ∀y (φ[y/x] ⇒ y = x))`.
pub fn match_exists_unique(f: &Formula, vocab: &Vocabulary) -> Option<(VarId, Formula)> {
    let Formula::Exists(x, body) = f else {
        return None;
    };
    // `Formula::and` splices a conjunction `φ` in: the guard is the last
    // conjunct and `φ` the rest.
    let (Formula::Forall(y, imp), phi) = body.conjuncts().split_last()? else {
        return None;
    };
    let Formula::Implies(phi_y, eq) = imp.as_ref() else {
        return None;
    };
    let (vx, vy) = (Term::Var(*x), Term::Var(*y));
    let ok_eq = matches!(eq.as_ref(), Formula::TermEq(l, r)
        if (*l == vy && *r == vx) || (*l == vx && *r == vy));
    let phi = Formula::conjoin(phi.iter().cloned());
    let same = || {
        canonical_formula_over(vocab, &phi, &[*x]) == canonical_formula_over(vocab, phi_y, &[*y])
    };
    (ok_eq && same()).then_some((*x, phi))
}

/// Classifies a knowledge base's flattened conjuncts and indexes them by
/// symbol.
pub fn classify(kb: &KnowledgeBase) -> Classified {
    let vocab = kb.vocab();
    let source = Arc::clone(kb.shared_conjuncts());
    let mut starts = Vec::with_capacity(source.len() + 1);
    let mut conjuncts = Vec::new();
    for c in source.iter() {
        starts.push(conjuncts.len() as u32);
        conjuncts.extend(c.conjuncts());
    }
    starts.push(conjuncts.len() as u32);
    let mut stats_map: BTreeMap<String, StatStatement> = BTreeMap::new();
    let mut stat_sources = vec![false; conjuncts.len()];
    let mut universals = Vec::new();
    let mut exists_unique = Vec::new();
    let mut disjunctions = Vec::new();
    let mut shapes = Vec::with_capacity(conjuncts.len());
    let mut sym_starts = Vec::with_capacity(conjuncts.len() + 1);
    let mut syms = Vec::new();
    let mut by_pred = vec![Vec::new(); vocab.pred_count()];
    let mut by_func = vec![Vec::new(); vocab.func_count()];
    let mut by_const = vec![Vec::new(); vocab.const_count()];
    let mut literals: BTreeMap<(PredId, Vec<ConstId>), bool> = BTreeMap::new();
    let mut void = false;
    let mut voids_ground_facts = false;

    for (idx, &f) in conjuncts.iter().enumerate() {
        let shape = part_shape(f);
        shapes.push(shape);
        let own = sorted_symbols(f);
        sym_starts.push(syms.len() as u32);
        for &sym in &own {
            match sym {
                Sym::Pred(p) => by_pred[p.index()].push(idx),
                Sym::Func(g) => by_func[g.index()].push(idx),
                Sym::Const(c) => by_const[c.index()].push(idx),
            }
        }
        if own.is_empty() && shape != PartShape::True {
            voids_ground_facts = true;
            void |= fails_on_every_large_domain(vocab, f);
        }
        syms.extend(own);
        if let Some((p, args, value)) = analysis::as_ground_literal(f) {
            if literals.insert((p, args), value) == Some(!value) {
                voids_ground_facts = true;
                void = true;
            }
        }

        if matches!(f, Formula::Or(_)) {
            disjunctions.push(idx);
        }
        if let Some((v, inner)) = match_exists_unique(f, vocab) {
            exists_unique.push((idx, inner, v));
            continue;
        }
        match f {
            Formula::Forall(v, body) if vocab.pred_count() <= 16 => {
                if let Some(s) = compile_atom_set(body, *v, vocab) {
                    universals.push((idx, s));
                }
            }
            Formula::Cmp(lhs, op, rhs) => {
                if let Some((PropExpr::Prop { body, cond, vars }, bound, prop_on_left)) =
                    split_comparison(lhs, rhs)
                {
                    let cond_f = cond
                        .as_ref()
                        .map(|c| c.as_ref().clone())
                        .unwrap_or(Formula::True);
                    let body_key = canonical_formula_over(vocab, body, vars);
                    let cond_key = canonical_formula_over(vocab, &cond_f, vars);
                    let key = format!("{body_key}|{cond_key}#{}", vars.len());
                    let entry = stats_map.entry(key).or_insert_with(|| StatStatement {
                        sources: Vec::new(),
                        body: body.as_ref().clone(),
                        cond: cond_f,
                        vars: vars.clone(),
                        lo: Rat::ZERO,
                        hi: Rat::ONE,
                        tols: Vec::new(),
                        body_key,
                        cond_key,
                        class: None,
                    });
                    entry.sources.push(idx);
                    stat_sources[idx] = true;
                    if let Some(t) = op.tolerance() {
                        entry.tols.push(t);
                    }
                    match (op, prop_on_left) {
                        (CmpOp::ApproxEq(_) | CmpOp::Eq, _) => {
                            entry.lo = entry.lo.max(bound);
                            entry.hi = entry.hi.min(bound);
                        }
                        // prop ⪯ bound: upper bound.
                        (CmpOp::ApproxLeq(_) | CmpOp::Leq, true) => {
                            entry.hi = entry.hi.min(bound);
                        }
                        // bound ⪯ prop: lower bound.
                        (CmpOp::ApproxLeq(_) | CmpOp::Leq, false) => {
                            entry.lo = entry.lo.max(bound);
                        }
                    }
                }
            }
            _ => {}
        }
    }
    sym_starts.push(syms.len() as u32);

    // Complement normalization: `||¬φ|ψ|| ∈ [lo, hi]` is the same statement
    // as `||φ|ψ|| ∈ [1-hi, 1-lo]` (defaults `A ->_i !B` must be visible as
    // statistics about `B`). Derived statements keep their sources.
    let mut stats: Vec<StatStatement> = stats_map.into_values().collect();
    let derived: Vec<StatStatement> = stats
        .iter()
        .map(|s| {
            let body = match &s.body {
                Formula::Not(inner) => inner.as_ref().clone(),
                other => Formula::not(other.clone()),
            };
            StatStatement {
                sources: s.sources.clone(),
                body_key: canonical_formula_over(vocab, &body, &s.vars),
                body,
                cond: s.cond.clone(),
                vars: s.vars.clone(),
                lo: Rat::ONE - s.hi,
                hi: Rat::ONE - s.lo,
                tols: s.tols.clone(),
                cond_key: s.cond_key.clone(),
                class: None,
            }
        })
        .collect();
    stats.extend(derived);

    let taxonomy = Taxonomy::from_universals(&universals, vocab);
    if taxonomy.is_some() {
        for s in stats.iter_mut().filter(|s| s.vars.len() == 1) {
            s.class = compile_atom_set(&s.cond, s.vars[0], vocab);
        }
    }

    let mut cls = Classified {
        starts,
        source,
        shapes,
        sym_starts,
        syms,
        by_pred,
        by_func,
        by_const,
        void,
        voids_ground_facts,
        stats,
        stat_sources,
        universals,
        exists_unique,
        disjunctions,
        taxonomy,
    };
    // Facts about one constant that no atom the universals allow
    // satisfies (`∀x ¬P(x)` and `P(K)`) leave the KB without models.
    if !cls.void && !cls.universals.is_empty() {
        if let Some(tax) = &cls.taxonomy {
            let forbidden = vocab
                .consts()
                .any(|c| !tax.satisfiable(&const_atom_set(&cls, c, vocab)));
            cls.void = forbidden;
            cls.voids_ground_facts |= forbidden;
        }
    }
    cls
}

/// Deepest quantifier nesting [`fails_on_every_large_domain`] evaluates:
/// the evaluation walks `d^d` valuations.
const MAX_EQUALITY_DEPTH: usize = 6;

/// Is `f`, a conjunct that mentions no symbol, false on every domain
/// from some size on? Without proportions its only vocabulary is `=`,
/// and such a sentence of quantifier depth `d` has one truth value on
/// every domain of size at least `d` (no `d`-round game tells two such
/// sets apart), so one evaluation at size `max(d, 1)` decides it.
/// Sentences with proportions, or deeper than [`MAX_EQUALITY_DEPTH`],
/// are left to the semantic stages.
fn fails_on_every_large_domain(vocab: &Vocabulary, f: &Formula) -> bool {
    match equality_depth(f) {
        Some(d) if d <= MAX_EQUALITY_DEPTH => {
            // No proportion reads the tolerances.
            let tol = Tolerances::uniform(Rat::ONE);
            !evaluate_closed(&World::empty(vocab, d.max(1)), vocab, &tol, f)
        }
        _ => false,
    }
}

/// The quantifier depth of a proportion-free formula; `None` when `f`
/// has a proportion.
fn equality_depth(f: &Formula) -> Option<usize> {
    match f {
        Formula::Cmp(..) => None,
        Formula::Forall(_, g) | Formula::Exists(_, g) => Some(equality_depth(g)? + 1),
        Formula::Not(g) => equality_depth(g),
        Formula::And(parts) | Formula::Or(parts) => parts
            .iter()
            .try_fold(0, |d, g| Some(d.max(equality_depth(g)?))),
        Formula::Implies(a, b) | Formula::Iff(a, b) => {
            Some(equality_depth(a)?.max(equality_depth(b)?))
        }
        Formula::True | Formula::False | Formula::Pred(..) | Formula::TermEq(..) => Some(0),
    }
}

/// Splits a comparison into (proportion expression, rational bound,
/// prop-on-left flag) when one side is a proportion and the other a rational.
fn split_comparison<'a>(lhs: &'a PropExpr, rhs: &'a PropExpr) -> Option<(&'a PropExpr, Rat, bool)> {
    match (lhs, rhs) {
        (p @ PropExpr::Prop { .. }, PropExpr::Rat(r)) => Some((p, *r, true)),
        (PropExpr::Rat(r), p @ PropExpr::Prop { .. }) => Some((p, *r, false)),
        _ => None,
    }
}

/// Class subsumption and disjointness under the KB's universal statements,
/// decided over the unary-atom space.
pub struct Taxonomy {
    pub atoms: usize,
    /// Atoms consistent with every (unary, quantifier-free) universal.
    pub allowed: AtomSet,
}

impl Taxonomy {
    fn from_universals(universals: &[(usize, AtomSet)], vocab: &Vocabulary) -> Option<Taxonomy> {
        if vocab.pred_count() > 16 {
            return None;
        }
        let n = atom_count(vocab);
        let mut allowed = AtomSet::full(n);
        for (_, s) in universals {
            allowed = allowed.intersect(s);
        }
        Some(Taxonomy { atoms: n, allowed })
    }

    /// `KB ⊨ ∀x (a(x) ⇒ b(x))` over the unary fragment.
    pub fn entails(&self, a: &AtomSet, b: &AtomSet) -> bool {
        a.intersect(&self.allowed).subset_of(b)
    }

    /// `KB ⊨ ∀x (a(x) ⇒ ¬b(x))`.
    pub fn disjoint(&self, a: &AtomSet, b: &AtomSet) -> bool {
        a.intersect(&self.allowed).is_disjoint(b)
    }

    /// Is the class non-empty in some allowed atom?
    pub fn satisfiable(&self, a: &AtomSet) -> bool {
        !a.intersect(&self.allowed).is_empty_set()
    }
}

/// The atom set a constant is known to inhabit, from its quantifier-free
/// unary facts (other facts are ignored — sound but incomplete).
pub fn const_atom_set(classified: &Classified, c: ConstId, vocab: &Vocabulary) -> AtomSet {
    let n = atom_count(vocab);
    let mut s = AtomSet::full(n);
    for &i in classified.mentioning(Sym::Const(c)) {
        if classified.const_count(i) == 1 {
            if let Some(set) = compile_atom_set_const(classified.part(i), c, vocab) {
                s = s.intersect(&set);
            }
        }
    }
    s
}

/// Indices of flattened conjuncts mentioning any of the given constants,
/// ascending.
pub fn conjuncts_mentioning(classified: &Classified, consts: &[ConstId]) -> Vec<usize> {
    let mut out: Vec<usize> = consts
        .iter()
        .flat_map(|&c| classified.mentioning(Sym::Const(c)).iter().copied())
        .collect();
    out.sort_unstable();
    out.dedup();
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stat_statements_are_merged() {
        let kb = KnowledgeBase::parse(
            "0.7 <~_1 ||Chirps(x) | Bird(x)||_x <~_2 0.8; ||Fly(y) | Bird(y)||_y ~=_3 1",
        )
        .unwrap();
        let c = classify(&kb);
        // 2 statements plus their complement-normalized forms.
        assert_eq!(c.stats.len(), 4);
        let chirp = c
            .stats
            .iter()
            .find(|s| s.lo == Rat::new(7, 10))
            .expect("merged interval statement");
        assert_eq!(chirp.hi, Rat::new(4, 5));
        assert_eq!(chirp.sources.len(), 2);
        let fly = c.stats.iter().find(|s| s.lo == Rat::ONE).unwrap();
        assert!(fly.is_point());
        // The complement of the chirp statement is present.
        assert!(c
            .stats
            .iter()
            .any(|s| s.lo == Rat::new(1, 5) && s.hi == Rat::new(3, 10)));
    }

    #[test]
    fn alpha_variants_share_a_key() {
        let kb = KnowledgeBase::parse(
            "0.2 <~_1 ||Hep(x) | Jaun(x)||_x; ||Hep(z) | Jaun(z)||_z <~_2 0.9",
        )
        .unwrap();
        let c = classify(&kb);
        assert_eq!(c.stats.len(), 2); // statement + complement
        assert_eq!(c.stats[0].lo, Rat::new(1, 5));
        assert_eq!(c.stats[0].hi, Rat::new(9, 10));
    }

    #[test]
    fn universals_compile_to_atom_sets() {
        let kb = KnowledgeBase::parse("forall x (Penguin(x) => Bird(x)); Penguin(Tweety)").unwrap();
        let c = classify(&kb);
        assert_eq!(c.universals.len(), 1);
        let tax = c.taxonomy.as_ref().unwrap();
        // Penguin ⊆ Bird must be entailed.
        let mut kb2 = kb.clone();
        let peng = kb2.parse_query("Penguin(x)").unwrap();
        let bird = kb2.parse_query("Bird(x)").unwrap();
        let xv = kb2.vocab_mut().var("x");
        let sp = compile_atom_set(&peng, xv, kb2.vocab()).unwrap();
        let sb = compile_atom_set(&bird, xv, kb2.vocab()).unwrap();
        assert!(tax.entails(&sp, &sb));
        assert!(!tax.entails(&sb, &sp));
        assert!(!tax.disjoint(&sp, &sb));
    }

    #[test]
    fn exists_unique_recognized() {
        let kb = KnowledgeBase::parse("exists! x (Quaker(x) & Republican(x))").unwrap();
        let c = classify(&kb);
        assert_eq!(c.exists_unique.len(), 1);
        assert!(matches!(c.exists_unique[0].1, Formula::And(..)));
    }

    #[test]
    fn const_atom_sets_from_facts() {
        let kb = KnowledgeBase::parse("Jaun(Eric); Fever(Eric); ||Hep(x) | Jaun(x)||_x ~=_1 0.8")
            .unwrap();
        let c = classify(&kb);
        let eric = kb.vocab().lookup_const("Eric").unwrap();
        let s = const_atom_set(&c, eric, kb.vocab());
        // Interning order: Jaun = bit 0, Fever = bit 1, Hep = bit 2; the
        // facts fix bits 0 and 1.
        assert_eq!(s.iter().collect::<Vec<_>>(), vec![0b011, 0b111]);
    }

    #[test]
    fn canon_distinguishes_and_identifies() {
        let mut kb = KnowledgeBase::parse("true").unwrap();
        let a = kb.parse_query("forall x (P(x) => Q(x))").unwrap();
        let b = kb.parse_query("forall y (P(y) => Q(y))").unwrap();
        let c = kb.parse_query("forall y (Q(y) => P(y))").unwrap();
        let key = |f: &Formula| canonical_formula_over(kb.vocab(), f, &[]);
        assert_eq!(key(&a), key(&b));
        assert_ne!(key(&a), key(&c));
        // Statistics are keyed the same way: alpha-variants merge into one
        // statement, and swapping body and condition gives another.
        let kb = KnowledgeBase::parse(
            "||Q(x) | P(x)||_x ~=_1 0.5; ||Q(y) | P(y)||_y ~=_2 0.5; ||P(y) | Q(y)||_y ~=_3 0.5",
        )
        .unwrap();
        let c = classify(&kb);
        let sourced: Vec<_> = c.stats.iter().filter(|s| s.sources.len() == 2).collect();
        assert_eq!(sourced.len(), 2, "the merged statement and its complement");
        assert!(sourced.iter().all(|s| s.sources == [0, 1]));
        assert!(c.stats.iter().any(|s| s.sources == [2]));
    }

    #[test]
    fn conjunction_multisets_ignore_order() {
        let kb = KnowledgeBase::parse(
            "||Hep(x) | P(x) & Q(x) & R(x)||_x ~=_1 0.5; ||Hep(y) | R(y) & P(y) & Q(y)||_y ~=_2 0.5",
        )
        .unwrap();
        let c = classify(&kb);
        let merged = c
            .stats
            .iter()
            .find(|s| s.sources == [0, 1])
            .expect("conjunct order does not split the statistic");
        assert_eq!(merged.tols.len(), 2);
        assert!(c.stats.iter().all(|s| s.sources == [0, 1]));
    }
}
