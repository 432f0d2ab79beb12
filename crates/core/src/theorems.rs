//! The theorem engine: syntactic pattern matchers, with checked side
//! conditions, for the paper's general theorems about random worlds.
//!
//! Each matcher returns `None` when its theorem does not apply — soundness
//! over completeness: a returned belief is always justified by the cited
//! theorem, and unverifiable side conditions reject the match (the engine
//! then falls back to the semantic computations in `rw-maxent` /
//! `rw-worlds`).

use crate::belief::{Belief, Provenance};
use crate::patterns::{
    classify, conjuncts_mentioning, const_atom_set, sorted_symbols, synthetic_var, Classified,
    PartShape, StatStatement, Sym,
};
use crate::solver::Recurse;
use rw_logic::ast::{Formula, PropExpr, Term};
use rw_logic::canon::canonical_formula_over;
use rw_logic::{analysis, ConstId, KnowledgeBase, PredId, VarId, Vocabulary};
use rw_unary::atoms::compile_atom_set_const;
use rw_unary::AtomSet;
use rw_util::Rat;
use std::collections::{BTreeMap, BTreeSet};

/// Dempster's rule of combination (paper Thm 5.26):
/// `δ(ᾱ) = Π αᵢ / (Π αᵢ + Π (1-αᵢ))`.
pub fn dempster_rule(alphas: &[f64]) -> f64 {
    let num: f64 = alphas.iter().product();
    let den: f64 = num + alphas.iter().map(|a| 1.0 - a).product::<f64>();
    num / den
}

/// Tries every theorem pattern in order of specificity, classifying the
/// KB from scratch.
pub fn try_all(
    kb: &KnowledgeBase,
    query: &Formula,
    recurse: &Recurse<'_>,
) -> Option<(Belief, Provenance)> {
    try_classified(kb, &classify(kb), query, recurse)
}

/// [`try_all`] against an existing classification of `kb`'s conjuncts:
/// `classify(kb)` itself, or the classification of a KB with the same
/// conjuncts whose vocabulary has the same predicates and functions (a
/// [`crate::PreparedKb`]'s analysis, reused across queries that add only
/// constants or variables).
///
/// A KB that is visibly void ([`Classified::void`]) matches nothing: the
/// theorems presuppose a KB that is eventually consistent, and the
/// semantic stages report its belief as undefined.
pub fn try_classified(
    kb: &KnowledgeBase,
    cls: &Classified,
    query: &Formula,
    recurse: &Recurse<'_>,
) -> Option<(Belief, Provenance)> {
    if cls.void {
        return None;
    }
    try_ground_facts(query, cls)
        .or_else(|| try_unique_names(kb, query, cls))
        .or_else(|| try_dempster(kb, query, cls))
        .or_else(|| try_strength(kb, query, cls))
        .or_else(|| try_direct_inference(kb, query, cls))
        .or_else(|| try_minimal_class(kb, query, cls))
        .or_else(|| try_nested_default(kb, query, cls))
        .or_else(|| try_independence(kb, query, cls, recurse))
        .or_else(|| try_or_rule(kb, query, cls, recurse))
}

fn interval_belief(lo: Rat, hi: Rat) -> Option<Belief> {
    if lo > hi {
        return None; // contradictory bounds: let the semantic engines decide
    }
    if lo == hi {
        Some(Belief::Point(lo.to_f64()))
    } else {
        Some(Belief::Interval(lo.to_f64(), hi.to_f64()))
    }
}

fn permutations(k: usize) -> Vec<Vec<usize>> {
    fn go(prefix: &mut Vec<usize>, used: &mut Vec<bool>, out: &mut Vec<Vec<usize>>) {
        let k = used.len();
        if prefix.len() == k {
            out.push(prefix.clone());
            return;
        }
        for i in 0..k {
            if !used[i] {
                used[i] = true;
                prefix.push(i);
                go(prefix, used, out);
                prefix.pop();
                used[i] = false;
            }
        }
    }
    let mut out = Vec::new();
    go(&mut Vec::new(), &mut vec![false; k], &mut out);
    out
}

// ---------------------------------------------------------------------------
// Asserted ground facts: direct entailment (Definition 4.2).
// ---------------------------------------------------------------------------

/// The cheapest pattern of all: the query is a conjunction of ground
/// literals each directly asserted by the KB (belief 1: every KB-world
/// satisfies each conjunct, Def 4.2) or with one conjunct asserted with
/// the opposite polarity (belief 0: no KB-world satisfies it).
///
/// This covers the serving-path traps that previously fell through to a
/// maxent sweep: bare asserted facts (`Jaun(Eric)`), double
/// negations (`!!P(c)`), and conjunctions of asserted ground literals.
///
/// Side conditions (all checked; any failure declines to the semantic
/// stages):
///
/// * every query conjunct is a ground literal, and each is asserted by
///   the KB one way or the other;
/// * no ground literal is asserted both ways (directly inconsistent KB,
///   so `Pr` may be undefined);
/// * every other KB conjunct *touching the query's symbols* (a predicate
///   or constant of some query literal) is a tolerance-carrying
///   statistical comparison — the one shape that cannot make an asserted
///   ground fact eventually inconsistent. Universals, equalities,
///   exact-proportion constraints and other quantified facts about those
///   symbols disable the fast path: `forall x (!P(x)); P(C)` must reach
///   the stages that can report `Undefined`. (Conjuncts over unrelated
///   symbols are not inspected — the same scope every other matcher
///   here uses.)
pub fn try_ground_facts(query: &Formula, cls: &Classified) -> Option<(Belief, Provenance)> {
    // Every query conjunct (after `!!` stripping) must be a ground literal.
    let stripped = analysis::strip_double_neg(query);
    let mut literals = Vec::new();
    for part in stripped.conjuncts() {
        literals.push(analysis::as_ground_literal(part)?);
    }
    if literals.is_empty() || cls.voids_ground_facts {
        return None;
    }
    // Everything sharing a predicate or constant with the query, other
    // than asserted ground literals, must be a tolerance-carrying
    // statistical statement: a proportion compared under a tolerance
    // (`~=_i`, `<~_i`) is satisfiable alongside any finite set of ground
    // facts for all large `N`; anything else could entail their negation.
    let allowed = |&i: &usize| matches!(cls.shape(i), PartShape::Literal | PartShape::TolerantCmp);
    for (p, args, _) in &literals {
        let touched = std::iter::once(Sym::Pred(*p)).chain(args.iter().map(|&c| Sym::Const(c)));
        for sym in touched {
            if !cls.mentioning(sym).iter().all(allowed) {
                return None;
            }
        }
    }
    let mut all_match = true;
    for (p, args, value) in literals {
        match asserted(cls, p, &args) {
            Some(v) if v == value => {}
            // One conjunct entailed false bounds the whole conjunction:
            // Pr(φ ∧ ψ | KB) ≤ Pr(φ | KB) = 0.
            Some(_) => return Some((Belief::Point(0.0), Provenance::Entailed)),
            None => all_match = false,
        }
    }
    if all_match {
        Some((Belief::Point(1.0), Provenance::Entailed))
    } else {
        None
    }
}

/// The polarity with which the KB asserts the ground atom `p(args)`, if
/// it does (a KB asserting it both ways never gets this far).
fn asserted(cls: &Classified, p: PredId, args: &[ConstId]) -> Option<bool> {
    let scope = match args.first() {
        Some(&c) => cls.mentioning(Sym::Const(c)),
        None => cls.mentioning(Sym::Pred(p)),
    };
    scope
        .iter()
        .filter(|&&i| cls.shape(i) == PartShape::Literal)
        .find_map(|&i| match analysis::as_ground_literal(cls.part(i)) {
            Some((q, a, v)) if q == p && a == args => Some(v),
            _ => None,
        })
}

// ---------------------------------------------------------------------------
// Theorem 5.6 / Corollary 5.7: direct inference.
// ---------------------------------------------------------------------------

/// Matches `KB = ψ(c̄) ∧ KB'` with an explicit statistical statement
/// `||φ(x̄) | ψ(x̄)||_x̄ ∈ [lo, hi]` in `KB'`, where the constants `c̄` (a
/// subset of the query's constants) occur nowhere else.
pub fn try_direct_inference(
    kb: &KnowledgeBase,
    query: &Formula,
    cls: &Classified,
) -> Option<(Belief, Provenance)> {
    let q_consts: Vec<ConstId> = analysis::constants(query).into_iter().collect();
    if q_consts.is_empty() || q_consts.len() > 3 {
        return None;
    }
    // Subsets of the query constants, larger first (most information used).
    let mut masks: Vec<u32> = (1..(1u32 << q_consts.len())).collect();
    masks.sort_by_key(|m| std::cmp::Reverse(m.count_ones()));
    for mask in masks {
        let cbar: Vec<ConstId> = q_consts
            .iter()
            .enumerate()
            .filter(|(i, _)| mask >> i & 1 == 1)
            .map(|(_, c)| *c)
            .collect();
        // Only statements over |c̄| variables can match.
        if !cls.stats.iter().any(|s| s.vars.len() == cbar.len()) {
            continue;
        }
        let f_idx = conjuncts_mentioning(cls, &cbar);
        // Generalize c̄ → synthetic variables in the query and the facts.
        let generalize = |f: &Formula| {
            let mut g = f.clone();
            for (i, c) in cbar.iter().enumerate() {
                g = analysis::generalize_const(&g, *c, synthetic_var(i));
            }
            g
        };
        let phi = generalize(query);
        let psi = Formula::conjoin(f_idx.iter().map(|&i| generalize(cls.part(i))));
        // (φ, ψ) keyed under every order of the synthetic variables.
        let keys: Vec<(String, String)> = permutations(cbar.len())
            .into_iter()
            .map(|perm| {
                let free: Vec<VarId> = perm.into_iter().map(synthetic_var).collect();
                let key = |f: &Formula| canonical_formula_over(kb.vocab(), f, &free);
                (key(&phi), key(&psi))
            })
            .collect();

        'stat: for s in &cls.stats {
            if s.vars.len() != cbar.len() {
                continue;
            }
            // The statistical statement itself must not mention c̄ (it would
            // have been swept into ψ otherwise).
            if s.sources.iter().any(|i| f_idx.binary_search(i).is_ok()) {
                continue;
            }
            for (phi_key, psi_key) in &keys {
                if *phi_key == s.body_key && *psi_key == s.cond_key {
                    let belief = match interval_belief(s.lo, s.hi) {
                        Some(b) => b,
                        None => continue 'stat,
                    };
                    return Some((belief, Provenance::DirectInference));
                }
            }
        }
    }
    None
}

// ---------------------------------------------------------------------------
// Theorem 5.16 / Corollary 5.17: minimal reference class + irrelevance.
// ---------------------------------------------------------------------------

struct Candidate<'a> {
    stat: &'a StatStatement,
    class: &'a AtomSet,
}

/// Reference-class candidates for a single-constant query: statistical
/// statements whose body alpha-matches the generalized query, with
/// compilable (quantifier-free unary) condition classes. Returns `None` if
/// some statement about `φ` has a class we cannot analyze (the theorems'
/// side conditions quantify over *all* such statements).
///
/// Only called once the KB has a taxonomy, so every single-variable
/// statement's class was compiled if it could be.
fn phi_candidates<'a>(
    cls: &'a Classified,
    phi: &Formula,
    vocab: &Vocabulary,
) -> Option<Vec<Candidate<'a>>> {
    let phi_canon = canonical_formula_over(vocab, phi, &[synthetic_var(0)]);
    let mut out = Vec::new();
    for s in &cls.stats {
        if s.vars.len() != 1 || s.body_key != phi_canon {
            continue;
        }
        out.push(Candidate {
            stat: s,
            class: s.class.as_ref()?,
        });
    }
    Some(out)
}

/// Condition (c) of Thm 5.16 (shared with Thm 5.23): the symbols of `φ`
/// occur in the KB only inside the bodies of the candidate statements.
fn phi_symbols_isolated(cls: &Classified, phi: &Formula, candidates: &[Candidate<'_>]) -> bool {
    let phi_syms = analysis::symbols(phi);
    let candidate_sources: Vec<usize> = candidates
        .iter()
        .flat_map(|c| c.stat.sources.iter().copied())
        .collect();
    let shared = phi_syms
        .preds
        .iter()
        .map(|&p| Sym::Pred(p))
        .chain(phi_syms.funcs.iter().map(|&f| Sym::Func(f)))
        .chain(phi_syms.consts.iter().map(|&c| Sym::Const(c)));
    for sym in shared {
        if !cls
            .mentioning(sym)
            .iter()
            .all(|idx| candidate_sources.contains(idx))
        {
            return false;
        }
    }
    // ... and not inside the conditions of those statements.
    for c in candidates {
        let cond_syms = analysis::symbols(&c.stat.cond);
        if !cond_syms.preds.is_disjoint(&phi_syms.preds)
            || !cond_syms.consts.is_disjoint(&phi_syms.consts)
        {
            return false;
        }
    }
    true
}

fn single_query_constant(query: &Formula) -> Option<ConstId> {
    let cs = analysis::constants(query);
    if cs.len() == 1 {
        cs.into_iter().next()
    } else {
        None
    }
}

/// Theorem 5.16: if the statements about `φ` include a unique minimal class
/// `ψ₀` containing `c` — every other class a superset or disjoint — then the
/// degree of belief is `ψ₀`'s statistic, regardless of any other facts
/// about `c` (irrelevance / exceptional-subclass inheritance).
pub fn try_minimal_class(
    kb: &KnowledgeBase,
    query: &Formula,
    cls: &Classified,
) -> Option<(Belief, Provenance)> {
    let c = single_query_constant(query)?;
    let vocab = kb.vocab();
    let taxonomy = cls.taxonomy.as_ref()?;
    let phi = analysis::generalize_const(query, c, synthetic_var(0));
    let candidates = phi_candidates(cls, &phi, vocab)?;
    if candidates.is_empty() || !phi_symbols_isolated(cls, &phi, &candidates) {
        return None;
    }
    let facts = const_atom_set(cls, c, vocab);
    if !taxonomy.satisfiable(&facts) {
        return None;
    }
    // Classes containing c.
    let mut best: Option<&Candidate> = None;
    for cand in &candidates {
        if !taxonomy.entails(&facts, cand.class) {
            continue;
        }
        // Minimality against every candidate class.
        let minimal = candidates.iter().all(|other| {
            taxonomy.entails(cand.class, other.class) || taxonomy.disjoint(cand.class, other.class)
        });
        if minimal {
            match best {
                None => best = Some(cand),
                Some(b) => {
                    // Prefer the smaller class; merge equal classes by
                    // interval intersection.
                    if taxonomy.entails(cand.class, b.class)
                        && !taxonomy.entails(b.class, cand.class)
                    {
                        best = Some(cand);
                    }
                }
            }
        }
    }
    let b = best?;
    let belief = interval_belief(b.stat.lo, b.stat.hi)?;
    Some((belief, Provenance::MinimalReferenceClass))
}

// ---------------------------------------------------------------------------
// Theorem 5.23: the strength rule along a chain of reference classes.
// ---------------------------------------------------------------------------

/// Theorem 5.23: when the classes with statistics about `φ` form a chain
/// `ψ₁ ⊆ ... ⊆ ψ_m` containing `c` in the smallest, and one interval is
/// strictly nested inside all others, that tightest interval bounds the
/// degree of belief.
pub fn try_strength(
    kb: &KnowledgeBase,
    query: &Formula,
    cls: &Classified,
) -> Option<(Belief, Provenance)> {
    let c = single_query_constant(query)?;
    let vocab = kb.vocab();
    let taxonomy = cls.taxonomy.as_ref()?;
    let phi = analysis::generalize_const(query, c, synthetic_var(0));
    let candidates = phi_candidates(cls, &phi, vocab)?;
    if candidates.len() < 2 || !phi_symbols_isolated(cls, &phi, &candidates) {
        return None;
    }
    // Chain check.
    for i in 0..candidates.len() {
        for j in i + 1..candidates.len() {
            let a = candidates[i].class;
            let b = candidates[j].class;
            if !taxonomy.entails(a, b) && !taxonomy.entails(b, a) {
                return None;
            }
        }
    }
    // c must lie in the minimal class of the chain.
    let facts = const_atom_set(cls, c, vocab);
    if !taxonomy.satisfiable(&facts) {
        return None;
    }
    let bottom = candidates.iter().find(|cand| {
        candidates
            .iter()
            .all(|other| taxonomy.entails(cand.class, other.class))
    })?;
    if !taxonomy.entails(&facts, bottom.class) {
        return None;
    }
    // Strictly tightest interval.
    let tightest = candidates.iter().find(|cand| {
        candidates.iter().all(|other| {
            std::ptr::eq(*cand, other)
                || (other.stat.lo < cand.stat.lo && cand.stat.hi < other.stat.hi)
        })
    })?;
    let belief = interval_belief(tightest.stat.lo, tightest.stat.hi)?;
    Some((belief, Provenance::StrengthRule))
}

// ---------------------------------------------------------------------------
// Theorem 5.26: Dempster combination of essentially disjoint evidence.
// ---------------------------------------------------------------------------

/// Theorem 5.26: `KB = ∧ᵢ (||P(x)|ψᵢ(x)|| ≈ αᵢ ∧ ψᵢ(c)) ∧ ∧_{i≠j} ∃!x(ψᵢ∧ψⱼ)`
/// gives `Pr∞(P(c)) = δ(ᾱ)`. Conflicting extremes (`αᵢ = 1` and `αⱼ = 0`)
/// with distinct tolerance indices have no robust limit; with a shared
/// index the symmetric limit is 1/2 (paper §5.3).
pub fn try_dempster(
    kb: &KnowledgeBase,
    query: &Formula,
    cls: &Classified,
) -> Option<(Belief, Provenance)> {
    let (pred, c, negated) = match query {
        Formula::Pred(p, args) => match args.as_slice() {
            [Term::Const(c)] => (*p, *c, false),
            _ => return None,
        },
        Formula::Not(inner) => match inner.as_ref() {
            Formula::Pred(p, args) => match args.as_slice() {
                [Term::Const(c)] => (*p, *c, true),
                _ => return None,
            },
            _ => return None,
        },
        _ => return None,
    };
    let vocab = kb.vocab();
    let taxonomy = cls.taxonomy.as_ref()?;
    let phi = analysis::generalize_const(query, c, synthetic_var(0));
    let phi_pos = if negated {
        match &phi {
            Formula::Not(inner) => inner.as_ref().clone(),
            _ => return None,
        }
    } else {
        phi.clone()
    };
    let candidates = phi_candidates(cls, &phi_pos, vocab)?;
    if candidates.len() < 2 {
        return None;
    }
    // All statements must be points, classes must not mention P or c, and c
    // must be known to lie in every class.
    let facts = const_atom_set(cls, c, vocab);
    if !taxonomy.satisfiable(&facts) {
        return None;
    }
    let mut alphas = Vec::new();
    for cand in &candidates {
        if !cand.stat.is_point() {
            return None;
        }
        let cond_syms = analysis::symbols(&cand.stat.cond);
        if cond_syms.preds.contains(&pred) || cond_syms.consts.contains(&c) {
            return None;
        }
        if !taxonomy.entails(&facts, cand.class) {
            return None;
        }
        alphas.push(cand.stat.lo);
    }
    // Pairwise ∃!x(ψᵢ ∧ ψⱼ) conjuncts must be present.
    let pairs: Vec<String> = cls
        .exists_unique
        .iter()
        .map(|(_, inner, v)| canonical_formula_over(vocab, inner, &[*v]))
        .collect();
    for (i, a) in candidates.iter().enumerate() {
        for b in &candidates[i + 1..] {
            let (va, vb) = (a.stat.vars[0], b.stat.vars[0]);
            let cond_b = analysis::rename_var(&b.stat.cond, vb, va);
            let both = Formula::and(a.stat.cond.clone(), cond_b);
            if !pairs.contains(&canonical_formula_over(vocab, &both, &[va])) {
                return None;
            }
        }
    }
    // Strictness: every conjunct must belong to the pattern — a source
    // of a candidate statement, an `∃!` conjunct, `true`, or a unary fact
    // about `c` alone that does not mention `P`.
    let mut in_pattern: Vec<bool> = (0..cls.len())
        .map(|i| cls.shape(i) == PartShape::True)
        .collect();
    for cand in &candidates {
        for &i in &cand.stat.sources {
            in_pattern[i] = true;
        }
    }
    for (i, _, _) in &cls.exists_unique {
        in_pattern[*i] = true;
    }
    for &i in cls.mentioning(Sym::Const(c)) {
        if cls.const_count(i) == 1
            && !cls.symbols_of(i).contains(&Sym::Pred(pred))
            && compile_atom_set_const(cls.part(i), c, vocab).is_some()
        {
            in_pattern[i] = true;
        }
    }
    if in_pattern.contains(&false) {
        return None;
    }

    let ones = alphas.iter().filter(|a| **a == Rat::ONE).count();
    let zeros = alphas.iter().filter(|a| **a == Rat::ZERO).count();
    let belief = if ones > 0 && zeros > 0 {
        // Conflicting hard defaults.
        let tols: Vec<_> = candidates
            .iter()
            .map(|cand| {
                let mut ts = cand.stat.tols.clone();
                ts.dedup();
                ts
            })
            .collect();
        let shared = tols.iter().all(|ts| ts.len() == 1 && ts[0] == tols[0][0]);
        if shared && candidates.len() == 2 {
            Belief::Point(0.5)
        } else {
            Belief::NonRobust(vec![0.0, 1.0])
        }
    } else {
        let v = dempster_rule(&alphas.iter().map(|a| a.to_f64()).collect::<Vec<_>>());
        Belief::Point(v)
    };
    let belief = if negated {
        match belief {
            Belief::Point(v) => Belief::Point(1.0 - v),
            Belief::NonRobust(vs) => Belief::NonRobust(vs.iter().map(|v| 1.0 - v).collect()),
            other => other,
        }
    } else {
        belief
    };
    Some((belief, Provenance::Dempster))
}

// ---------------------------------------------------------------------------
// Theorem 5.27: independence across disjoint subvocabularies.
// ---------------------------------------------------------------------------

/// Theorem 5.27: if `KB ∧ query` splits into components over vocabularies
/// that are pairwise disjoint except for (at most) one shared constant, the
/// belief is the product of the components' beliefs.
pub fn try_independence(
    kb: &KnowledgeBase,
    query: &Formula,
    cls: &Classified,
    recurse: &Recurse<'_>,
) -> Option<(Belief, Provenance)> {
    let query_parts = query.conjuncts();
    let n_kb = cls.len();
    if n_kb + query_parts.len() < 2 {
        return None;
    }
    let q_consts = analysis::constants(query);
    let q_syms: Vec<Vec<Sym>> = query_parts.iter().map(sorted_symbols).collect();
    let components = independence_components(cls, &q_syms, &q_consts);
    if components.iter().filter(|(_, q)| !q.is_empty()).count() < 2 {
        return None;
    }
    // At most one constant may be shared between components: count the
    // constants found in two or more.
    let mut home: BTreeMap<ConstId, usize> = BTreeMap::new();
    let mut shared = BTreeSet::new();
    for (ci, (ks, qs)) in components.iter().enumerate() {
        let members = ks.iter().map(|&i| cls.symbols_of(i));
        for sym in members
            .chain(qs.iter().map(|&q| q_syms[q].as_slice()))
            .flatten()
        {
            if let Sym::Const(c) = *sym {
                if *home.entry(c).or_insert(ci) != ci {
                    shared.insert(c);
                }
            }
        }
    }
    if shared.len() > 1 {
        return None;
    }

    // Solve each component carrying a query part.
    let mut lo = 1.0f64;
    let mut hi = 1.0f64;
    let mut parts = Vec::new();
    for (kidxs, qidxs) in &components {
        if qidxs.is_empty() {
            continue;
        }
        let sub_kb = KnowledgeBase::from_parts(
            kb.vocab().clone(),
            kidxs.iter().map(|&i| cls.part(i).clone()).collect(),
        );
        let sub_q = Formula::conjoin(qidxs.iter().map(|&i| query_parts[i].clone()));
        let (belief, prov) = recurse(&sub_kb, &sub_q)?;
        let (blo, bhi) = belief.as_interval()?;
        lo *= blo;
        hi *= bhi;
        parts.push(Box::new(prov));
    }
    let belief = if (hi - lo).abs() < 1e-12 {
        Belief::Point(lo)
    } else {
        Belief::Interval(lo, hi)
    };
    Some((belief, Provenance::Independence(parts)))
}

/// The symbol-sharing components of `KB ∧ query`, as `(KB conjuncts,
/// query parts)` index lists in the order of their union-find roots.
/// Parts are numbered KB conjuncts first, then query parts; two parts
/// share a component when they mention a common predicate, function, or
/// constant outside `q_consts`.
///
/// The unions are those of a scan over every sharing pair `(i, j)`,
/// `i < j`, in lexicographic order, with the same roots, so the component
/// order (and with it the order of the independence product) is that
/// scan's. The scan's unions along a symbol are effective only at the
/// symbol's first mentioner: that part's step joins every other
/// mentioner, so each later step along the symbol joins parts already
/// joined. Each symbol's mentioners are therefore read once, at its first
/// mentioner, and the cost is linear in the symbol occurrences instead
/// of quadratic in the parts.
fn independence_components(
    cls: &Classified,
    q_syms: &[Vec<Sym>],
    q_consts: &BTreeSet<ConstId>,
) -> Vec<(Vec<usize>, Vec<usize>)> {
    let n_kb = cls.len();
    let n_all = n_kb + q_syms.len();
    let symbols_of = |i: usize| -> &[Sym] {
        if i < n_kb {
            cls.symbols_of(i)
        } else {
            &q_syms[i - n_kb]
        }
    };
    // `(symbol, part)` for every query part, sorted: each symbol's query
    // mentioners, ascending, follow its KB mentioners.
    let mut q_index: Vec<(Sym, usize)> = q_syms
        .iter()
        .enumerate()
        .flat_map(|(k, syms)| syms.iter().map(move |&sym| (sym, n_kb + k)))
        .collect();
    q_index.sort_unstable();
    let mentioners = |sym: Sym| {
        let from = q_index.partition_point(|&(s, _)| s < sym);
        let in_query = q_index[from..].iter().take_while(move |&&(s, _)| s == sym);
        let in_kb = cls.mentioning(sym).iter().copied();
        in_kb.chain(in_query.map(|&(_, j)| j))
    };
    let mut parent: Vec<usize> = (0..n_all).collect();
    fn find(parent: &mut [usize], mut i: usize) -> usize {
        let mut root = i;
        while parent[root] != root {
            root = parent[root];
        }
        while parent[i] != root {
            i = std::mem::replace(&mut parent[i], root);
        }
        root
    }
    let mut neighbours = Vec::new();
    for i in 0..n_all {
        neighbours.clear();
        for &sym in symbols_of(i) {
            if matches!(sym, Sym::Const(c) if q_consts.contains(&c)) {
                continue;
            }
            let mut sharing = mentioners(sym);
            if sharing.next() == Some(i) {
                neighbours.extend(sharing);
            }
        }
        neighbours.sort_unstable();
        neighbours.dedup();
        for &j in &neighbours {
            let (ri, rj) = (find(&mut parent, i), find(&mut parent, j));
            if ri != rj {
                parent[ri] = rj;
            }
        }
    }
    let mut components: BTreeMap<usize, (Vec<usize>, Vec<usize>)> = BTreeMap::new();
    for i in 0..n_all {
        let entry = components.entry(find(&mut parent, i)).or_default();
        if i < n_kb {
            entry.0.push(i);
        } else {
            entry.1.push(i - n_kb);
        }
    }
    components.into_values().collect()
}

// ---------------------------------------------------------------------------
// Theorem 5.3: the KLM Or rule.
// ---------------------------------------------------------------------------

/// The most disjuncts [`try_or_rule`] splits a KB into: each one costs a
/// full pipeline run.
const MAX_OR_ARMS: usize = 8;

/// Theorem 5.3 (Or): for `KB = Γ ∧ (A₁ ∨ … ∨ A_k)`, if every `Γ ∧ Aᵢ`
/// gives the query belief 1, so does the KB; likewise for 0. Sound by the
/// union bound `#(¬φ ∧ KB) ≤ Σᵢ #(¬φ ∧ Γ ∧ Aᵢ)` (`#(φ ∧ KB)` for 0), with
/// `#KB ≥ #(Γ ∧ Aᵢ)` for every `i` — which proves 1 only when every
/// disjunct's limit is exactly 1, not merely close to it.
///
/// Side conditions: exactly one KB conjunct is a disjunction, with at most
/// 8 disjuncts, none of which has a disjunctive conjunct of its own — so
/// the recursion is one level deep. Every disjunct must be answered with
/// an exact point belief that is 1 for all of them or 0 for all of them,
/// to within [`or_rule_slack`]; anything else (an interval, a sampled
/// estimate, an undefined or failed disjunct, a mix, a 0.999) declines.
/// A disjunct that the theorem and maxent stages leave to a counting
/// stage (enumeration, or the sampler on an `approx` engine) declines the
/// rule whatever it answers, before any further disjunct runs: at most
/// one disjunct's counting work is spent, and the KB's own stages answer
/// it from there.
pub fn try_or_rule(
    kb: &KnowledgeBase,
    query: &Formula,
    cls: &Classified,
    recurse: &Recurse<'_>,
) -> Option<(Belief, Provenance)> {
    let &[at] = cls.disjunctions.as_slice() else {
        return None;
    };
    let Formula::Or(arms) = cls.part(at) else {
        return None;
    };
    let nested = |arm: &Formula| arm.conjuncts().iter().any(|c| matches!(c, Formula::Or(_)));
    if arms.len() > MAX_OR_ARMS || arms.iter().any(nested) {
        return None;
    }
    let (mut ones, mut zeros) = (true, true);
    let mut parts = Vec::with_capacity(arms.len());
    for arm in arms {
        let conjuncts = cls.parts().enumerate().filter(|&(i, _)| i != at);
        let conjuncts = conjuncts.map(|(_, f)| f).chain(arm.conjuncts());
        let sub_kb = KnowledgeBase::from_parts(kb.vocab().clone(), conjuncts.cloned().collect());
        let (belief, prov) = recurse(&sub_kb, query)?;
        let (Belief::Point(v), Some(slack)) = (belief, or_rule_slack(&prov)) else {
            return None;
        };
        ones &= (v - 1.0).abs() <= slack;
        zeros &= v.abs() <= slack;
        if !ones && !zeros {
            return None;
        }
        parts.push(Box::new(prov));
    }
    let v = if ones { 1.0 } else { 0.0 };
    Some((Belief::Point(v), Provenance::OrRule(parts)))
}

/// How far from an exact 0 or 1 a disjunct's point may lie and still be
/// that limit: float round-off for the theorem stage's exact rationals,
/// 1e-6 for maxent's extrapolated τ-sweep (Example 5.4's disjuncts read
/// 1 − 1.06e-7), a product's sum over its factors, and `None` for
/// enumeration's extrapolated point, which the rule never uses (the
/// sampler's answers are never points).
fn or_rule_slack(p: &Provenance) -> Option<f64> {
    match p {
        Provenance::Enumeration { .. } => None,
        Provenance::MaxEnt => Some(1e-6),
        Provenance::Independence(parts) => parts.iter().map(|p| or_rule_slack(p)).sum(),
        _ => Some(1e-9),
    }
}

// ---------------------------------------------------------------------------
// §5.5: unique names.
// ---------------------------------------------------------------------------

/// The unique-names bias: `Pr∞(c₁ = c₂ | KB) = 0` when the KB constrains the
/// constants only through positive equality conjuncts (or not at all); the
/// equalities partition constants into blocks that behave like fresh names
/// (GHK94 Lemma D.1; Lifschitz benchmark C1).
pub fn try_unique_names(
    kb: &KnowledgeBase,
    query: &Formula,
    cls: &Classified,
) -> Option<(Belief, Provenance)> {
    let (a, b, negated) = match query {
        Formula::TermEq(Term::Const(a), Term::Const(b)) => (*a, *b, false),
        Formula::Not(inner) => match inner.as_ref() {
            Formula::TermEq(Term::Const(a), Term::Const(b)) => (*a, *b, true),
            _ => return None,
        },
        _ => return None,
    };
    // Any non-equality information about either constant blocks the
    // pattern (but information about *other* symbols is fine).
    for c in [a, b] {
        let about = cls.mentioning(Sym::Const(c));
        if !about
            .iter()
            .all(|&i| matches!(cls.shape(i), PartShape::ConstEq(..)))
        {
            return None;
        }
    }
    let n_consts = kb.vocab().const_count();
    let mut uf: Vec<usize> = (0..n_consts).collect();
    fn find(uf: &mut Vec<usize>, i: usize) -> usize {
        if uf[i] != i {
            let r = find(uf, uf[i]);
            uf[i] = r;
        }
        uf[i]
    }
    for i in 0..cls.len() {
        if let PartShape::ConstEq(x, y) = cls.shape(i) {
            let (rx, ry) = (find(&mut uf, x.index()), find(&mut uf, y.index()));
            if rx != ry {
                uf[rx] = ry;
            }
        }
    }
    let equal = find(&mut uf, a.index()) == find(&mut uf, b.index());
    let v = match (equal, negated) {
        (true, false) | (false, true) => 1.0,
        _ => 0.0,
    };
    Some((Belief::Point(v), Provenance::UniqueNames))
}

// ---------------------------------------------------------------------------
// Example 5.14: nested-default chaining.
// ---------------------------------------------------------------------------

/// The bed-late pattern: from a nested default
/// `|| ||R(x,y)|D(y)||_y ≈ 1 | C(x) ||_x ≈ 1`, a fact entailing `C(c₁)` and
/// a fact `D(c₂)`, conclude `R(c₁, c₂)` with belief 1 — the paper's
/// Example 5.14 derivation (Cor 5.9 twice through Prop 5.2).
pub fn try_nested_default(
    kb: &KnowledgeBase,
    query: &Formula,
    cls: &Classified,
) -> Option<(Belief, Provenance)> {
    let (r_pred, c1, c2) = match query {
        Formula::Pred(p, args) => match args.as_slice() {
            [Term::Const(c1), Term::Const(c2)] => (*p, *c1, *c2),
            _ => return None,
        },
        _ => return None,
    };
    let vocab = kb.vocab();
    for s in &cls.stats {
        if s.vars.len() != 1 || s.lo != Rat::ONE || s.hi != Rat::ONE {
            continue;
        }
        let x = s.vars[0];
        // Body must be the inner default ||R(x, y) | D(y)||_y ≈ 1.
        let Formula::Cmp(
            PropExpr::Prop {
                body,
                cond: Some(d),
                vars,
            },
            op,
            rhs,
        ) = &s.body
        else {
            continue;
        };
        if vars.len() != 1 || op.tolerance().is_none() {
            continue;
        }
        let y = vars[0];
        if !matches!(rhs, PropExpr::Rat(r) if *r == Rat::ONE) {
            continue;
        }
        let Formula::Pred(bp, bargs) = body.as_ref() else {
            continue;
        };
        if *bp != r_pred || bargs.as_slice() != [Term::Var(x), Term::Var(y)] {
            continue;
        }
        let Formula::Pred(dp, dargs) = d.as_ref() else {
            continue;
        };
        if dargs.as_slice() != [Term::Var(y)] {
            continue;
        }
        // A fact entailing C(c1): some conjunct alpha-matching cond at c1.
        let mut c1_ok = false;
        let mut d_c2_ok = false;
        for (idx, f) in cls.parts().enumerate() {
            if s.sources.contains(&idx) {
                continue;
            }
            let gen1 = analysis::generalize_const(f, c1, synthetic_var(0));
            if canonical_formula_over(vocab, &gen1, &[synthetic_var(0)]) == s.cond_key {
                c1_ok = true;
            }
            if let Formula::Pred(p, args) = f {
                if *p == *dp && args.as_slice() == [Term::Const(c2)] {
                    d_c2_ok = true;
                }
            }
        }
        if !c1_ok || !d_c2_ok {
            continue;
        }
        // Side conditions: R and c2 appear nowhere else.
        let mut ok = true;
        for (idx, f) in cls.parts().enumerate() {
            if s.sources.contains(&idx) {
                continue;
            }
            let syms = analysis::symbols(f);
            if syms.preds.contains(&r_pred) {
                ok = false;
            }
            if syms.consts.contains(&c2) {
                if let Formula::Pred(p, args) = f {
                    if *p == *dp && args.as_slice() == [Term::Const(c2)] {
                        continue;
                    }
                }
                ok = false;
            }
        }
        if ok {
            return Some((Belief::Point(1.0), Provenance::NestedDefault));
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::RandomWorlds;
    use rw_util::rng::{Rng, StdRng};

    /// The pairwise scan [`independence_components`] replaces: every part
    /// unions with every later part sharing a symbol, in `(i, j)` order.
    fn pairwise_components(
        cls: &Classified,
        q_syms: &[Vec<Sym>],
        q_consts: &BTreeSet<ConstId>,
    ) -> Vec<(Vec<usize>, Vec<usize>)> {
        let n_kb = cls.len();
        let n_all = n_kb + q_syms.len();
        let symbols_of = |i: usize| -> &[Sym] {
            if i < n_kb {
                cls.symbols_of(i)
            } else {
                &q_syms[i - n_kb]
            }
        };
        let mut parent: Vec<usize> = (0..n_all).collect();
        fn find(parent: &mut Vec<usize>, i: usize) -> usize {
            if parent[i] != i {
                let r = find(parent, parent[i]);
                parent[i] = r;
            }
            parent[i]
        }
        for i in 0..n_all {
            for j in i + 1..n_all {
                let shares = symbols_of(i).iter().any(|sym| {
                    !matches!(sym, Sym::Const(c) if q_consts.contains(c))
                        && symbols_of(j).contains(sym)
                });
                if shares {
                    let (ri, rj) = (find(&mut parent, i), find(&mut parent, j));
                    if ri != rj {
                        parent[ri] = rj;
                    }
                }
            }
        }
        let mut components: BTreeMap<usize, (Vec<usize>, Vec<usize>)> = BTreeMap::new();
        for i in 0..n_all {
            let entry = components.entry(find(&mut parent, i)).or_default();
            if i < n_kb {
                entry.0.push(i);
            } else {
                entry.1.push(i - n_kb);
            }
        }
        components.into_values().collect()
    }

    /// A random disjunction of one or two atoms over a small vocabulary.
    fn random_part(rng: &mut StdRng) -> String {
        let atom = |rng: &mut StdRng| match rng.gen_range(0..3) {
            0 => format!(
                "R{}(C{}, C{})",
                rng.gen_range(0..2),
                rng.gen_range(0..6),
                rng.gen_range(0..6)
            ),
            _ => format!("P{}(C{})", rng.gen_range(0..4), rng.gen_range(0..6)),
        };
        match rng.gen_range(0..3) {
            0 => format!("{} or {}", atom(rng), atom(rng)),
            _ => atom(rng),
        }
    }

    #[test]
    fn components_match_the_pairwise_scan_in_order() {
        let mut rng = StdRng::seed_from_u64(27);
        let mut out_of_min_order = 0;
        for _ in 0..3000 {
            let kb_parts: Vec<String> = (0..rng.gen_range(1..8))
                .map(|_| random_part(&mut rng))
                .collect();
            let q_parts: Vec<String> = (0..rng.gen_range(1..6))
                .map(|_| random_part(&mut rng))
                .collect();
            let mut kb = KnowledgeBase::parse(&kb_parts.join("; ")).unwrap();
            let query = kb.parse_query(&q_parts.join(" & ")).unwrap();
            let cls = classify(&kb);
            let q_syms: Vec<Vec<Sym>> = query.conjuncts().iter().map(sorted_symbols).collect();
            let q_consts = analysis::constants(&query);
            let fast = independence_components(&cls, &q_syms, &q_consts);
            assert_eq!(
                fast,
                pairwise_components(&cls, &q_syms, &q_consts),
                "KB `{}` ⊢ `{}`",
                kb_parts.join("; "),
                q_parts.join(" & ")
            );
            // The order is the roots', not the smallest members': make
            // sure the cases reach orders the two disagree on.
            let first = |(ks, qs): &(Vec<usize>, Vec<usize>)| {
                ks.first().copied().unwrap_or_else(|| cls.len() + qs[0])
            };
            out_of_min_order += fast.windows(2).any(|w| first(&w[0]) > first(&w[1])) as usize;
        }
        assert!(out_of_min_order > 0);
    }

    #[test]
    fn a_long_query_chain_declines_quickly() {
        // 6,000 copies of one conjunct share `Hep`: a single component
        // with the query, so independence declines.
        let mut kb = KnowledgeBase::parse("||Hep(x) | Jaun(x)||_x ~=_1 0.8; Jaun(Eric)").unwrap();
        let query = kb
            .parse_query(&vec!["Hep(Eric)"; 6000].join(" & "))
            .unwrap();
        let cls = classify(&kb);
        let recurse = |_: &KnowledgeBase, _: &Formula| -> Option<(Belief, Provenance)> {
            panic!("one component: nothing to solve")
        };
        assert!(try_independence(&kb, &query, &cls, &recurse).is_none());
    }

    /// `engine`'s answer to `q_src` against `kb_src`.
    fn answer(engine: &RandomWorlds, kb_src: &str, q_src: &str) -> crate::Response {
        let kb = KnowledgeBase::parse(kb_src).unwrap();
        engine.answer(&kb, q_src).unwrap()
    }

    #[test]
    fn variants_of_a_formula_get_its_provenance() {
        let engine = RandomWorlds::new();
        let stat = "||Hep(x) | Jaun(x)||_x ~=_1 0.8";
        let plain = answer(&engine, &format!("{stat}; Jaun(Eric)"), "Hep(Eric)");
        assert_eq!(plain.belief, Belief::Point(0.8));
        assert_eq!(plain.provenance, Provenance::DirectInference);
        let arm = format!("({stat} & Jaun(Eric))");
        let copies = vec![arm.as_str(); 200].join(" or ");
        for (kb_src, q) in [
            (format!("{stat}; Jaun(Eric)"), "!!Hep(Eric)"),
            (format!("{stat}; Jaun(Eric)"), "Hep(Eric) & Hep(Eric)"),
            (format!("{stat}; Jaun(Eric)"), "Hep(Eric) or !!Hep(Eric)"),
            (format!("{stat}; Jaun(Eric); Jaun(Eric)"), "Hep(Eric)"),
            (format!("{stat}; Jaun(Eric) or Jaun(Eric)"), "Hep(Eric)"),
            (
                "||Hep(x) | Child(x) & Jaun(x)||_x ~=_1 0.8; Jaun(Eric) & Child(Eric)".to_string(),
                "Hep(Eric)",
            ),
            (copies, "Hep(Eric)"),
        ] {
            let r = answer(&engine, &kb_src, q);
            assert_eq!(
                (&r.belief, &r.provenance),
                (&plain.belief, &plain.provenance),
                "{q} given {}",
                &kb_src[..kb_src.len().min(80)]
            );
        }
    }

    /// Every query gets `undefined` against a KB that voids itself.
    fn assert_undefined(kb_src: &str, queries: &[&str]) {
        let engine = RandomWorlds::new();
        for q in queries {
            let r = answer(&engine, kb_src, q);
            assert_eq!(r.belief, Belief::Undefined, "{q} given {kb_src}: {r}");
        }
    }

    #[test]
    fn a_false_conjunct_voids_the_kb() {
        assert_undefined(
            "||Hep(x) | Jaun(x)||_x ~=_1 0.8; Jaun(Eric); false",
            &["Hep(Eric)", "Jaun(Eric)"],
        );
    }

    #[test]
    fn a_statement_about_the_domain_size_alone_is_not_void() {
        let kb_src = "||Hep(x) | Jaun(x)||_x ~=_1 0.8; Jaun(Eric); exists x, y (x != y)";
        let r = answer(&RandomWorlds::new(), kb_src, "Hep(Eric)");
        assert_eq!(r.belief, Belief::Point(0.8));
        assert_eq!(r.provenance, Provenance::DirectInference);
    }

    #[test]
    fn a_literal_asserted_both_ways_voids_the_kb() {
        assert_undefined(
            "||Hep(x) | Jaun(x)||_x ~=_1 0.8; Jaun(Eric); Q(K) & !Q(K)",
            &["Hep(Eric)", "Hep(Eric) & Hep(Tom)", "Hep(Eric) & R(D)"],
        );
    }

    #[test]
    fn a_fact_a_universal_forbids_voids_the_kb() {
        let kb_src = "||Hep(x) | Jaun(x)||_x ~=_1 0.8; Jaun(Eric); forall x (!P(x)); P(K)";
        assert_undefined(kb_src, &["Hep(Eric)", "Hep(Eric) & Hep(Tom)"]);
        // A fact that is not a literal, and one the universals allow.
        let kb_src = "||Hep(x) | Jaun(x)||_x ~=_1 0.8; Jaun(Eric); \
                      forall x (P(x) => Q(x)); forall x (!Q(x)); P(K) or Q(K)";
        assert_undefined(kb_src, &["Hep(Eric)"]);
        let kb_src =
            "||Hep(x) | Jaun(x)||_x ~=_1 0.8; Jaun(Eric); forall x (P(x) => Q(x)); P(K); Q(K)";
        let r = answer(&RandomWorlds::new(), kb_src, "Hep(Eric)");
        assert_eq!(r.belief, Belief::Point(0.8));
    }

    #[test]
    fn a_statement_no_large_domain_satisfies_voids_the_kb() {
        assert_undefined(
            "||Hep(x) | Jaun(x)||_x ~=_1 0.8; Jaun(Eric); forall x, y (x = y)",
            &["Hep(Eric)", "Jaun(Eric)"],
        );
    }

    /// [`try_or_rule`] on `kb_src ⊢ P(C)` with every disjunct answered
    /// `(belief, provenance)`, and the number of disjuncts it asked about.
    fn or_rule_stubbed(
        kb_src: &str,
        belief: Belief,
        provenance: Provenance,
    ) -> (Option<(Belief, Provenance)>, usize) {
        let mut kb = KnowledgeBase::parse(kb_src).unwrap();
        let query = kb.parse_query("P(C)").unwrap();
        let calls = std::cell::Cell::new(0);
        let recurse = |_: &KnowledgeBase, _: &Formula| {
            calls.set(calls.get() + 1);
            Some((belief.clone(), provenance.clone()))
        };
        let out = try_or_rule(&kb, &query, &classify(&kb), &recurse);
        (out, calls.get())
    }

    /// [`or_rule_stubbed`] with every disjunct entailed.
    fn or_rule_counting(kb_src: &str) -> (Option<(Belief, Provenance)>, usize) {
        or_rule_stubbed(kb_src, Belief::Point(1.0), Provenance::Entailed)
    }

    fn arms(k: usize) -> String {
        let arms: Vec<String> = (0..k).map(|i| format!("P(C{i})")).collect();
        arms.join(" or ")
    }

    #[test]
    fn or_rule_answers_one_when_every_disjunct_does() {
        let kb_src = "||Q(x) | P(x)||_x ~=_1 1; ||Q(x) | R(x)||_x ~=_2 1; P(C) or R(C)";
        let r = answer(&RandomWorlds::new(), kb_src, "Q(C)");
        assert_eq!(r.belief, Belief::Point(1.0));
        let arm = Box::new(Provenance::DirectInference);
        assert_eq!(r.provenance, Provenance::OrRule(vec![arm.clone(), arm]));
        // The theorem stage answers it without leaving the stage.
        assert_eq!(r.trace.to_string(), "theorems answered");
        assert_eq!(
            r.provenance.to_string(),
            "Or rule (Thm 5.3) of [direct inference (Thm 5.6); direct inference (Thm 5.6)]"
        );
    }

    #[test]
    fn or_rule_answers_zero_when_every_disjunct_does() {
        let kb_src = "||Q(x) | P(x)||_x ~=_1 0; ||Q(x) | R(x)||_x ~=_2 0; P(C) or R(C)";
        let r = answer(&RandomWorlds::new(), kb_src, "Q(C)");
        assert_eq!(r.belief, Belief::Point(0.0));
        assert!(matches!(r.provenance, Provenance::OrRule(parts) if parts.len() == 2));
    }

    #[test]
    fn or_rule_declines_disjuncts_merely_close_to_one() {
        // Each disjunct's direct inference is 0.999 — a default conclusion
        // under `|~rw`'s 2e-3, but no limit of 1 — so the union bound
        // proves nothing and maxent answers the KB with about 0.999.
        let kb_src = "||Q(x) | P(x)||_x ~=_1 0.999; ||Q(x) | R(x)||_x ~=_2 0.999; P(C) or R(C)";
        let engine = RandomWorlds::new();
        let r = answer(&engine, kb_src, "Q(C)");
        assert_eq!(r.provenance, Provenance::MaxEnt, "{r}");
        let v = r.belief.as_point().unwrap();
        assert!(v < 1.0 && (v - 0.999).abs() < 2e-3, "{r}");
        // Likewise at 0.001 for the 0 side.
        let kb_src = "||Q(x) | P(x)||_x ~=_1 0.001; ||Q(x) | R(x)||_x ~=_2 0.001; P(C) or R(C)";
        let r = answer(&engine, kb_src, "Q(C)");
        assert_eq!(r.provenance, Provenance::MaxEnt, "{r}");
        assert!(r.belief.as_point().unwrap() > 0.0, "{r}");
    }

    #[test]
    fn or_rule_accepts_maxent_disjuncts_at_its_resolution() {
        // Example 5.4's disjuncts: maxent reads 1 − 1.06e-7 for each.
        let kb_src = "||LeftUsable(x)||_x ~=_1 1; ||LeftUsable(x) | LeftBroken(x)||_x ~=_2 0; \
                      ||RightUsable(x)||_x ~=_3 1; ||RightUsable(x) | RightBroken(x)||_x ~=_4 0; \
                      LeftBroken(Eric) or RightBroken(Eric)";
        let r = answer(
            &RandomWorlds::new(),
            kb_src,
            "!LeftUsable(Eric) or !RightUsable(Eric)",
        );
        assert_eq!(r.belief, Belief::Point(1.0));
        let arm = Box::new(Provenance::MaxEnt);
        assert_eq!(r.provenance, Provenance::OrRule(vec![arm.clone(), arm]));
    }

    #[test]
    fn or_rule_declines_inexact_disjuncts() {
        // A counting stage's extrapolation and a sampled estimate never
        // count as an exact 1, even when they read 1: the rule stops at
        // the first disjunct.
        let counted = Provenance::Enumeration {
            max_n: 4,
            visited: 1,
            branched: 0,
            orbits: 0,
        };
        assert_eq!(
            or_rule_stubbed(&arms(8), Belief::Point(1.0), counted),
            (None, 1)
        );
        let sampled = Belief::Approximate {
            value: 1.0,
            ci_half_width: 0.0,
        };
        let mc = Provenance::MonteCarlo {
            drawn: 1,
            accepted: 1,
            n_points: 1,
        };
        assert_eq!(or_rule_stubbed(&arms(8), sampled, mc), (None, 1));
    }

    /// A stage that declines and tallies its runs.
    struct CountingProbe(std::sync::Arc<std::sync::atomic::AtomicUsize>);

    impl crate::Solver for CountingProbe {
        fn name(&self) -> &str {
            "probe"
        }

        fn solve(
            &self,
            _: &KnowledgeBase,
            _: &Formula,
            _: &crate::Budget,
            _: &Recurse<'_>,
        ) -> crate::SolverOutcome {
            self.0.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
            crate::SolverOutcome::Declined {
                reason: "probe".to_string(),
            }
        }
    }

    #[test]
    fn or_rule_stops_at_the_first_disjunct_past_the_theorem_stage() {
        // The theorem stage answers the first disjunct 1 and no other.
        // The second runs the stage after it and fails, so the third never
        // runs: the probe sees that disjunct and the KB's own query only.
        let runs = std::sync::Arc::new(std::sync::atomic::AtomicUsize::new(0));
        let engine = RandomWorlds::new().with_solvers(vec![
            crate::Stage::new(Box::new(crate::solvers::TheoremSolver)),
            crate::Stage::new(Box::new(CountingProbe(runs.clone()))),
        ]);
        let kb = KnowledgeBase::parse("(Likes(A, B) & Likes(B, B)) or Likes(B, A) or Likes(A, A)")
            .unwrap();
        let err = engine.answer(&kb, "Likes(A, B)").unwrap_err();
        assert!(err.to_string().contains("probe declined"), "{err}");
        assert_eq!(runs.load(std::sync::atomic::Ordering::Relaxed), 2);
    }

    #[test]
    fn or_rule_declines_mixed_disjuncts() {
        // E22: `C1 = C2` is 1 under the first disjunct and 0 under the
        // others, so the rule says nothing and enumeration answers ≈ 1/3.
        let r = answer(
            &RandomWorlds::new(),
            "C1 = C2 or C2 = C3 or C1 = C3",
            "C1 = C2",
        );
        assert!(
            matches!(r.provenance, Provenance::Enumeration { .. }),
            "{r}"
        );
        let v = r.belief.as_point().unwrap();
        assert!((v - 1.0 / 3.0).abs() < 0.05, "{r}");
    }

    #[test]
    fn or_rule_splits_at_most_eight_disjuncts() {
        let (out, calls) = or_rule_counting(&arms(8));
        assert_eq!(out.map(|(b, _)| b), Some(Belief::Point(1.0)));
        assert_eq!(calls, 8);
        assert_eq!(or_rule_counting(&arms(9)), (None, 0));
        // Two disjunctive conjuncts: no single split, so no call either.
        assert_eq!(or_rule_counting("P(A) or P(B); P(D) or P(E)"), (None, 0));
    }

    #[test]
    fn or_rule_declines_a_disjunct_with_a_disjunction_of_its_own() {
        let (out, calls) = or_rule_counting("(P(A) & P(B)) or P(D)");
        assert!(out.is_some() && calls == 2);
        assert_eq!(
            or_rule_counting("(P(A) & (P(B) or P(E))) or P(D)"),
            (None, 0)
        );
    }

    #[test]
    fn or_rule_declines_sampled_disjuncts() {
        // Maxent answers each disjunct 1 on the exact engine.
        let kb_src = "||Hep(x) | Jaun(x)||_x ~=_1 1; \
                      (Jaun(Eric) & Jaun(Tom)) or (Jaun(Eric) & Jaun(Tom) & Fever(Eric))";
        let q = "Hep(Eric) & Hep(Tom)";
        let r = answer(&RandomWorlds::new(), kb_src, q);
        assert_eq!(r.belief, Belief::Point(1.0));
        assert!(matches!(r.provenance, Provenance::OrRule(_)), "{r}");
        // An approx engine samples the first disjunct: an estimate is
        // never promoted to an exact 1, and the sampler answers the KB.
        let approx = RandomWorlds::from(crate::EngineConfig {
            approx: Some(crate::McConfig::default()),
            ..crate::EngineConfig::default()
        });
        let r = answer(&approx, kb_src, q);
        assert!(matches!(r.belief, Belief::Approximate { .. }), "{r}");
    }
}
