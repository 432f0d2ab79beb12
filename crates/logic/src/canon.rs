//! Canonical query forms and knowledge-base fingerprints.
//!
//! Grove–Halpern–Koller's "Random Worlds and Maximum Entropy" observes
//! that many distinct surface queries reduce to the same unary/maxent
//! subproblem; an answer cache therefore wants a key that identifies a
//! query *up to the syntactic variation that cannot change its degree of
//! belief*. This module provides that key:
//!
//! * [`canonical_formula`] renders a formula as a name-based string that
//!   is invariant under
//!   - interning order (symbols appear by *name*, not by id, so the same
//!     query parsed into two different [`Vocabulary`]s agrees),
//!   - alpha-renaming of bound variables (binders print positionally),
//!   - reordering, reassociation and duplication of the commutative
//!     connectives (`&`, `or`, `<=>`, `+`, `*`, and both symmetric
//!     comparison shapes) — `&` and `or` are n-ary in the AST, so their
//!     children are only sorted and deduped here, while the binary `+`
//!     and `*` chains are flattened first — and
//!   - double negation;
//! * [`canonical_formula_over`] is the same string with chosen free
//!   variables printed as binder positions, so formulas over
//!   corresponding free variables agree whatever those variables are
//!   called. The theorem stage decides every "same formula" question
//!   through it: statistic keys, direct inference, reference classes,
//!   Dempster's `∃!` pairs, nested defaults and the `∃!` desugaring;
//! * [`kb_fingerprint`] hashes a whole [`KnowledgeBase`] — canonical
//!   conjuncts in assertion order — to a 64-bit FNV-1a value.
//!
//! Every rewrite above is an *equivalence* of `L≈` (conjunction and
//! disjunction are commutative, associative and idempotent; `≈_i` and `=`
//! are symmetric; `¬¬φ ≡ φ`), so two formulas with equal canonical forms
//! always denote the same proportion/degree of belief. The converse is
//! deliberately not attempted: canonicalization is a cheap syntactic
//! normal form, not a theorem prover.

use crate::ast::{CmpOp, Formula, PropExpr, Term};
use crate::kb::KnowledgeBase;
use crate::vocab::{VarId, Vocabulary};

/// 64-bit FNV-1a over a byte slice — the workspace-local stable hash
/// (`std`'s `DefaultHasher` is explicitly not stable across releases).
pub fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// The canonical string form of a formula (see the module docs for the
/// invariances). Free variables print by name, bound variables by binder
/// position, symbols by interned name.
///
/// ```
/// use rw_logic::{canon, KnowledgeBase};
/// let mut kb = KnowledgeBase::parse("||Hep(x) | Jaun(x)||_x ~=_1 0.8").unwrap();
/// let a = kb.parse_query("Hep(Eric) & !!Jaun(Eric)").unwrap();
/// let b = kb.parse_query("Jaun(Eric) & Hep(Eric)").unwrap();
/// assert_eq!(
///     canon::canonical_formula(kb.vocab(), &a),
///     canon::canonical_formula(kb.vocab(), &b),
/// );
/// ```
pub fn canonical_formula(vocab: &Vocabulary, f: &Formula) -> String {
    canonical_formula_over(vocab, f, &[])
}

/// [`canonical_formula`] with `free[i]` printed as binder position `i`
/// (bound variables then number from `free.len()`), so `φ(x)` over `[x]`
/// and `φ(y)` over `[y]` agree. Other free variables print by name.
pub fn canonical_formula_over(vocab: &Vocabulary, f: &Formula, free: &[VarId]) -> String {
    canon_formula(f, vocab, &mut free.to_vec())
}

/// A stable 64-bit fingerprint of a knowledge base: FNV-1a over the
/// canonical forms of its conjuncts, in assertion order.
///
/// Conjunct order and multiplicity are deliberately *kept significant*:
/// they cannot change the semantics, but downstream engines classify
/// conjuncts positionally, so two KBs share a fingerprint only when their
/// conjuncts are canonically equal one for one, in the same order.
/// Vocabulary-only differences (extra interned symbols from earlier
/// queries) do not affect the fingerprint — degrees of belief are
/// invariant under vocabulary expansion (paper footnote 8).
pub fn kb_fingerprint(kb: &KnowledgeBase) -> u64 {
    let mut src = String::new();
    for c in kb.conjuncts() {
        src.push_str(&canonical_formula(kb.vocab(), c));
        src.push(';');
    }
    fnv1a(src.as_bytes())
}

/// A stable 64-bit fingerprint of a vocabulary's **shape**: predicate
/// and function arities in interning order plus the constant count.
///
/// [`kb_fingerprint`] deliberately ignores vocabulary-only differences
/// (degrees of belief are invariant under vocabulary expansion), but raw
/// finite-`N` *world counts* are not — every interned symbol contributes
/// slots whether or not the knowledge base mentions it (a fresh query
/// constant alone multiplies `#worlds_N` by `N`). Caches of such counts
/// key on this fingerprint alongside the KB's.
pub fn vocab_fingerprint(vocab: &Vocabulary) -> u64 {
    let mut src = String::new();
    for p in vocab.preds() {
        src.push_str(&format!("P{};", vocab.pred_arity(p)));
    }
    for f in vocab.funcs() {
        src.push_str(&format!("F{};", vocab.func_arity(f)));
    }
    src.push_str(&format!("C{}", vocab.const_count()));
    fnv1a(src.as_bytes())
}

fn canon_term(t: &Term, vocab: &Vocabulary, env: &[VarId]) -> String {
    match t {
        Term::Var(v) => {
            // Innermost binding wins, printed by absolute binder position
            // so alpha-renamed formulas agree; free variables by name.
            match env.iter().rposition(|b| b == v) {
                Some(i) => format!("${i}"),
                None => format!("?{}", vocab.var_name(*v)),
            }
        }
        Term::Const(c) => format!("c:{}", vocab.const_name(*c)),
        Term::App(f, args) => {
            let args: Vec<String> = args.iter().map(|a| canon_term(a, vocab, env)).collect();
            format!("f:{}({})", vocab.func_name(*f), args.join(","))
        }
    }
}

/// Canonicalizes the children of an n-ary `&`/`or`, then sorts and
/// dedupes them (idempotence). A single survivor stands for the whole
/// junction, so `φ & φ` and `φ` agree.
fn junction(parts: &[Formula], op: &str, vocab: &Vocabulary, env: &mut Vec<VarId>) -> String {
    let mut out: Vec<String> = parts.iter().map(|g| canon_formula(g, vocab, env)).collect();
    out.sort();
    out.dedup();
    if out.len() == 1 {
        out.pop().expect("one operand")
    } else {
        format!("{op}({})", out.join(","))
    }
}

fn canon_formula(f: &Formula, vocab: &Vocabulary, env: &mut Vec<VarId>) -> String {
    match f {
        Formula::True => "T".to_string(),
        Formula::False => "F".to_string(),
        Formula::Pred(p, args) => {
            let args: Vec<String> = args.iter().map(|a| canon_term(a, vocab, env)).collect();
            format!("P:{}({})", vocab.pred_name(*p), args.join(","))
        }
        Formula::TermEq(a, b) => {
            // Term equality is symmetric.
            let mut sides = [canon_term(a, vocab, env), canon_term(b, vocab, env)];
            sides.sort();
            format!("=({},{})", sides[0], sides[1])
        }
        Formula::Not(g) => match g.as_ref() {
            // ¬¬φ ≡ φ.
            Formula::Not(h) => canon_formula(h, vocab, env),
            _ => format!("!({})", canon_formula(g, vocab, env)),
        },
        Formula::And(parts) => junction(parts, "&", vocab, env),
        Formula::Or(parts) => junction(parts, "|", vocab, env),
        Formula::Implies(a, b) => format!(
            "=>({},{})",
            canon_formula(a, vocab, env),
            canon_formula(b, vocab, env)
        ),
        Formula::Iff(a, b) => {
            // `<=>` is symmetric.
            let mut sides = [canon_formula(a, vocab, env), canon_formula(b, vocab, env)];
            sides.sort();
            format!("<=>({},{})", sides[0], sides[1])
        }
        Formula::Forall(v, g) => {
            env.push(*v);
            let body = canon_formula(g, vocab, env);
            env.pop();
            format!("A({body})")
        }
        Formula::Exists(v, g) => {
            env.push(*v);
            let body = canon_formula(g, vocab, env);
            env.pop();
            format!("E({body})")
        }
        Formula::Cmp(l, op, r) => {
            let mut lhs = canon_prop(l, vocab, env);
            let mut rhs = canon_prop(r, vocab, env);
            let op = match op {
                CmpOp::ApproxEq(t) => {
                    // `|ζ - ζ'| ≤ τ_i` is symmetric in its sides.
                    if rhs < lhs {
                        std::mem::swap(&mut lhs, &mut rhs);
                    }
                    format!("~={}", t.0)
                }
                CmpOp::ApproxLeq(t) => format!("<~{}", t.0),
                CmpOp::Eq => {
                    if rhs < lhs {
                        std::mem::swap(&mut lhs, &mut rhs);
                    }
                    "==".to_string()
                }
                CmpOp::Leq => "<=".to_string(),
            };
            format!("cmp[{op}]({lhs},{rhs})")
        }
    }
}

/// Flattens, sorts and dedupes a run of one commutative proportion
/// operator (`+` or `*`; both commute and associate over the reals, and
/// unlike formulas they are **not** deduped — `ζ + ζ ≠ ζ`).
fn commutative_prop_operands(
    e: &PropExpr,
    pick: fn(&PropExpr) -> Option<(&PropExpr, &PropExpr)>,
    vocab: &Vocabulary,
    env: &mut Vec<VarId>,
) -> Vec<String> {
    let mut stack = vec![e];
    let mut out = Vec::new();
    while let Some(g) = stack.pop() {
        match pick(g) {
            Some((a, b)) => {
                stack.push(a);
                stack.push(b);
            }
            None => out.push(canon_prop(g, vocab, env)),
        }
    }
    out.sort();
    out
}

fn canon_prop(e: &PropExpr, vocab: &Vocabulary, env: &mut Vec<VarId>) -> String {
    match e {
        PropExpr::Rat(r) => format!("r:{}/{}", r.num(), r.den()),
        PropExpr::Prop { body, cond, vars } => {
            let n = env.len();
            env.extend(vars.iter().copied());
            let body_s = canon_formula(body, vocab, env);
            let cond_s = cond
                .as_ref()
                .map(|c| canon_formula(c, vocab, env))
                .unwrap_or_default();
            env.truncate(n);
            format!("prop{}({body_s}|{cond_s})", vars.len())
        }
        PropExpr::Add(..) => {
            let parts = commutative_prop_operands(
                e,
                |g| match g {
                    PropExpr::Add(a, b) => Some((a, b)),
                    _ => None,
                },
                vocab,
                env,
            );
            format!("+({})", parts.join(","))
        }
        PropExpr::Mul(..) => {
            let parts = commutative_prop_operands(
                e,
                |g| match g {
                    PropExpr::Mul(a, b) => Some((a, b)),
                    _ => None,
                },
                vocab,
                env,
            );
            format!("*({})", parts.join(","))
        }
        PropExpr::Sub(a, b) => format!(
            "-({},{})",
            canon_prop(a, vocab, env),
            canon_prop(b, vocab, env)
        ),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn canon_of(kb_src: &str, query: &str) -> String {
        let mut kb = KnowledgeBase::parse(kb_src).unwrap();
        let q = kb.parse_query(query).unwrap();
        canonical_formula(kb.vocab(), &q)
    }

    #[test]
    fn commuted_conjunctions_and_disjunctions_agree() {
        let kb = "Hep(Eric); Jaun(Eric); Fever(Eric)";
        assert_eq!(
            canon_of(kb, "Hep(Eric) & Jaun(Eric)"),
            canon_of(kb, "Jaun(Eric) & Hep(Eric)")
        );
        assert_eq!(
            canon_of(kb, "(Hep(Eric) & Jaun(Eric)) & Fever(Eric)"),
            canon_of(kb, "Fever(Eric) & (Jaun(Eric) & Hep(Eric))")
        );
        assert_eq!(
            canon_of(kb, "Hep(Eric) or Jaun(Eric)"),
            canon_of(kb, "Jaun(Eric) or Hep(Eric)")
        );
        // Idempotence.
        assert_eq!(
            canon_of(kb, "Hep(Eric) & Hep(Eric)"),
            canon_of(kb, "Hep(Eric)")
        );
    }

    #[test]
    fn double_negation_cancels() {
        let kb = "Hep(Eric)";
        assert_eq!(canon_of(kb, "!!Hep(Eric)"), canon_of(kb, "Hep(Eric)"));
        assert_eq!(canon_of(kb, "!!!Hep(Eric)"), canon_of(kb, "!Hep(Eric)"));
        assert_ne!(canon_of(kb, "!Hep(Eric)"), canon_of(kb, "Hep(Eric)"));
    }

    #[test]
    fn alpha_renamed_binders_agree() {
        let kb = "P(C)";
        assert_eq!(
            canon_of(kb, "forall x (P(x))"),
            canon_of(kb, "forall y (P(y))")
        );
        assert_eq!(
            canon_of(kb, "||P(x) | Q(x)||_x ~=_1 0.5"),
            canon_of(kb, "||P(w) | Q(w)||_w ~=_1 0.5")
        );
    }

    #[test]
    fn symmetric_comparisons_agree_and_tolerances_distinguish() {
        let kb = "P(C)";
        assert_eq!(
            canon_of(kb, "||P(x)||_x ~=_1 0.5"),
            canon_of(kb, "0.5 ~=_1 ||P(x)||_x")
        );
        assert_ne!(
            canon_of(kb, "||P(x)||_x ~=_1 0.5"),
            canon_of(kb, "||P(x)||_x ~=_2 0.5")
        );
        // `⪯` is *not* symmetric.
        assert_ne!(
            canon_of(kb, "||P(x)||_x <~_1 0.5"),
            canon_of(kb, "0.5 <~_1 ||P(x)||_x")
        );
    }

    #[test]
    fn term_equality_is_symmetric() {
        let kb = "P(A); P(B)";
        assert_eq!(canon_of(kb, "A = B"), canon_of(kb, "B = A"));
    }

    #[test]
    fn interning_order_does_not_matter() {
        // Same query text, but the vocabularies interned the symbols in
        // different orders (ids differ); canonical forms still agree.
        let a = canon_of("Jaun(Eric); Hep(Tom)", "Hep(Eric) & Jaun(Eric)");
        let b = canon_of("Hep(Tom); Jaun(Eric)", "Hep(Eric) & Jaun(Eric)");
        assert_eq!(a, b);
    }

    #[test]
    fn free_variables_print_by_name() {
        let mut kb = KnowledgeBase::parse("P(C)").unwrap();
        let open = kb.parse_query("P(z)").unwrap();
        let s = canonical_formula(kb.vocab(), &open);
        assert!(s.contains("?z"), "{s}");
    }

    /// [`canonical_formula_over`] of `src`, parsed against `kb`, with the
    /// named variables free in that order.
    fn over(kb: &mut KnowledgeBase, src: &str, free: &[&str]) -> String {
        let f = kb.parse_query(src).unwrap();
        let free: Vec<VarId> = free.iter().map(|v| kb.vocab_mut().var(v)).collect();
        canonical_formula_over(kb.vocab(), &f, &free)
    }

    #[test]
    fn keys_over_free_variables() {
        let mut kb = KnowledgeBase::parse("true").unwrap();
        // Alpha-variants agree; `P ⇒ Q` is not `Q ⇒ P`.
        let a = over(&mut kb, "forall x (P(x) => Q(x))", &[]);
        assert_eq!(a, over(&mut kb, "forall y (P(y) => Q(y))", &[]));
        assert_ne!(a, over(&mut kb, "forall y (Q(y) => P(y))", &[]));
        let d = over(&mut kb, "||P(x)||_x ~=_1 1", &[]);
        assert_eq!(d, over(&mut kb, "||P(w)||_w ~=_1 1", &[]));
        assert_ne!(d, over(&mut kb, "||P(w)||_w ~=_2 1", &[]));
        // Conjunct order does not matter.
        assert_eq!(
            over(&mut kb, "P(C) & Q(C) & S(C)", &[]),
            over(&mut kb, "S(C) & P(C) & Q(C)", &[])
        );
        // Free variables at corresponding positions agree whatever their
        // names, and their positions matter.
        let r = over(&mut kb, "R(x, y) & P(x)", &["x", "y"]);
        assert_eq!(r, over(&mut kb, "P(u) & R(u, v)", &["u", "v"]));
        assert_ne!(r, over(&mut kb, "R(x, y) & P(x)", &["y", "x"]));
        // Unlisted free variables print by name.
        assert_ne!(over(&mut kb, "P(x)", &[]), over(&mut kb, "P(y)", &[]));
        // A listed variable rebound inside is the binder's.
        assert_eq!(
            over(&mut kb, "P(x) & exists x (Q(x))", &["x"]),
            over(&mut kb, "P(y) & exists z (Q(z))", &["y"])
        );
    }

    #[test]
    fn fingerprints_are_stable_and_order_sensitive() {
        let kb1 = KnowledgeBase::parse("P(A); Q(A)").unwrap();
        let kb2 = KnowledgeBase::parse("P(A); Q(A)").unwrap();
        assert_eq!(kb_fingerprint(&kb1), kb_fingerprint(&kb2));
        let swapped = KnowledgeBase::parse("Q(A); P(A)").unwrap();
        assert_ne!(kb_fingerprint(&kb1), kb_fingerprint(&swapped));
        let different = KnowledgeBase::parse("P(A); Q(B)").unwrap();
        assert_ne!(kb_fingerprint(&kb1), kb_fingerprint(&different));
    }

    #[test]
    fn fingerprint_ignores_vocabulary_only_expansion() {
        let kb1 = KnowledgeBase::parse("P(A)").unwrap();
        let mut kb2 = KnowledgeBase::parse("P(A)").unwrap();
        // Parsing a query interns new symbols without asserting anything.
        let _ = kb2.parse_query("Q(B)").unwrap();
        assert_eq!(kb_fingerprint(&kb1), kb_fingerprint(&kb2));
    }

    #[test]
    fn fnv1a_matches_reference_vectors() {
        // Standard FNV-1a test vectors.
        assert_eq!(fnv1a(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv1a(b"foobar"), 0x85944171f73967e8);
    }
}
