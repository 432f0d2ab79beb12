//! KB-aware proposal construction: sample the knowledge base's unary
//! statistical constraints and asserted ground facts *directly* instead
//! of hoping a fair-coin world survives rejection.
//!
//! The proposal stays **exact** via importance weighting: every bit whose
//! proposal probability deviates from the uniform 1/2 contributes the
//! factor `0.5 / q(chosen)` to the draw's weight, and the estimator in
//! [`crate::mc::stats`] self-normalizes, so any bias (clamped away from 0
//! and 1 to keep the proposal's support full) yields a consistent
//! estimate. Rejection against the full KB remains the soundness gate —
//! the plan only concentrates the proposal where the KB's mass is.
//!
//! Three constraint shapes are compiled; everything else falls back to
//! uniform bits:
//!
//! * **asserted ground literals** (`P(c̄)`, `!Q(c)`, `!!R(c, d)` …):
//!   once the draw's constant denotations are fixed, the corresponding
//!   predicate bit is *forced* — every KB-satisfying world agrees on it,
//!   so forcing is plain conditioning (weight factor 0.5 per distinct
//!   forced bit). Two forced literals colliding on one bit with opposite
//!   values mean no world with those denotations satisfies the KB, and
//!   the draw is rejected outright.
//! * **unconditional unary proportions** `||P(x)||_x ≈ α`: every `P` bit
//!   is proposed at `α`, concentrating the empirical frequency inside
//!   the tolerance band (a fair coin leaves acceptance exponentially
//!   small in `N` for `α` far from 1/2).
//! * **conditional unary proportions** `||P(x) | Q(x)||_x ≈ α` with `P ≠
//!   Q`: `P(e)` is proposed at `α` when the already-drawn `Q(e)` holds
//!   (and at `P`'s base rate otherwise), with predicates ordered so `Q`'s
//!   bits exist first; dependency cycles demote the rule to its
//!   unconditional base.

use crate::compile::SlotLayout;
use rw_logic::ast::{CmpOp, Formula, PropExpr, Term};
use rw_logic::{analysis, KnowledgeBase, PredId};
use rw_util::{Rng, StdRng};
use std::collections::BTreeMap;

/// Proposal biases are clamped into `[MIN_BIAS, 1 - MIN_BIAS]` so the
/// proposal's support covers every world (a hard 0/1 bias would assign
/// zero probability to worlds the posterior may still reach within the
/// tolerance band, biasing the estimator).
const MIN_BIAS: f64 = 0.05;

/// A biased coin with its importance-weight factors precomputed: a bit
/// drawn `false` multiplies the weight by `factor[0] = 0.5 / (1 − p)`, a
/// `true` bit by `factor[1] = 0.5 / p`. Both are the quotients the
/// per-bit division used to produce, so weights stay bit-identical; a
/// fair coin's factors are exactly `1.0`, which leave a weight unchanged.
#[derive(Clone, Copy, Debug, PartialEq)]
struct Coin {
    p: f64,
    factor: [f64; 2],
}

impl Coin {
    const FAIR: Coin = Coin {
        p: 0.5,
        factor: [1.0, 1.0],
    };

    fn new(p: f64) -> Coin {
        Coin {
            p,
            factor: [0.5 / (1.0 - p), 0.5 / p],
        }
    }
}

/// How one predicate's bits are proposed.
#[derive(Clone, Copy, Debug, PartialEq)]
enum BitRule {
    /// Fair coin (weight-neutral).
    Uniform,
    /// The same coin for every bit.
    Base(Coin),
    /// Unary only: the `then` coin where the already-drawn `on` bit of
    /// the same element holds, the `els` coin otherwise.
    Cond { on: PredId, then: Coin, els: Coin },
}

/// A ground literal asserted by the KB: predicate, constant arguments,
/// required truth value.
#[derive(Clone, Debug, PartialEq)]
struct ForcedLiteral {
    pred: PredId,
    args: Vec<usize>, // constant indices
    value: bool,
}

/// A compiled sampling proposal for one knowledge base (domain-size
/// independent; build once, draw at any `n`).
#[derive(Clone, Debug)]
pub struct SamplePlan {
    /// Per-predicate proposal rule, indexed by predicate id.
    rules: Vec<BitRule>,
    /// Predicate order honoring `Cond` dependencies.
    order: Vec<usize>,
    /// Asserted ground literals to force after constants are drawn.
    forced: Vec<ForcedLiteral>,
}

/// `P(c̄)` / `!P(c̄)` (modulo double negation) with all-constant
/// arguments, as `(pred, const indices, polarity)` — the shared
/// recognizer from `rw_logic::analysis`, with ids mapped to raw indices.
fn as_ground_literal(f: &Formula) -> Option<(PredId, Vec<usize>, bool)> {
    let (p, args, value) = analysis::as_ground_literal(f)?;
    Some((p, args.into_iter().map(|c| c.index()).collect(), value))
}

/// `||body(x)||_x` or `||body(x) | cond(x)||_x` compared (approximately)
/// equal to a rational: `(body pred, polarity, cond pred, α)`.
fn as_unary_stat(f: &Formula) -> Option<(PredId, bool, Option<PredId>, f64)> {
    let Formula::Cmp(lhs, op, rhs) = f else {
        return None;
    };
    if !matches!(op, CmpOp::ApproxEq(_) | CmpOp::Eq) {
        return None;
    }
    let (prop, alpha) = match (lhs, rhs) {
        (p @ PropExpr::Prop { .. }, PropExpr::Rat(r)) => (p, r.to_f64()),
        (PropExpr::Rat(r), p @ PropExpr::Prop { .. }) => (p, r.to_f64()),
        _ => return None,
    };
    let PropExpr::Prop { body, cond, vars } = prop else {
        return None;
    };
    let [x] = vars.as_slice() else {
        return None;
    };
    let unary_atom = |g: &Formula| match g {
        Formula::Pred(p, args) if args.as_slice() == [Term::Var(*x)] => Some(*p),
        _ => None,
    };
    let (body_pred, value) = match body.as_ref() {
        Formula::Not(inner) => (unary_atom(inner)?, false),
        other => (unary_atom(other)?, true),
    };
    let cond_pred = match cond {
        None => None,
        Some(c) => Some(unary_atom(c)?),
    };
    let alpha = if value { alpha } else { 1.0 - alpha };
    Some((body_pred, value, cond_pred, alpha))
}

impl SamplePlan {
    /// Compiles a proposal from the KB's flattened conjuncts.
    pub fn build(kb: &KnowledgeBase) -> SamplePlan {
        let vocab = kb.vocab();
        let pred_count = vocab.pred_count();
        let mut forced = Vec::new();
        let mut base: BTreeMap<usize, f64> = BTreeMap::new();
        let mut cond: BTreeMap<usize, (PredId, f64)> = BTreeMap::new();
        for conjunct in kb.conjuncts() {
            for f in conjunct.conjuncts() {
                if let Some((p, args, value)) = as_ground_literal(f) {
                    forced.push(ForcedLiteral {
                        pred: p,
                        args,
                        value,
                    });
                    continue;
                }
                if let Some((p, _, c, alpha)) = as_unary_stat(f) {
                    if vocab.pred_arity(p) != 1 {
                        continue;
                    }
                    match c {
                        None => {
                            base.entry(p.index()).or_insert(alpha);
                        }
                        Some(q) if q != p && vocab.pred_arity(q) == 1 => {
                            cond.entry(p.index()).or_insert((q, alpha));
                        }
                        _ => {}
                    }
                }
            }
        }
        let coin = |a: f64| Coin::new(a.clamp(MIN_BIAS, 1.0 - MIN_BIAS));
        let mut rules: Vec<BitRule> = (0..pred_count)
            .map(|i| {
                if let Some(&(on, alpha)) = cond.get(&i) {
                    BitRule::Cond {
                        on,
                        then: coin(alpha),
                        els: coin(base.get(&i).copied().unwrap_or(0.5)),
                    }
                } else if let Some(&alpha) = base.get(&i) {
                    BitRule::Base(coin(alpha))
                } else {
                    BitRule::Uniform
                }
            })
            .collect();

        // Kahn ordering over Cond dependencies; a cycle demotes the
        // remaining conditional rules to their unconditional base rate.
        let mut order = Vec::with_capacity(pred_count);
        let mut placed = vec![false; pred_count];
        loop {
            let mut progressed = false;
            for i in 0..pred_count {
                if placed[i] {
                    continue;
                }
                let ready = match rules[i] {
                    BitRule::Cond { on, .. } => placed[on.index()],
                    _ => true,
                };
                if ready {
                    placed[i] = true;
                    order.push(i);
                    progressed = true;
                }
            }
            if order.len() == pred_count {
                break;
            }
            if !progressed {
                for i in 0..pred_count {
                    if !placed[i] {
                        if let BitRule::Cond { els, .. } = rules[i] {
                            rules[i] = BitRule::Base(els);
                        }
                        placed[i] = true;
                        order.push(i);
                    }
                }
                break;
            }
        }

        SamplePlan {
            rules,
            order,
            forced,
        }
    }

    /// Predicates whose bits are proposed non-uniformly.
    pub fn biased_preds(&self) -> usize {
        self.rules
            .iter()
            .filter(|r| !matches!(r, BitRule::Uniform))
            .count()
    }

    /// Asserted ground literals the plan forces.
    pub fn forced_literals(&self) -> usize {
        self.forced.len()
    }

    /// True when the plan is pure coin-flip rejection (no bias, nothing
    /// forced) — i.e. every draw has weight exactly 1.
    pub fn is_uniform(&self) -> bool {
        self.forced.is_empty() && self.biased_preds() == 0
    }

    /// Draws one world from the proposal into `slots`, a full assignment
    /// in `layout`'s order (every slot is rewritten). Returns the draw's
    /// importance weight relative to the uniform distribution, or `None`
    /// when the drawn constant denotations make the forced literals
    /// contradictory (no world with those denotations satisfies the KB —
    /// an immediate rejection). `forced` is scratch space reused across
    /// draws.
    ///
    /// The random stream is fixed: constants, then function entries,
    /// then predicate bits in dependency order, one call each, with
    /// forced bits taking none.
    pub fn draw(
        &self,
        layout: &SlotLayout,
        slots: &mut [usize],
        forced: &mut Vec<(usize, bool)>,
        stream: &mut StdRng,
    ) -> Option<f64> {
        // Advance a local copy and store it back once: a generator behind
        // `&mut` would have to be written back before every bounds check
        // that could unwind, which costs more than the bits themselves.
        let mut rng = stream.clone();
        let n = layout.n();
        for s in layout.const_slots().chain(layout.func_slots()) {
            slots[s] = rng.gen_range(0..n);
        }
        // Forced bits under this draw's constant denotations, sorted and
        // deduplicated by slot; an opposite-valued collision is a
        // structural rejection.
        forced.clear();
        for lit in &self.forced {
            let idx = lit
                .args
                .iter()
                .fold(0, |idx, &c| idx * n + slots[layout.const_slot(c)]);
            forced.push((layout.pred_slot(lit.pred.index(), idx), lit.value));
        }
        forced.sort_unstable();
        forced.dedup();
        if forced.windows(2).any(|pair| pair[0].0 == pair[1].0) {
            *stream = rng;
            return None; // same bit forced both ways
        }

        let mut weight = 1.0f64;
        for &pi in &self.order {
            let bits = layout.pred_range(pi);
            // The coin pair a bit picks from (by its `on` bit for a
            // conditional rule, always the first otherwise).
            let (coins, on) = match self.rules[pi] {
                BitRule::Uniform => ([Coin::FAIR; 2], None),
                BitRule::Base(coin) => ([coin; 2], None),
                BitRule::Cond { on, then, els } => {
                    ([els, then], Some(layout.pred_range(on.index()).start))
                }
            };
            // A cursor over this predicate's forced bits (they are
            // contiguous in the sorted list).
            let mut next = forced.partition_point(|&(s, _)| s < bits.start);
            for (i, slot) in bits.enumerate() {
                if let Some(&(s, value)) = forced.get(next) {
                    if s == slot {
                        slots[slot] = value as usize;
                        weight *= 0.5;
                        next += 1;
                        continue;
                    }
                }
                let coin = coins[on.map_or(0, |start| slots[start + i])];
                let value = rng.gen_bool(coin.p);
                slots[slot] = value as usize;
                weight *= coin.factor[value as usize];
            }
        }
        *stream = rng;
        Some(weight)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn plan_compiles_stats_facts_and_conditionals() {
        let kb =
            KnowledgeBase::parse("||P(x)||_x ~=_1 0.8; ||R(x) | P(x)||_x ~=_2 0.9; Q(C); !P(D)")
                .unwrap();
        let plan = SamplePlan::build(&kb);
        assert_eq!(plan.forced_literals(), 2);
        assert_eq!(plan.biased_preds(), 2); // P base, R conditional on P
        assert!(!plan.is_uniform());
        // P must be ordered before R.
        let p = kb.vocab().lookup_pred("P").unwrap().index();
        let r = kb.vocab().lookup_pred("R").unwrap().index();
        let pos = |x| plan.order.iter().position(|&i| i == x).unwrap();
        assert!(pos(p) < pos(r), "{:?}", plan.order);
    }

    #[test]
    fn trivial_kb_is_uniform_with_unit_weights() {
        let kb = KnowledgeBase::parse("||P(x)||_x <~_1 0.9").unwrap(); // bound, not ≈
        let plan = SamplePlan::build(&kb);
        assert!(plan.is_uniform());
        let layout = SlotLayout::new(kb.vocab(), 4).unwrap();
        let (mut slots, mut forced) = (vec![0; layout.slot_count()], Vec::new());
        let mut rng = StdRng::seed_from_u64(5);
        for _ in 0..50 {
            let weight = plan.draw(&layout, &mut slots, &mut forced, &mut rng);
            assert_eq!(weight, Some(1.0));
        }
    }

    #[test]
    fn forced_literals_always_hold_in_drawn_worlds() {
        let kb = KnowledgeBase::parse("Likes(A, B); !Likes(B, A)").unwrap();
        let plan = SamplePlan::build(&kb);
        let vocab = kb.vocab();
        let likes = vocab.lookup_pred("Likes").unwrap().index();
        let a = vocab.lookup_const("A").unwrap().index();
        let b = vocab.lookup_const("B").unwrap().index();
        let n = 5usize;
        let layout = SlotLayout::new(vocab, n).unwrap();
        let (mut slots, mut forced) = (vec![0; layout.slot_count()], Vec::new());
        let mut rng = StdRng::seed_from_u64(9);
        let mut viable = 0;
        for _ in 0..200 {
            let drawn = plan.draw(&layout, &mut slots, &mut forced, &mut rng);
            let (ea, eb) = (slots[layout.const_slot(a)], slots[layout.const_slot(b)]);
            let Some(weight) = drawn else {
                // Structural rejection only when A and B collide.
                assert_eq!(ea, eb);
                continue;
            };
            viable += 1;
            assert!(weight > 0.0);
            assert_eq!(slots[layout.pred_slot(likes, ea * n + eb)], 1);
            assert_eq!(slots[layout.pred_slot(likes, eb * n + ea)], 0);
        }
        assert!(viable > 100);
    }

    #[test]
    fn double_negated_facts_are_forced_too() {
        let kb = KnowledgeBase::parse("!!P(C)").unwrap();
        let plan = SamplePlan::build(&kb);
        assert_eq!(plan.forced_literals(), 1);
        assert!(plan.forced[0].value);
    }

    #[test]
    fn biased_bits_carry_compensating_weights() {
        let kb = KnowledgeBase::parse("||P(x)||_x ~=_1 0.8").unwrap();
        let plan = SamplePlan::build(&kb);
        let vocab = kb.vocab();
        let p = vocab.lookup_pred("P").unwrap().index();
        let n = 6usize;
        let layout = SlotLayout::new(vocab, n).unwrap();
        let (mut slots, mut forced) = (vec![0; layout.slot_count()], Vec::new());
        let mut rng = StdRng::seed_from_u64(3);
        for _ in 0..100 {
            let weight = plan
                .draw(&layout, &mut slots, &mut forced, &mut rng)
                .unwrap();
            let k = layout.pred_range(p).map(|s| slots[s]).sum::<usize>() as i32;
            let expect = (0.5f64 / 0.8).powi(k) * (0.5f64 / (1.0 - 0.8)).powi(n as i32 - k);
            assert!((weight - expect).abs() < 1e-12, "{weight} vs {expect}");
        }
    }

    #[test]
    fn hard_biases_are_clamped_off_the_boundary() {
        let kb = KnowledgeBase::parse("||P(x)||_x ~=_1 1").unwrap();
        let plan = SamplePlan::build(&kb);
        match plan.rules[0] {
            BitRule::Base(b) => assert!((b.p - (1.0 - MIN_BIAS)).abs() < 1e-12, "{b:?}"),
            other => panic!("{other:?}"),
        }
    }
}
