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

use crate::compile::{bit_window, PackedWorld, SlotLayout};
use rw_logic::ast::{CmpOp, Formula, PropExpr, Term};
use rw_logic::{analysis, KnowledgeBase, PredId};
use rw_util::{Below, Rng, StdRng};
use std::collections::BTreeMap;
use std::ops::Range;

/// Proposal biases are clamped into `[MIN_BIAS, 1 - MIN_BIAS]` so the
/// proposal's support covers every world (a hard 0/1 bias would assign
/// zero probability to worlds the posterior may still reach within the
/// tolerance band, biasing the estimator).
const MIN_BIAS: f64 = 0.05;

/// `2⁵³`: a coin reads the top 53 bits of a word as the integer `k` of
/// the dyadic uniform `k · 2⁻⁵³` that [`Rng::gen_bool`] compares.
const TWO_53: f64 = (1u64 << 53) as f64;

/// A biased coin with its decision threshold and importance-weight
/// factors precomputed.
///
/// [`Rng::gen_bool`] returns `k · 2⁻⁵³ < p` for `k = word >> 11`. Both
/// sides scale exactly by `2⁵³`, and `k` is an integer, so that is
/// `k < ⌈p · 2⁵³⌉`: an integer compare with no float conversion. A bit
/// drawn `false` multiplies the weight by `0.5 / (1 − p)`, a `true` bit
/// by `0.5 / p`.
#[derive(Clone, Copy, Debug, PartialEq)]
struct Coin {
    p: f64,
    threshold: u64,
    /// The bits of the `false` factor.
    tails: u64,
    /// `tails ^ heads`: the bits that differ in the `true` factor.
    flip: u64,
}

impl Coin {
    fn new(p: f64) -> Coin {
        let (tails, heads) = ((0.5 / (1.0 - p)).to_bits(), (0.5 / p).to_bits());
        Coin {
            p,
            threshold: (p * TWO_53).ceil() as u64,
            tails,
            flip: tails ^ heads,
        }
    }

    /// All ones when the coin shows heads on `word`, zero for tails:
    /// the sign of `k − threshold`, which cannot wrap since both are
    /// below `2⁵⁴`. An arithmetic mask rather than a compare keeps the
    /// bit and its factor branch-free: the bits are random, so a branch
    /// would mispredict on a large share of them.
    #[inline]
    fn heads(&self, word: u64) -> u64 {
        (((word >> 11) as i64).wrapping_sub(self.threshold as i64) >> 63) as u64
    }

    /// Draws one bit from `word` as [`Self::heads`]' mask, multiplying
    /// its factor into `weight`.
    #[inline]
    fn toss(&self, word: u64, weight: &mut f64) -> u64 {
        let heads = self.heads(word);
        *weight *= f64::from_bits(self.tails ^ (self.flip & heads));
        heads
    }
}

/// How one predicate's bits are proposed.
#[derive(Clone, Copy, Debug, PartialEq)]
enum BitRule {
    /// Fair coin (weight-neutral): the bit is `true` exactly when the
    /// word's top bit is clear, which is `gen_bool(0.5)`, and its weight
    /// factor `1.0` is never multiplied in.
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

    /// The formula a draw from the KB's plan must satisfy to be
    /// accepted: the KB's flattened conjuncts minus the ground literals
    /// the plan forces. A draw whose forced literals conflict is rejected
    /// before any check, and every other draw has each forced bit set to
    /// its literal's value, so checking those literals again could only
    /// ever succeed. Every accept decision is the whole KB's.
    pub fn acceptance(kb: &KnowledgeBase) -> Formula {
        Formula::conjoin(
            kb.conjuncts()
                .iter()
                .flat_map(Formula::conjuncts)
                .filter(|f| as_ground_literal(f).is_none())
                .cloned(),
        )
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

    /// The plan bound to `layout`: bit ranges, coin thresholds and the
    /// element sampler resolved once, so a draw looks nothing up.
    pub fn proposal(&self, layout: &SlotLayout) -> Proposal {
        // Element slots sit in the packed world's `elems` from here on.
        let elem = |slot: usize| slot - layout.bit_slot_count();
        let preds = self
            .order
            .iter()
            .map(|&pi| {
                let bits = layout.pred_range(pi);
                let on = match self.rules[pi] {
                    BitRule::Cond { on, .. } => layout.pred_range(on.index()).start,
                    _ => bits.start,
                };
                let forced = self
                    .forced
                    .iter()
                    .filter(|lit| lit.pred.index() == pi)
                    .map(|lit| ForcedBit {
                        args: lit
                            .args
                            .iter()
                            .map(|&c| elem(layout.const_slot(c)))
                            .collect(),
                        value: lit.value,
                    })
                    .collect();
                PredBits {
                    bits,
                    rule: self.rules[pi],
                    on,
                    forced,
                }
            })
            .collect();
        let (funcs, consts) = (layout.func_slots(), layout.const_slots());
        Proposal {
            n: layout.n(),
            element: Below::new(layout.n()),
            consts: elem(consts.start)..elem(consts.end),
            funcs: elem(funcs.start)..elem(funcs.end),
            preds,
        }
    }
}

/// One forced literal under a layout: the element slots of its argument
/// constants (indices into [`PackedWorld`]'s elements) and the value its
/// bit takes.
#[derive(Clone, Debug)]
struct ForcedBit {
    args: Vec<usize>,
    value: bool,
}

/// One predicate's bits under a layout and the rule that proposes them.
#[derive(Clone, Debug)]
struct PredBits {
    bits: Range<usize>,
    rule: BitRule,
    /// The first bit of a conditional rule's `on` predicate.
    on: usize,
    /// The KB's ground literals on this predicate.
    forced: Vec<ForcedBit>,
}

/// A word's top bit, where drawn bits enter a register.
const TOP: u64 = 1 << 63;

impl PredBits {
    /// Draws this predicate's bits into `words`, whose bits in this
    /// predicate's range are zero: the `forced` ones (this predicate's
    /// group, sorted by slot) take their values and multiply in 0.5 once
    /// each, however many literals force them; every other bit takes one
    /// RNG word, multiplying a biased bit's factor into `weight` in slot
    /// order. Each word's share is built in a register and stored once.
    #[inline]
    fn draw(
        &self,
        forced: &[(usize, bool)],
        words: &mut [u64],
        weight: &mut f64,
        rng: &mut StdRng,
    ) {
        // A local generator and weight stay in registers: nothing in the
        // loops can observe them before they are stored back.
        let (mut local, mut w) = (rng.clone(), *weight);
        let mut forced = forced.iter().copied().peekable();
        let mut slot = self.bits.start;
        while slot < self.bits.end {
            let (i, lo) = (slot / 64, slot % 64);
            let (base, hi) = (64 * i, (self.bits.end - 64 * i).min(64));
            // Bits enter the register at the top and shift down, so every
            // shift in the loops is by a constant.
            words[i] |= if matches!(self.rule, BitRule::Uniform) {
                // The word's distinct forced bits first, then one fair
                // bit for each other bit, so the loop's length is the
                // same from draw to draw. Each forced bit then opens a gap
                // in the drawn ones. A fair bit has no factor, so the
                // forced bits' 0.5s may go in together.
                let (mut pinned, mut values) = (0u64, 0u64);
                while let Some((s, value)) = forced.next_if(|&(s, _)| s < base + hi) {
                    pinned |= 1 << (s - base);
                    values |= (value as u64) << (s - base);
                }
                let free = hi - lo - pinned.count_ones() as usize;
                let top = self.draw_bits(free, 0, &mut 0, &mut local, &mut w);
                let mut word = if free == 0 {
                    0
                } else {
                    top >> (64 - free) << lo
                };
                let mut gaps = pinned;
                while gaps != 0 {
                    let below = (gaps & gaps.wrapping_neg()) - 1;
                    word = word & below | (word & !below) << 1;
                    gaps &= gaps - 1;
                }
                for _ in 0..pinned.count_ones() {
                    w *= 0.5;
                }
                // A fair bit is its word's top bit inverted: it entered
                // as drawn, one AND off the loop's chain, and flips here.
                let drawn = (u64::MAX >> (64 - (hi - lo))) << lo & !pinned;
                word ^ drawn | values
            } else {
                // The `on` predicate's bits of the same elements, bit
                // `k - lo` for bit `k` here: drawn already, in no bit
                // this writes.
                let mut given = match self.rule {
                    BitRule::Cond { .. } => bit_window(words, self.on + (slot - self.bits.start)),
                    _ => 0,
                };
                // Runs of drawn bits between the forced ones, each 0.5
                // multiplied in at its bit's place among the factors.
                let (mut top, mut k) = (0u64, lo);
                loop {
                    let stop = match forced.peek() {
                        Some(&(s, _)) if s < base + hi => s - base,
                        _ => hi,
                    };
                    top = self.draw_bits(stop - k, top, &mut given, &mut local, &mut w);
                    if stop == hi {
                        break;
                    }
                    let (s, value) = forced.next().expect("peeked above");
                    while forced.next_if(|&(again, _)| again == s).is_some() {}
                    top = top >> 1 | (value as u64) << 63;
                    given >>= 1;
                    w *= 0.5;
                    k = stop + 1;
                }
                top >> (64 - hi)
            };
            slot = base + hi;
        }
        *rng = local;
        *weight = w;
    }

    /// Shifts `count` drawn bits into `top` from above (a fair bit as the
    /// top bit of its RNG word, which is its inverse), reading a
    /// conditional rule's `on` bits off `given`.
    #[inline(always)]
    fn draw_bits(
        &self,
        count: usize,
        top: u64,
        given: &mut u64,
        rng: &mut StdRng,
        w: &mut f64,
    ) -> u64 {
        match self.rule {
            BitRule::Uniform => (0..count).fold(top, |top, _| top >> 1 | rng.next_u64() & TOP),
            BitRule::Base(coin) => {
                (0..count).fold(top, |top, _| top >> 1 | coin.toss(rng.next_u64(), w) & TOP)
            }
            BitRule::Cond { then, els, .. } => {
                let coins = [els, then];
                (0..count).fold(top, |top, _| {
                    let coin = coins[(*given & 1) as usize];
                    *given >>= 1;
                    top >> 1 | coin.toss(rng.next_u64(), w) & TOP
                })
            }
        }
    }
}

/// A [`SamplePlan`] bound to one [`SlotLayout`] ([`SamplePlan::proposal`]).
#[derive(Clone, Debug)]
pub struct Proposal {
    n: usize,
    element: Below,
    /// The constants' and the function entries' indices into a
    /// [`PackedWorld`]'s elements.
    consts: Range<usize>,
    funcs: Range<usize>,
    /// Predicates in the plan's dependency order.
    preds: Vec<PredBits>,
}

impl Proposal {
    /// Draws one world from the proposal into `world`, a full assignment
    /// packed in the layout the proposal was bound to (every slot is
    /// rewritten). Returns the draw's importance weight relative to the
    /// uniform distribution, or `None` when the drawn constant
    /// denotations make the forced literals contradictory (no world with
    /// those denotations satisfies the KB — an immediate rejection).
    /// `forced` is scratch space reused across draws.
    ///
    /// The random stream is fixed: constants, then function entries,
    /// then predicate bits in dependency order, one word each (elements
    /// may reject words, as [`Rng::gen_range`] does), with forced bits
    /// taking none. Weight factors are multiplied in the same order.
    pub fn draw(
        &self,
        world: &mut PackedWorld,
        forced: &mut Vec<(usize, bool)>,
        stream: &mut StdRng,
    ) -> Option<f64> {
        // Advance a local copy and store it back once: a generator behind
        // `&mut` would have to be written back before every bounds check
        // that could unwind, which costs more than the bits themselves.
        let mut rng = stream.clone();
        let elems = &mut world.elems;
        for i in self.consts.clone().chain(self.funcs.clone()) {
            elems[i] = self.element.sample(&mut rng);
        }
        // Forced bits under this draw's constant denotations, one group
        // per predicate in draw order, each sorted by slot. Equal slots
        // with opposite values are a structural rejection.
        forced.clear();
        for pred in &self.preds {
            let group = forced.len();
            for lit in &pred.forced {
                let idx = lit.args.iter().fold(0, |idx, &c| idx * self.n + elems[c]);
                forced.push((pred.bits.start + idx, lit.value));
                // Insertion sort: a group holds a handful of literals.
                let mut i = forced.len() - 1;
                while i > group && forced[i - 1] > forced[i] {
                    forced.swap(i - 1, i);
                    i -= 1;
                }
            }
            if forced[group..]
                .windows(2)
                .any(|pair| pair[0].0 == pair[1].0 && pair[0].1 != pair[1].1)
            {
                *stream = rng;
                return None; // same bit forced both ways
            }
        }

        // Each predicate ORs its bits into the cleared words.
        world.words.fill(0);
        let mut weight = 1.0f64;
        let mut group = forced.as_slice();
        for pred in &self.preds {
            let (own, rest) = group.split_at(pred.forced.len());
            pred.draw(own, &mut world.words, &mut weight, &mut rng);
            group = rest;
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
        let proposal = plan.proposal(&layout);
        let (mut world, mut forced) = (PackedWorld::new(&layout), Vec::new());
        let mut rng = StdRng::seed_from_u64(5);
        for _ in 0..50 {
            let weight = proposal.draw(&mut world, &mut forced, &mut rng);
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
        let proposal = plan.proposal(&layout);
        let (mut world, mut forced) = (PackedWorld::new(&layout), Vec::new());
        let mut rng = StdRng::seed_from_u64(9);
        let mut viable = 0;
        for _ in 0..200 {
            let drawn = proposal.draw(&mut world, &mut forced, &mut rng);
            let (ea, eb) = (
                world.get(layout.const_slot(a)),
                world.get(layout.const_slot(b)),
            );
            let Some(weight) = drawn else {
                // Structural rejection only when A and B collide.
                assert_eq!(ea, eb);
                continue;
            };
            viable += 1;
            assert!(weight > 0.0);
            assert_eq!(world.get(layout.pred_slot(likes, ea * n + eb)), 1);
            assert_eq!(world.get(layout.pred_slot(likes, eb * n + ea)), 0);
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
        let proposal = plan.proposal(&layout);
        let (mut world, mut forced) = (PackedWorld::new(&layout), Vec::new());
        let mut rng = StdRng::seed_from_u64(3);
        for _ in 0..100 {
            let weight = proposal.draw(&mut world, &mut forced, &mut rng).unwrap();
            let k = layout.pred_range(p).map(|s| world.get(s)).sum::<usize>() as i32;
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

    /// The word whose 53-bit integer is `k`, with the low bits set so a
    /// sloppy shift would show.
    fn word(k: u64) -> u64 {
        (k << 11) | 0x7ff
    }

    /// A generator that returns one fixed word.
    struct Fixed(u64);

    impl Rng for Fixed {
        fn next_u64(&mut self) -> u64 {
            self.0
        }
    }

    #[test]
    fn integer_thresholds_decide_exactly_as_gen_bool() {
        // 0.375 · 2⁵³ is an integer: the threshold is that integer itself.
        for p in [MIN_BIAS, 0.5, 1.0 - MIN_BIAS, 0.375, 0.8, 0.3] {
            let coin = Coin::new(p);
            let t = coin.threshold;
            for k in [t - 1, t, t + 1, 0, (1 << 53) - 1] {
                let w = word(k);
                assert_eq!(
                    coin.heads(w) == u64::MAX,
                    Fixed(w).gen_bool(p),
                    "p = {p}, k = {k}, T = {t}"
                );
            }
            assert_eq!(coin.heads(word(t - 1)), u64::MAX, "p = {p}");
            assert_eq!(coin.heads(word(t)), 0, "p = {p}");
        }
        assert_eq!(Coin::new(0.375).threshold, 3 << 50);
    }

    #[test]
    fn fair_bits_read_the_top_bit() {
        // gen_bool(0.5) holds exactly below 2⁵², i.e. with bit 63 clear.
        for k in [0, (1 << 52) - 1, 1 << 52, (1 << 53) - 1] {
            let w = word(k);
            assert_eq!((w >> 63) ^ 1 == 1, Fixed(w).gen_bool(0.5), "k = {k}");
        }
    }
}
