//! Compilation of closed `L≈` formulas into flat **slot programs**.
//!
//! The world space `W_N(Φ)` is a product of independent *slots*: one bit
//! per predicate tuple, one element choice per function-table entry and
//! per constant (the same layout [`crate::enumerate::for_each_world`]'s
//! odometer walks). A [`Program`] lowers a formula *once* for a fixed
//! domain size `N` into a flat arena of nodes over those slot indices:
//! quantifiers and proportion subscripts are grounded (N is tiny on the
//! enumeration path), terms become slot-lookup programs, and ground
//! atoms with fully static arguments collapse to a single bit reference.
//!
//! The payoff is in [`crate::count`]: a program can be evaluated under a
//! *partial* slot assignment with three-valued (Kleene) logic, which is
//! what lets branch-and-count prune entire subtrees and multiply out
//! unconstrained slots instead of enumerating them. Compilation also
//! extracts the **unit literals** (top-level ground-literal conjuncts)
//! whose slot values are forced, and a **support-ordered branch order**
//! (slots feeding term evaluation first, then directly-referenced bits,
//! then bits only reachable through dynamic atoms).
//!
//! The same program also runs two-valued under a *full* assignment,
//! packed as a [`PackedWorld`] (predicate bits 64 to a `u64` word,
//! element slots beside them): [`Program::holds`] is the Monte-Carlo
//! acceptance check in [`crate::mc`], run once per draw. Proportions
//! stay integer counts. A proportion whose every instance reads a static
//! bit (or its negation) is also compiled to slot tables: summed without
//! a branch on any bit, and read three-valued by branch-and-count. When
//! those bits run over consecutive slots with one negation, a full
//! assignment counts them by popcount, 64 instances a word. Each
//! comparison's tolerance is resolved here, once, and decided by
//! cross-multiplication on the unreduced counts.
//!
//! Semantics are mirrored from [`crate::eval::Evaluator`] exactly —
//! including the measure-zero convention (comparisons touching an
//! undefined conditional proportion hold vacuously) — so a compiled
//! count always equals the oracle count.

use crate::eval::{decide_at, tolerance};
use crate::world::World;
use rw_logic::ast::{CmpOp, Formula, PropExpr, Term};
use rw_logic::{PredId, Tolerances, Vocabulary};
use rw_util::Rat;
use std::ops::Range;

/// Sentinel for "no node" (an unconditional count instance).
pub(crate) const NO_NODE: u32 = u32::MAX;

/// The slot layout of `W_N(Φ)`: predicates first (one bit per tuple,
/// row-major), then function tables (one entry per tuple), then
/// constants — identical to the odometer's order in `enumerate`.
#[derive(Clone, Debug)]
pub struct SlotLayout {
    pred_base: Vec<usize>,
    func_base: Vec<usize>,
    const_base: usize,
    slot_count: usize,
    n: usize,
}

impl SlotLayout {
    /// Builds the layout, or `None` when the slot space itself overflows
    /// `usize` (far beyond countable either way).
    pub fn new(vocab: &Vocabulary, n: usize) -> Option<SlotLayout> {
        let mut next = 0usize;
        let mut pred_base = Vec::with_capacity(vocab.pred_count());
        for p in vocab.preds() {
            pred_base.push(next);
            let size = n.checked_pow(u32::try_from(vocab.pred_arity(p)).ok()?)?;
            next = next.checked_add(size)?;
        }
        let mut func_base = Vec::with_capacity(vocab.func_count());
        for f in vocab.funcs() {
            func_base.push(next);
            let size = n.checked_pow(u32::try_from(vocab.func_arity(f)).ok()?)?;
            next = next.checked_add(size)?;
        }
        let const_base = next;
        next = next.checked_add(vocab.const_count())?;
        Some(SlotLayout {
            pred_base,
            func_base,
            const_base,
            slot_count: next,
            n,
        })
    }

    /// Total number of slots.
    pub fn slot_count(&self) -> usize {
        self.slot_count
    }

    /// The domain size the layout was built for.
    pub fn n(&self) -> usize {
        self.n
    }

    /// How many values the slot ranges over (2 for predicate bits, `n`
    /// for function entries and constants).
    pub fn domain(&self, slot: usize) -> usize {
        if slot < self.func_start() {
            2
        } else {
            self.n
        }
    }

    fn func_start(&self) -> usize {
        self.func_base.first().copied().unwrap_or(self.const_base)
    }

    /// How many slots are predicate bits: they come first, so these are
    /// the slots `0..bit_slot_count()`.
    pub(crate) fn bit_slot_count(&self) -> usize {
        self.func_start()
    }

    pub(crate) fn pred_slot(&self, pred: usize, tuple_index: usize) -> usize {
        self.pred_base[pred] + tuple_index
    }

    /// The bits of one predicate, one per tuple in row-major order.
    pub(crate) fn pred_range(&self, pred: usize) -> Range<usize> {
        let end = self
            .pred_base
            .get(pred + 1)
            .copied()
            .unwrap_or_else(|| self.func_start());
        self.pred_base[pred]..end
    }

    /// The entries of one function table, row-major.
    pub(crate) fn func_range(&self, func: usize) -> Range<usize> {
        let end = self
            .func_base
            .get(func + 1)
            .copied()
            .unwrap_or(self.const_base);
        self.func_base[func]..end
    }

    /// Every function-table entry, all tables in function order.
    pub(crate) fn func_slots(&self) -> Range<usize> {
        self.func_start()..self.const_base
    }

    /// Every constant, in constant order.
    pub(crate) fn const_slots(&self) -> Range<usize> {
        self.const_base..self.slot_count
    }

    pub(crate) fn func_slot(&self, func: usize, tuple_index: usize) -> usize {
        self.func_base[func] + tuple_index
    }

    pub(crate) fn const_slot(&self, c: usize) -> usize {
        self.const_base + c
    }

    /// The full slot assignment that encodes `world`: its bit per
    /// predicate tuple, its element per function entry and constant. The
    /// world must interpret the layout's vocabulary at its domain size.
    pub fn encode(&self, world: &World) -> PackedWorld {
        assert_eq!(world.domain_size(), self.n, "world and layout sizes differ");
        let mut packed = PackedWorld::new(self);
        let mut elems = Vec::with_capacity(packed.elems.len());
        for p in 0..self.pred_base.len() {
            let rel = world.rel(PredId(p as u32));
            for i in 0..rel.size() {
                packed.set(self.pred_slot(p, i), rel.get_raw(i) as usize);
            }
        }
        for f in 0..self.func_base.len() {
            elems.extend_from_slice(world.func_table(f));
        }
        elems.extend((0..world.const_count()).map(|c| world.const_denotation(c)));
        assert_eq!(
            elems.len(),
            packed.elems.len(),
            "world and layout vocabularies differ"
        );
        packed.elems = elems;
        packed
    }

    /// `Π domain(slot)` over every slot — the interpretation count —
    /// `None` on `u128` overflow.
    pub fn total_assignments(&self) -> Option<u128> {
        let mut total: u128 = 1;
        for s in 0..self.slot_count {
            total = total.checked_mul(self.domain(s) as u128)?;
        }
        Some(total)
    }
}

/// A full slot assignment of a [`SlotLayout`], packed: predicate bit
/// slot `s` is bit `s % 64` of word `s / 64`, and the element slots
/// (function entries, then constants) sit beside the bit words, one
/// value each. The Monte-Carlo kernel draws into it
/// ([`crate::mc::Proposal::draw`]), checks it ([`Program::holds`]) and
/// records and replays its words as they are ([`crate::mc::reservoir`]).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct PackedWorld {
    /// The predicate bits, then one zero word, so a 64-bit window from
    /// any bit slot reads its second word in bounds. Bits past the last
    /// bit slot stay zero.
    pub(crate) words: Vec<u64>,
    /// Element slot `bit_slots + i` at index `i`.
    pub(crate) elems: Vec<usize>,
    /// The layout's bit slot count.
    pub(crate) bit_slots: usize,
}

impl PackedWorld {
    /// The assignment of `layout` with every slot 0.
    pub fn new(layout: &SlotLayout) -> PackedWorld {
        let bit_slots = layout.bit_slot_count();
        PackedWorld {
            words: vec![0; bit_slots.div_ceil(64) + 1],
            elems: vec![0; layout.slot_count - bit_slots],
            bit_slots,
        }
    }

    /// The value of `slot`: `0`/`1` for a predicate bit, the element for
    /// a function entry or constant.
    #[cfg(test)]
    pub(crate) fn get(&self, slot: usize) -> usize {
        if slot < self.bit_slots {
            self.bit(slot) as usize
        } else {
            self.elem(slot)
        }
    }

    /// Sets `slot` to `value`, which is `0` or `1` for a predicate bit.
    pub(crate) fn set(&mut self, slot: usize, value: usize) {
        if slot < self.bit_slots {
            assert!(value <= 1, "predicate bit {slot} set to {value}");
            let bit = 1u64 << (slot % 64);
            let word = &mut self.words[slot / 64];
            *word = (*word & !bit) | (value as u64) << (slot % 64);
        } else {
            self.elems[slot - self.bit_slots] = value;
        }
    }

    /// The words holding the predicate bits, without the zero word past
    /// them.
    pub(crate) fn bit_words(&self) -> &[u64] {
        &self.words[..self.words.len() - 1]
    }

    /// Predicate bit `slot`.
    #[inline]
    pub(crate) fn bit(&self, slot: usize) -> bool {
        (self.words[slot / 64] >> (slot % 64)) & 1 == 1
    }

    /// Element slot `slot` (a function entry or constant).
    #[inline]
    pub(crate) fn elem(&self, slot: usize) -> usize {
        self.elems[slot - self.bit_slots]
    }
}

/// The 64 bits of a [`PackedWorld`]'s `words` from bit slot `at` on,
/// slot `at + j` at bit `j`. Needs the word after `at`'s, which the zero
/// word past the bits provides.
#[inline]
pub(crate) fn bit_window(words: &[u64], at: usize) -> u64 {
    let (i, off) = (at / 64, at % 64);
    // `<< 1 << (63 - off)` is `<< (64 - off)`, and 0 where `off = 0`.
    (words[i] >> off) | (words[i + 1] << 1 << (63 - off))
}

/// A compiled term: evaluates to a domain element, or to "unknown" while
/// a slot it reads is unassigned.
#[derive(Clone, Debug)]
pub(crate) enum CTerm {
    /// A fixed element (a grounded variable).
    Elem(usize),
    /// The denotation of a constant: reads one constant slot.
    ConstSlot(usize),
    /// A function application: reads a table entry chosen by its
    /// (recursively evaluated) arguments.
    App { func: usize, args: Vec<u32> },
}

/// A compiled formula node (three-valued under partial assignments).
#[derive(Clone, Debug)]
pub(crate) enum CNode {
    Bool(bool),
    /// A ground atom whose tuple is static: one predicate bit.
    Lit {
        slot: usize,
    },
    /// A ground atom whose tuple depends on constant/function slots.
    Atom {
        pred: usize,
        args: Vec<u32>,
    },
    /// Term equality (static cases are folded to `Bool` at compile time).
    Eq(u32, u32),
    Not(u32),
    And(Vec<u32>),
    Or(Vec<u32>),
    Iff(u32, u32),
    /// `lhs op rhs`, with `op`'s tolerance resolved at compile time
    /// (zero for the exact operators, which do not read it).
    Cmp {
        lhs: u32,
        op: CmpOp,
        tau: Rat,
        rhs: u32,
    },
}

/// One grounded instance of a proportion: `cond == NO_NODE` means the
/// instance's condition is statically true (or the proportion is
/// unconditional).
#[derive(Clone, Debug)]
pub(crate) struct CountInst {
    pub(crate) body: u32,
    pub(crate) cond: u32,
}

/// A predicate bit a count instance reads directly: its value is the
/// slot's bit `^ flip`, with `flip = 1` for a negated atom.
#[derive(Clone, Copy, Debug)]
pub(crate) struct StaticBit {
    slot: usize,
    flip: usize,
}

impl StaticBit {
    #[inline]
    fn read(self, world: &PackedWorld) -> usize {
        world.bit(self.slot) as usize ^ self.flip
    }

    /// [`Self::read`] under a partial assignment, where any value other
    /// than `0`/`1` is unassigned: `None` while the bit is.
    #[inline]
    fn read_partial(self, assign: &[u8]) -> Option<usize> {
        match assign[self.slot] {
            v @ (0 | 1) => Some(v as usize ^ self.flip),
            _ => None,
        }
    }
}

/// Static bits over the consecutive slots `start..start + len`, read
/// with one flip: a packed world yields them 64 at a time.
#[derive(Clone, Copy, Debug, PartialEq)]
struct BitRun {
    start: usize,
    len: usize,
    /// All ones for negated atoms, zero otherwise.
    flip: u64,
}

impl BitRun {
    /// The run of `bits` in order, when each reads the slot after the
    /// previous one's with the same flip.
    fn of(bits: impl IntoIterator<Item = StaticBit>) -> Option<BitRun> {
        let mut bits = bits.into_iter();
        let Some(first) = bits.next() else {
            return Some(BitRun {
                start: 0,
                len: 0,
                flip: 0,
            });
        };
        let mut len = 1;
        for b in bits {
            if b.slot != first.slot + len || b.flip != first.flip {
                return None;
            }
            len += 1;
        }
        Some(BitRun {
            start: first.slot,
            len,
            flip: (first.flip as u64).wrapping_neg(),
        })
    }

    /// How many 64-bit windows cover the run.
    #[inline]
    fn windows(self) -> usize {
        self.len.div_ceil(64)
    }

    /// Window `j`: the run's bits `64j..64j + 64` at bits `0..64`, flip
    /// applied, bits past the run's end cleared.
    #[inline]
    fn window(self, words: &[u64], j: usize) -> u64 {
        let bits = bit_window(words, self.start + 64 * j);
        (bits ^ self.flip) & (u64::MAX >> (64 - (self.len - 64 * j).min(64)))
    }
}

/// The instances of a count whose body and condition are all static
/// bits, as slot tables: [`Program::holds`] sums them with no branch on
/// any bit.
#[derive(Clone, Debug)]
pub(crate) struct BitCount {
    /// Body bits of the instances whose condition is statically true
    /// (every instance of an unconditional count).
    bodies: Vec<StaticBit>,
    /// `(condition, body)` bits of the other instances.
    pairs: Vec<(StaticBit, StaticBit)>,
    /// `bodies` as one run, when they form one.
    body_run: Option<BitRun>,
    /// The conditions and the bodies of `pairs` as two runs, when each
    /// forms one.
    pair_runs: Option<(BitRun, BitRun)>,
}

impl BitCount {
    fn new(bodies: Vec<StaticBit>, pairs: Vec<(StaticBit, StaticBit)>) -> BitCount {
        let body_run = BitRun::of(bodies.iter().copied());
        let pair_runs =
            BitRun::of(pairs.iter().map(|p| p.0)).zip(BitRun::of(pairs.iter().map(|p| p.1)));
        BitCount {
            bodies,
            pairs,
            body_run,
            pair_runs,
        }
    }

    /// `(body, condition)` counts over the table's instances: an
    /// instance adds to the body count only where its condition holds.
    /// Runs are counted by popcount, other instances bit by bit.
    #[inline]
    fn counts(&self, world: &PackedWorld) -> (usize, usize) {
        let words = world.words.as_slice();
        let mut body = 0;
        match self.body_run {
            Some(run) => {
                for j in 0..run.windows() {
                    body += run.window(words, j).count_ones() as usize;
                }
            }
            None => {
                for b in &self.bodies {
                    body += b.read(world);
                }
            }
        }
        let mut cond = self.bodies.len();
        match self.pair_runs {
            Some((c, b)) => {
                for j in 0..c.windows() {
                    let holds = c.window(words, j);
                    cond += holds.count_ones() as usize;
                    body += (holds & b.window(words, j)).count_ones() as usize;
                }
            }
            None => {
                for &(c, b) in &self.pairs {
                    let c = c.read(world);
                    cond += c;
                    body += c & b.read(world);
                }
            }
        }
        (body, cond)
    }

    /// [`Self::counts`] three-valued under a partial assignment (see
    /// [`StaticBit::read_partial`]): `None` once a bit the counts depend
    /// on is unassigned. An instance whose condition is false adds
    /// nothing, whatever its body bit, exactly as branch-and-count's
    /// walk over the instances skips its body.
    #[inline]
    pub(crate) fn partial_counts(&self, assign: &[u8]) -> Option<(usize, usize)> {
        let mut body = 0;
        for b in &self.bodies {
            body += b.read_partial(assign)?;
        }
        let mut cond = self.bodies.len();
        for &(c, b) in &self.pairs {
            if c.read_partial(assign)? == 1 {
                cond += 1;
                body += b.read_partial(assign)?;
            }
        }
        Some((body, cond))
    }
}

/// A compiled proportion expression.
#[derive(Clone, Debug)]
pub(crate) enum CProp {
    Rat(Rat),
    /// `||body||` / `||body | cond||` grounded over its subscript tuple
    /// space. `base_body`/`base_cond` pre-count the instances that folded
    /// to constants at compile time; `insts` holds the rest.
    Count {
        insts: Vec<CountInst>,
        base_body: i128,
        base_cond: i128,
        conditional: bool,
        /// `n^k`, the unconditional denominator.
        total: i128,
        /// `insts` as slot tables, when every instance reads static bits
        /// only; `None` sends [`Program::holds`] and branch-and-count
        /// through the instances.
        bits: Option<BitCount>,
    },
    Arith(Arith, u32, u32),
}

/// A proportion-arithmetic operator.
#[derive(Clone, Copy, Debug)]
pub(crate) enum Arith {
    Add,
    Sub,
    Mul,
}

/// A forced ground literal extracted from the program's top-level
/// conjunction: once the referenced node's slot is resolvable, the slot
/// value is implied.
#[derive(Clone, Copy, Debug)]
pub(crate) struct Unit {
    /// A `Lit` or `Atom` node.
    pub(crate) node: u32,
    /// The implied truth value.
    pub(crate) value: bool,
}

/// How a slot participates in the program — drives the branch order.
const CLASS_TERM: u8 = 0; // feeds term evaluation (constants, function entries)
const CLASS_LIT: u8 = 1; // directly referenced predicate bit
const CLASS_DYN: u8 = 2; // reachable only through a dynamic atom
const CLASS_NONE: u8 = 3; // not in the program at all (free)

/// A closed formula lowered over a fixed vocabulary and domain size.
pub struct Program {
    pub(crate) layout: SlotLayout,
    pub(crate) terms: Vec<CTerm>,
    pub(crate) nodes: Vec<CNode>,
    pub(crate) props: Vec<CProp>,
    pub(crate) root: u32,
    /// Support slots in branch order (term-feeding slots first, then by
    /// descending occurrence count, then by slot index — deterministic).
    pub(crate) branch_order: Vec<u32>,
    pub(crate) units: Vec<Unit>,
}

impl Program {
    /// Lowers `formula` for counting over `W_n(Φ)` under `tol`. `None`
    /// when the slot space overflows `usize`.
    pub fn compile(
        vocab: &Vocabulary,
        n: usize,
        tol: &Tolerances,
        formula: &Formula,
    ) -> Option<Program> {
        assert!(n > 0, "domain must be nonempty");
        let layout = SlotLayout::new(vocab, n)?;
        let mut c = Compiler {
            layout,
            n,
            tol,
            terms: Vec::new(),
            nodes: Vec::new(),
            props: Vec::new(),
            env: vec![None; vocab.var_count()],
        };
        let root = c.formula(formula);
        let mut prog = Program {
            layout: c.layout,
            terms: c.terms,
            nodes: c.nodes,
            props: c.props,
            root,
            branch_order: Vec::new(),
            units: Vec::new(),
        };
        prog.finish();
        Some(prog)
    }

    /// The domain size the program was compiled for.
    pub fn n(&self) -> usize {
        self.layout.n
    }

    /// The slot layout.
    pub fn layout(&self) -> &SlotLayout {
        &self.layout
    }

    /// `Π domain(slot)` over the support slots, saturating: the
    /// worst-case size of the branch tree, used to predict whether the
    /// next domain size is worth attempting.
    pub fn support_assignments(&self) -> u128 {
        let mut total: u128 = 1;
        for &s in &self.branch_order {
            total = match total.checked_mul(self.layout.domain(s as usize) as u128) {
                Some(t) => t,
                None => return u128::MAX,
            };
        }
        total
    }

    /// Computes the branch order and unit literals after lowering.
    fn finish(&mut self) {
        let slot_count = self.layout.slot_count;
        let mut class = vec![CLASS_NONE; slot_count];
        let mut occ = vec![0u32; slot_count];
        let mut seen_nodes = vec![false; self.nodes.len()];
        let mut seen_props = vec![false; self.props.len()];
        self.mark_node(
            self.root,
            &mut class,
            &mut occ,
            &mut seen_nodes,
            &mut seen_props,
        );

        let mut order: Vec<u32> = (0..slot_count as u32)
            .filter(|&s| class[s as usize] != CLASS_NONE)
            .collect();
        order.sort_by_key(|&s| (class[s as usize], u32::MAX - occ[s as usize], s));
        self.branch_order = order;
        self.units = self.extract_units();
    }

    fn mark_term(&self, t: u32, class: &mut [u8], occ: &mut [u32]) {
        match &self.terms[t as usize] {
            CTerm::Elem(_) => {}
            CTerm::ConstSlot(slot) => {
                class[*slot] = CLASS_TERM;
                occ[*slot] += 1;
            }
            CTerm::App { func, args } => {
                for s in self.layout.func_range(*func) {
                    class[s] = CLASS_TERM;
                    occ[s] += 1;
                }
                for &a in args {
                    self.mark_term(a, class, occ);
                }
            }
        }
    }

    fn mark_node(
        &self,
        id: u32,
        class: &mut [u8],
        occ: &mut [u32],
        seen_nodes: &mut [bool],
        seen_props: &mut [bool],
    ) {
        if seen_nodes[id as usize] {
            return;
        }
        seen_nodes[id as usize] = true;
        match &self.nodes[id as usize] {
            CNode::Bool(_) => {}
            CNode::Lit { slot } => {
                class[*slot] = class[*slot].min(CLASS_LIT);
                occ[*slot] += 1;
            }
            CNode::Atom { pred, args } => {
                for c in &mut class[self.layout.pred_range(*pred)] {
                    *c = (*c).min(CLASS_DYN);
                }
                for &a in args {
                    self.mark_term(a, class, occ);
                }
            }
            CNode::Eq(a, b) => {
                self.mark_term(*a, class, occ);
                self.mark_term(*b, class, occ);
            }
            CNode::Not(g) => self.mark_node(*g, class, occ, seen_nodes, seen_props),
            CNode::And(children) | CNode::Or(children) => {
                for &ch in children {
                    self.mark_node(ch, class, occ, seen_nodes, seen_props);
                }
            }
            CNode::Iff(a, b) => {
                self.mark_node(*a, class, occ, seen_nodes, seen_props);
                self.mark_node(*b, class, occ, seen_nodes, seen_props);
            }
            CNode::Cmp { lhs, rhs, .. } => {
                self.mark_prop(*lhs, class, occ, seen_nodes, seen_props);
                self.mark_prop(*rhs, class, occ, seen_nodes, seen_props);
            }
        }
    }

    fn mark_prop(
        &self,
        id: u32,
        class: &mut [u8],
        occ: &mut [u32],
        seen_nodes: &mut [bool],
        seen_props: &mut [bool],
    ) {
        if seen_props[id as usize] {
            return;
        }
        seen_props[id as usize] = true;
        match &self.props[id as usize] {
            CProp::Rat(_) => {}
            CProp::Count { insts, .. } => {
                for inst in insts {
                    self.mark_node(inst.body, class, occ, seen_nodes, seen_props);
                    if inst.cond != NO_NODE {
                        self.mark_node(inst.cond, class, occ, seen_nodes, seen_props);
                    }
                }
            }
            CProp::Arith(_, a, b) => {
                self.mark_prop(*a, class, occ, seen_nodes, seen_props);
                self.mark_prop(*b, class, occ, seen_nodes, seen_props);
            }
        }
    }

    /// Walks the root conjunction for literals whose slot value is
    /// forced in every model.
    fn extract_units(&self) -> Vec<Unit> {
        let mut units = Vec::new();
        let mut stack = vec![self.root];
        while let Some(id) = stack.pop() {
            match &self.nodes[id as usize] {
                CNode::And(children) => stack.extend(children.iter().copied()),
                CNode::Lit { .. } | CNode::Atom { .. } => units.push(Unit {
                    node: id,
                    value: true,
                }),
                CNode::Not(g) => match &self.nodes[*g as usize] {
                    CNode::Lit { .. } | CNode::Atom { .. } => units.push(Unit {
                        node: *g,
                        value: false,
                    }),
                    _ => {}
                },
                _ => {}
            }
        }
        units
    }
}

/// An unreduced fraction `(num, den)` with `den > 0`.
pub(crate) type Pair = (i128, i128);

/// A proportion's value under a full assignment, or `None` when a
/// conditional proportion's condition is empty (undefined).
pub(crate) type Frac = Option<Pair>;

fn to_rat((num, den): Pair) -> Rat {
    Rat::new(num, den)
}

/// `l ⋈ r` under tolerance `tau` (resolved from `op`), decided by exact
/// cross-multiplication on the unreduced fractions. On `i128` overflow it
/// falls back to [`Rat`], whose reduced operands are exactly what the
/// tree-walking evaluator compares, so both paths always agree.
///
/// Always inlined, exact path included: it is the inner step of the
/// Monte-Carlo acceptance check, branch-and-count and orbit counting
/// alike, and a call per comparison slows every one of those kernels.
#[inline(always)]
pub(crate) fn compare(l: Pair, op: CmpOp, tau: Rat, r: Pair) -> bool {
    match compare_exact(l, op, tau, r) {
        Some(holds) => holds,
        None => decide_at(to_rat(l), op, to_rat(r), tau),
    }
}

/// [`compare`] in exact `i128`, `None` on overflow. `l − r = diff / den`
/// with `den > 0`, so `|l − r| ≤ τ` is `|diff| · τ.den ≤ τ.num · den`, and
/// likewise without the `| |`.
///
/// An `i128::checked_mul` is a library call. With every operand below
/// 2³¹ in magnitude no step here can overflow (each product stays below
/// 2⁹⁵), so the small counts and statistics the kernels compare take
/// plain arithmetic.
#[inline(always)]
fn compare_exact(l: Pair, op: CmpOp, tau: Rat, r: Pair) -> Option<bool> {
    let small = |v: i128| v.unsigned_abs() < 1 << 31;
    if small(l.0) & small(l.1) & small(r.0) & small(r.1) & small(tau.num()) & small(tau.den()) {
        let diff = l.0 * r.1 - r.0 * l.1;
        return Some(match op {
            CmpOp::Eq => diff == 0,
            CmpOp::Leq => diff <= 0,
            CmpOp::ApproxEq(_) => diff.abs() * tau.den() <= tau.num() * (l.1 * r.1),
            CmpOp::ApproxLeq(_) => diff * tau.den() <= tau.num() * (l.1 * r.1),
        });
    }
    let diff = l.0.checked_mul(r.1)?.checked_sub(r.0.checked_mul(l.1)?)?;
    Some(match op {
        CmpOp::Eq => diff == 0,
        CmpOp::Leq => diff <= 0,
        CmpOp::ApproxEq(_) | CmpOp::ApproxLeq(_) => {
            let den = l.1.checked_mul(r.1)?;
            let gap = match op {
                CmpOp::ApproxEq(_) => diff.checked_abs()?,
                _ => diff,
            };
            gap.checked_mul(tau.den())? <= tau.num().checked_mul(den)?
        }
    })
}

/// `l op r` on unreduced fractions in checked `i128`, falling back to the
/// reduced [`Rat`] operation (which panics on overflow exactly where the
/// tree-walking evaluator does).
pub(crate) fn arith(l: Pair, op: Arith, r: Pair) -> Pair {
    if let Some(v) = arith_exact(l, op, r) {
        return v;
    }
    let (x, y) = (to_rat(l), to_rat(r));
    let v = match op {
        Arith::Add => x + y,
        Arith::Sub => x - y,
        Arith::Mul => x * y,
    };
    (v.num(), v.den())
}

/// [`arith`] in checked `i128`, `None` on overflow.
#[inline(always)]
fn arith_exact((a, b): Pair, op: Arith, (c, d): Pair) -> Option<Pair> {
    Some(match op {
        Arith::Add => (
            a.checked_mul(d)?.checked_add(c.checked_mul(b)?)?,
            b.checked_mul(d)?,
        ),
        Arith::Sub => (
            a.checked_mul(d)?.checked_sub(c.checked_mul(b)?)?,
            b.checked_mul(d)?,
        ),
        Arith::Mul => (a.checked_mul(c)?, b.checked_mul(d)?),
    })
}

/// Full-assignment evaluation: the Monte-Carlo acceptance kernel.
impl Program {
    /// Two-valued truth under the full slot assignment `world`, packed
    /// in this program's [`SlotLayout`].
    ///
    /// Agrees with [`crate::eval::Evaluator::eval`] on the world the
    /// assignment encodes, measure-zero convention included. Proportions
    /// stay integer counts and every comparison is decided by
    /// cross-multiplication, so no evaluation pays for [`Rat`]'s gcd
    /// normalisation.
    pub fn holds(&self, world: &PackedWorld) -> bool {
        debug_assert_eq!(world.bit_slots, self.layout.bit_slot_count());
        debug_assert_eq!(world.bit_slots + world.elems.len(), self.layout.slot_count);
        self.node_holds(self.root, world)
    }

    fn tuple_index(&self, args: &[u32], world: &PackedWorld) -> usize {
        args.iter()
            .fold(0, |idx, &a| idx * self.layout.n + self.term_value(a, world))
    }

    fn term_value(&self, id: u32, world: &PackedWorld) -> usize {
        match &self.terms[id as usize] {
            CTerm::Elem(e) => *e,
            CTerm::ConstSlot(slot) => world.elem(*slot),
            CTerm::App { func, args } => {
                world.elem(self.layout.func_slot(*func, self.tuple_index(args, world)))
            }
        }
    }

    /// [`Self::node_holds`] with the common single-bit node read in
    /// place, saving a call per proportion instance.
    #[inline]
    fn child_holds(&self, id: u32, world: &PackedWorld) -> bool {
        match self.nodes[id as usize] {
            CNode::Lit { slot } => world.bit(slot),
            _ => self.node_holds(id, world),
        }
    }

    fn node_holds(&self, id: u32, world: &PackedWorld) -> bool {
        match &self.nodes[id as usize] {
            CNode::Bool(b) => *b,
            CNode::Lit { slot } => world.bit(*slot),
            CNode::Atom { pred, args } => {
                world.bit(self.layout.pred_slot(*pred, self.tuple_index(args, world)))
            }
            CNode::Eq(a, b) => self.term_value(*a, world) == self.term_value(*b, world),
            CNode::Not(g) => !self.node_holds(*g, world),
            CNode::And(children) => children.iter().all(|&ch| self.node_holds(ch, world)),
            CNode::Or(children) => children.iter().any(|&ch| self.node_holds(ch, world)),
            CNode::Iff(a, b) => self.node_holds(*a, world) == self.node_holds(*b, world),
            CNode::Cmp { lhs, op, tau, rhs } => {
                match (self.prop_value(*lhs, world), self.prop_value(*rhs, world)) {
                    (Some(l), Some(r)) => compare(l, *op, *tau, r),
                    // The measure-zero convention: a comparison touching
                    // an undefined conditional proportion holds vacuously.
                    _ => true,
                }
            }
        }
    }

    fn prop_value(&self, id: u32, world: &PackedWorld) -> Frac {
        match &self.props[id as usize] {
            CProp::Rat(r) => Some((r.num(), r.den())),
            CProp::Count {
                insts,
                base_body,
                base_cond,
                conditional,
                total,
                bits,
            } => {
                let (mut body, mut cond) = (*base_body, *base_cond);
                if let Some(bits) = bits {
                    let (b, c) = bits.counts(world);
                    body += b as i128;
                    cond += c as i128;
                } else {
                    for inst in insts {
                        if inst.cond == NO_NODE || self.child_holds(inst.cond, world) {
                            cond += 1;
                            body += self.child_holds(inst.body, world) as i128;
                        }
                    }
                }
                match (*conditional, cond) {
                    (true, 0) => None,
                    (true, _) => Some((body, cond)),
                    (false, _) => Some((body, *total)),
                }
            }
            CProp::Arith(op, a, b) => {
                let (l, r) = (self.prop_value(*a, world), self.prop_value(*b, world));
                Some(arith(l?, *op, r?))
            }
        }
    }
}

struct Compiler<'t> {
    layout: SlotLayout,
    n: usize,
    /// Resolves each comparison's tolerance once, at compile time.
    tol: &'t Tolerances,
    terms: Vec<CTerm>,
    nodes: Vec<CNode>,
    props: Vec<CProp>,
    /// Variable grounding environment (quantifiers and proportion
    /// subscripts bind elements at compile time).
    env: Vec<Option<usize>>,
}

impl Compiler<'_> {
    fn push_term(&mut self, t: CTerm) -> u32 {
        self.terms.push(t);
        (self.terms.len() - 1) as u32
    }

    fn push_node(&mut self, n: CNode) -> u32 {
        self.nodes.push(n);
        (self.nodes.len() - 1) as u32
    }

    fn push_prop(&mut self, p: CProp) -> u32 {
        self.props.push(p);
        (self.props.len() - 1) as u32
    }

    fn arith_prop(&mut self, op: Arith, a: &PropExpr, b: &PropExpr) -> u32 {
        let ca = self.prop(a);
        let cb = self.prop(b);
        self.push_prop(CProp::Arith(op, ca, cb))
    }

    fn boolean(&mut self, b: bool) -> u32 {
        self.push_node(CNode::Bool(b))
    }

    fn as_bool(&self, id: u32) -> Option<bool> {
        match self.nodes[id as usize] {
            CNode::Bool(b) => Some(b),
            _ => None,
        }
    }

    fn term(&mut self, t: &Term) -> u32 {
        match t {
            Term::Var(v) => {
                let e = self.env[v.index()]
                    .expect("compiled formulas must be closed (unbound variable)");
                self.push_term(CTerm::Elem(e))
            }
            Term::Const(c) => {
                let slot = self.layout.const_slot(c.index());
                self.push_term(CTerm::ConstSlot(slot))
            }
            Term::App(f, args) => {
                let cargs: Vec<u32> = args.iter().map(|a| self.term(a)).collect();
                self.push_term(CTerm::App {
                    func: f.index(),
                    args: cargs,
                })
            }
        }
    }

    /// The bit node `id` reads when it is a static atom or its negation.
    fn static_bit(&self, id: u32) -> Option<StaticBit> {
        match self.nodes[id as usize] {
            CNode::Lit { slot } => Some(StaticBit { slot, flip: 0 }),
            CNode::Not(g) => match self.nodes[g as usize] {
                CNode::Lit { slot } => Some(StaticBit { slot, flip: 1 }),
                _ => None,
            },
            _ => None,
        }
    }

    /// The slot tables of a count whose instances all read static bits.
    fn bit_count(&self, insts: &[CountInst]) -> Option<BitCount> {
        let (mut bodies, mut pairs) = (Vec::new(), Vec::new());
        for inst in insts {
            let body = self.static_bit(inst.body)?;
            if inst.cond == NO_NODE {
                bodies.push(body);
            } else {
                pairs.push((self.static_bit(inst.cond)?, body));
            }
        }
        Some(BitCount::new(bodies, pairs))
    }

    fn static_elem(&self, t: u32) -> Option<usize> {
        match self.terms[t as usize] {
            CTerm::Elem(e) => Some(e),
            _ => None,
        }
    }

    fn not_of(&mut self, g: u32) -> u32 {
        if let Some(b) = self.as_bool(g) {
            return self.boolean(!b);
        }
        if let CNode::Not(inner) = self.nodes[g as usize] {
            return inner;
        }
        self.push_node(CNode::Not(g))
    }

    /// N-ary conjunction (`and`) or disjunction with constant folding,
    /// splicing in children of the same connective (a grounded quantifier).
    fn junction(&mut self, and: bool, children: Vec<u32>) -> u32 {
        let mut flat = Vec::with_capacity(children.len());
        for ch in children {
            match &self.nodes[ch as usize] {
                CNode::Bool(b) if *b != and => return self.boolean(!and),
                CNode::Bool(_) => {}
                CNode::And(inner) if and => flat.extend(inner.iter().copied()),
                CNode::Or(inner) if !and => flat.extend(inner.iter().copied()),
                _ => flat.push(ch),
            }
        }
        match flat.len() {
            0 => self.boolean(and),
            1 => flat[0],
            _ if and => self.push_node(CNode::And(flat)),
            _ => self.push_node(CNode::Or(flat)),
        }
    }

    fn formula(&mut self, f: &Formula) -> u32 {
        match f {
            Formula::True => self.boolean(true),
            Formula::False => self.boolean(false),
            Formula::Pred(p, args) => {
                let cargs: Vec<u32> = args.iter().map(|a| self.term(a)).collect();
                if cargs.iter().all(|&a| self.static_elem(a).is_some()) {
                    let mut idx = 0usize;
                    for &a in &cargs {
                        idx = idx * self.n + self.static_elem(a).unwrap();
                    }
                    let slot = self.layout.pred_slot(p.index(), idx);
                    self.push_node(CNode::Lit { slot })
                } else {
                    self.push_node(CNode::Atom {
                        pred: p.index(),
                        args: cargs,
                    })
                }
            }
            Formula::TermEq(a, b) => {
                let ca = self.term(a);
                let cb = self.term(b);
                match (self.static_elem(ca), self.static_elem(cb)) {
                    (Some(x), Some(y)) => self.boolean(x == y),
                    _ => self.push_node(CNode::Eq(ca, cb)),
                }
            }
            Formula::Not(g) => {
                let cg = self.formula(g);
                self.not_of(cg)
            }
            Formula::And(parts) | Formula::Or(parts) => {
                let children = parts.iter().map(|g| self.formula(g)).collect();
                self.junction(matches!(f, Formula::And(..)), children)
            }
            Formula::Implies(a, b) => {
                let ca = self.formula(a);
                let na = self.not_of(ca);
                let cb = self.formula(b);
                self.junction(false, vec![na, cb])
            }
            Formula::Iff(a, b) => {
                let ca = self.formula(a);
                let cb = self.formula(b);
                match (self.as_bool(ca), self.as_bool(cb)) {
                    (Some(x), Some(y)) => self.boolean(x == y),
                    (Some(true), None) => cb,
                    (None, Some(true)) => ca,
                    (Some(false), None) => self.not_of(cb),
                    (None, Some(false)) => self.not_of(ca),
                    (None, None) => self.push_node(CNode::Iff(ca, cb)),
                }
            }
            Formula::Forall(v, g) | Formula::Exists(v, g) => {
                // Grounded over the domain: a conjunction or a disjunction.
                let prev = self.env[v.index()];
                let mut children = Vec::with_capacity(self.n);
                for e in 0..self.n {
                    self.env[v.index()] = Some(e);
                    children.push(self.formula(g));
                }
                self.env[v.index()] = prev;
                self.junction(matches!(f, Formula::Forall(..)), children)
            }
            Formula::Cmp(lhs, op, rhs) => {
                let cl = self.prop(lhs);
                let cr = self.prop(rhs);
                self.push_node(CNode::Cmp {
                    lhs: cl,
                    op: *op,
                    tau: tolerance(*op, self.tol),
                    rhs: cr,
                })
            }
        }
    }

    fn prop(&mut self, e: &PropExpr) -> u32 {
        match e {
            PropExpr::Rat(r) => self.push_prop(CProp::Rat(*r)),
            PropExpr::Add(a, b) => self.arith_prop(Arith::Add, a, b),
            PropExpr::Sub(a, b) => self.arith_prop(Arith::Sub, a, b),
            PropExpr::Mul(a, b) => self.arith_prop(Arith::Mul, a, b),
            PropExpr::Prop { body, cond, vars } => {
                let k = vars.len();
                let total = (self.n as i128)
                    .checked_pow(k as u32)
                    .expect("proportion tuple space too large");
                let saved: Vec<Option<usize>> = vars.iter().map(|v| self.env[v.index()]).collect();
                let mut insts = Vec::new();
                let mut base_body: i128 = 0;
                let mut base_cond: i128 = 0;
                let mut assignment = vec![0usize; k];
                loop {
                    for (i, v) in vars.iter().enumerate() {
                        self.env[v.index()] = Some(assignment[i]);
                    }
                    let ccond = match cond {
                        Some(c) => {
                            let cc = self.formula(c);
                            match self.as_bool(cc) {
                                Some(false) => None, // instance statically excluded
                                Some(true) => Some(NO_NODE),
                                None => Some(cc),
                            }
                        }
                        None => Some(NO_NODE),
                    };
                    if let Some(cnode) = ccond {
                        let cbody = self.formula(body);
                        match (cnode, self.as_bool(cbody)) {
                            (NO_NODE, Some(b)) => {
                                base_cond += 1;
                                base_body += b as i128;
                            }
                            (cnode, _) => insts.push(CountInst {
                                body: cbody,
                                cond: cnode,
                            }),
                        }
                    }
                    // Advance the odometer over the subscript tuple.
                    let mut i = k;
                    loop {
                        if i == 0 {
                            break;
                        }
                        i -= 1;
                        assignment[i] += 1;
                        if assignment[i] < self.n {
                            break;
                        }
                        assignment[i] = 0;
                        if i == 0 {
                            i = usize::MAX;
                            break;
                        }
                    }
                    if k == 0 || i == usize::MAX {
                        break;
                    }
                }
                for (v, s) in vars.iter().zip(saved) {
                    self.env[v.index()] = s;
                }
                let bits = self.bit_count(&insts);
                self.push_prop(CProp::Count {
                    insts,
                    base_body,
                    base_cond,
                    conditional: cond.is_some(),
                    total,
                    bits,
                })
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use rw_logic::ast::TolId;
    use rw_logic::KnowledgeBase;
    use rw_util::{Rng, StdRng};

    fn tol() -> Tolerances {
        Tolerances::uniform(Rat::new(1, 4))
    }

    #[test]
    fn layout_matches_enumeration_order() {
        let mut v = Vocabulary::new();
        v.pred("P", 1).unwrap();
        v.pred("R", 2).unwrap();
        v.func("f", 1).unwrap();
        v.constant("c").unwrap();
        let l = SlotLayout::new(&v, 3).unwrap();
        // 3 P-bits, 9 R-bits, 3 f-entries, 1 constant.
        assert_eq!(l.slot_count(), 3 + 9 + 3 + 1);
        assert_eq!(l.domain(0), 2);
        assert_eq!(l.domain(3 + 9), 3); // first f entry
        assert_eq!(l.domain(3 + 9 + 3), 3); // the constant
        assert_eq!(
            l.total_assignments().unwrap(),
            crate::enumerate::count_interpretations(&v, 3).unwrap()
        );
    }

    #[test]
    fn ground_atoms_with_static_args_become_lits() {
        let kb = KnowledgeBase::parse("forall x (P(x))").unwrap();
        let f = kb.conjuncts()[0].clone();
        let p = Program::compile(kb.vocab(), 3, &tol(), &f).unwrap();
        // The grounded ∀ is an And of three Lit nodes.
        match &p.nodes[p.root as usize] {
            CNode::And(children) => {
                assert_eq!(children.len(), 3);
                for &ch in children {
                    assert!(matches!(p.nodes[ch as usize], CNode::Lit { .. }));
                }
            }
            other => panic!("{other:?}"),
        }
        // ...and they are all unit literals.
        assert_eq!(p.units.len(), 3);
        assert!(p.units.iter().all(|u| u.value));
    }

    #[test]
    fn a_large_kb_is_one_flat_conjunction_on_a_small_stack() {
        // A server worker's 2 MiB stack: every pass below must loop over
        // the statements, not recurse once per statement.
        std::thread::Builder::new()
            .stack_size(2 << 20)
            .spawn(|| {
                let src: Vec<String> = (0..6000).map(|i| format!("Q{}(K{i})", i % 50)).collect();
                let kb = KnowledgeBase::parse(&src.join("; ")).unwrap();
                let f = kb.as_formula();
                assert_eq!(f.conjuncts().len(), 6000);
                let canon = rw_logic::canon::canonical_formula(kb.vocab(), &f);
                assert_eq!(canon.matches("P:Q").count(), 6000);
                let printed = rw_logic::Pretty::new(kb.vocab(), &f).to_string();
                let mut vocab = kb.vocab().clone();
                assert_eq!(rw_logic::parse_formula(&mut vocab, &printed).unwrap(), f);
                let p = Program::compile(kb.vocab(), 2, &tol(), &f).unwrap();
                // One node per statement plus the root: no intermediate
                // conjunction per statement.
                assert_eq!(p.nodes.len(), 6001);
                assert!(matches!(&p.nodes[p.root as usize], CNode::And(ch) if ch.len() == 6000));
            })
            .unwrap()
            .join()
            .expect("a pass overflowed a 2 MiB stack");
    }

    #[test]
    fn constant_atoms_are_dynamic_and_constants_branch_first() {
        let kb = KnowledgeBase::parse("Likes(A, B)").unwrap();
        let f = kb.conjuncts()[0].clone();
        let p = Program::compile(kb.vocab(), 4, &tol(), &f).unwrap();
        assert!(matches!(p.nodes[p.root as usize], CNode::Atom { .. }));
        assert_eq!(p.units.len(), 1);
        // Branch order: the two constant slots (term class) come before
        // any predicate bit.
        let const_start = p.layout.const_base;
        assert!(p.branch_order.len() >= 2);
        assert!((p.branch_order[0] as usize) >= const_start);
        assert!((p.branch_order[1] as usize) >= const_start);
    }

    #[test]
    fn proportions_ground_to_count_props() {
        let kb = KnowledgeBase::parse("||P(x)||_x ~=_1 0.5").unwrap();
        let f = kb.conjuncts()[0].clone();
        let p = Program::compile(kb.vocab(), 4, &tol(), &f).unwrap();
        let CNode::Cmp { lhs, .. } = &p.nodes[p.root as usize] else {
            panic!("expected Cmp root");
        };
        let CProp::Count {
            insts,
            total,
            conditional,
            ..
        } = &p.props[*lhs as usize]
        else {
            panic!("expected Count lhs");
        };
        assert_eq!(insts.len(), 4);
        assert_eq!(*total, 4);
        assert!(!conditional);
    }

    /// `compare` must decide exactly what `Rat` decides.
    fn rat_decision(l: Pair, op: CmpOp, r: Pair, tol: &Tolerances) -> bool {
        crate::eval::decide(to_rat(l), op, to_rat(r), tol)
    }

    /// [`compare`] under `op`'s tolerance in `tol`.
    fn compare_under(l: Pair, op: CmpOp, r: Pair, tol: &Tolerances) -> bool {
        compare(l, op, tolerance(op, tol), r)
    }

    #[test]
    fn count_comparisons_are_exact_at_the_tolerance_boundary() {
        // α = 1/2, τ = 1/10, counts over d = 10 left unreduced: b/d = α ± τ
        // sits exactly on the boundary.
        let tol = Tolerances::uniform(Rat::new(1, 10));
        let (eq, leq) = (CmpOp::ApproxEq(TolId(1)), CmpOp::ApproxLeq(TolId(1)));
        let alpha = (1, 2);
        for (b, within) in [(6, true), (4, true), (7, false), (3, false), (5, true)] {
            // `≈` is symmetric: the count on either side.
            assert_eq!(
                compare_under((b, 10), eq, alpha, &tol),
                within,
                "{b}/10 ≈ 1/2"
            );
            assert_eq!(
                compare_under(alpha, eq, (b, 10), &tol),
                within,
                "1/2 ≈ {b}/10"
            );
        }
        // Count on the left: b/d − α ≤ τ.
        for (b, holds) in [(6, true), (7, false), (0, true), (10, false)] {
            assert_eq!(
                compare_under((b, 10), leq, alpha, &tol),
                holds,
                "{b}/10 ⪯ 1/2"
            );
        }
        // Count on the right: α − b/d ≤ τ.
        for (b, holds) in [(4, true), (3, false), (10, true), (0, false)] {
            assert_eq!(
                compare_under(alpha, leq, (b, 10), &tol),
                holds,
                "1/2 ⪯ {b}/10"
            );
        }
        for b in 0..=10 {
            for op in [eq, leq, CmpOp::Eq, CmpOp::Leq] {
                for (l, r) in [((b, 10), alpha), (alpha, (b, 10))] {
                    assert_eq!(compare_under(l, op, r, &tol), rat_decision(l, op, r, &tol));
                }
            }
        }
    }

    #[test]
    fn overflowing_cross_products_fall_back_to_rat() {
        let tol = tol();
        // 3·2⁷⁰ / 2⁷⁰ against 1 / 2⁶⁰: the cross product 3·2¹³⁰ overflows
        // i128, the reduced values 3 and 2⁻⁶⁰ do not.
        let (big, tiny) = ((3i128 << 70, 1i128 << 70), (1i128, 1i128 << 60));
        assert!(big.0.checked_mul(tiny.1).is_none());
        // 2⁷⁰/2⁷⁰ against 2⁶⁵/2⁶⁵: both are 1.
        let (one_a, one_b) = ((1i128 << 70, 1i128 << 70), (1i128 << 65, 1i128 << 65));
        for op in [
            CmpOp::ApproxEq(TolId(1)),
            CmpOp::ApproxLeq(TolId(1)),
            CmpOp::Eq,
            CmpOp::Leq,
        ] {
            for (l, r) in [(big, tiny), (tiny, big), (one_a, one_b)] {
                assert_eq!(compare_under(l, op, r, &tol), rat_decision(l, op, r, &tol));
            }
        }
        assert!(compare_under(one_a, CmpOp::Eq, one_b, &tol));
        assert!(!compare_under(big, CmpOp::Leq, tiny, &tol));
        assert!(compare_under(tiny, CmpOp::ApproxLeq(TolId(1)), big, &tol));
    }

    /// An unreduced fraction: a base `a/b` (not necessarily reduced)
    /// scaled by `k`. Half the cases take `k` just below `i128::MAX / 64`,
    /// so every cross product with a non-zero operand overflows and the
    /// `Rat` fallback decides.
    fn unreduced() -> impl Strategy<Value = Pair> {
        prop_oneof![
            (-64i128..65, 1i128..65, 1i128..9).prop_map(|(a, b, k)| (a * k, b * k)),
            (-64i128..65, 1i128..65, 0i128..1024)
                .prop_map(|(a, b, s)| (a * (i128::MAX / 64 - s), b * (i128::MAX / 64 - s))),
        ]
    }

    const OPS: [CmpOp; 4] = [
        CmpOp::ApproxEq(TolId(1)),
        CmpOp::ApproxLeq(TolId(1)),
        CmpOp::Eq,
        CmpOp::Leq,
    ];

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(2048))]

        #[test]
        fn compare_and_arith_agree_with_reduced_rats(
            l in unreduced(),
            r in unreduced(),
            op in 0usize..4,
            (t, d) in (0i128..20, 1i128..100),
        ) {
            let (op, tau) = (OPS[op], Rat::new(t, d));
            let (lr, rr) = (to_rat(l), to_rat(r));
            // `r` itself, and `l − τ`, `l`, `l + τ` (unreduced by 3), which sit on
            // the tolerance boundary.
            let mut rights = vec![r];
            for sign in [-1, 0, 1] {
                rights.push(arith(l, Arith::Add, (3 * sign * t, 3 * d)));
            }
            for r in rights {
                for (a, b) in [(l, r), (r, l)] {
                    prop_assert_eq!(
                        compare(a, op, tau, b),
                        crate::eval::decide_at(to_rat(a), op, to_rat(b), tau),
                        "{:?} {:?} {:?} under τ = {}", a, op, b, tau
                    );
                }
            }
            for (arith_op, reduced) in [(Arith::Add, lr + rr), (Arith::Sub, lr - rr), (Arith::Mul, lr * rr)] {
                let v = arith(l, arith_op, r);
                prop_assert!(v.1 > 0, "{:?} {:?} {:?} gave denominator {}", l, arith_op, r, v.1);
                prop_assert_eq!(to_rat(v), reduced, "{:?} {:?} {:?}", l, arith_op, r);
            }
        }
    }

    #[test]
    fn holds_reads_the_packed_world() {
        let mut kb = KnowledgeBase::parse("||P(x) | Q(x)||_x ~=_1 0.5; Q(C)").unwrap();
        let q = kb.parse_query("C = Next(C)").unwrap();
        let n = 2;
        let kb_prog = Program::compile(kb.vocab(), n, &tol(), &kb.as_formula()).unwrap();
        let q_prog = Program::compile(kb.vocab(), n, &tol(), &q).unwrap();
        let layout = kb_prog.layout();
        // Slots: P0 P1 | Q0 Q1 | Next(0) Next(1) | C.
        assert_eq!(layout.slot_count(), 7);
        let c = layout.const_slot(0);
        let mut world = PackedWorld::new(layout);
        for (slot, value) in [1, 0, 1, 1, 1, 0, 0].into_iter().enumerate() {
            world.set(slot, value);
        }
        assert_eq!(world.words, [0b1101, 0]);
        assert_eq!(world.elems, [1, 0, 0]);
        assert!(kb_prog.holds(&world)); // P on half of Q, C ∈ Q
        assert!(!q_prog.holds(&world)); // Next(0) = 1 ≠ C
        world.set(c, 1);
        assert!(!q_prog.holds(&world)); // Next(1) = 0 ≠ C
        world.set(layout.func_slot(0, 1), 1);
        assert!(q_prog.holds(&world)); // Next(1) = 1 = C
        world.set(layout.pred_slot(0, 1), 1); // ||P | Q|| = 1, not ≈ 1/2
        assert!(!kb_prog.holds(&world));
        // With Q empty the conditional proportion is undefined, and the
        // comparison holds vacuously whatever P is.
        let stat = Program::compile(kb.vocab(), n, &tol(), &kb.conjuncts()[0]).unwrap();
        assert!(!stat.holds(&world));
        world.set(layout.pred_slot(1, 0), 0);
        world.set(layout.pred_slot(1, 1), 0);
        assert!(stat.holds(&world));
        assert_eq!(
            (0..7).map(|s| world.get(s)).collect::<Vec<_>>(),
            [1, 1, 0, 0, 1, 1, 1]
        );
    }

    /// The bits `bits` read one by one: [`BitCount::counts`]' reference.
    fn per_bit(bits: impl IntoIterator<Item = StaticBit>, world: &PackedWorld) -> usize {
        bits.into_iter().map(|b| b.read(world)).sum()
    }

    #[test]
    fn popcount_runs_count_what_per_bit_reads_count() {
        let mut rng = StdRng::seed_from_u64(17);
        let bit_slots: usize = 5 * 64 + 9;
        let mut world = PackedWorld {
            words: vec![0; bit_slots.div_ceil(64) + 1],
            elems: Vec::new(),
            bit_slots,
        };
        let run = |start: usize, len: usize, flip: usize| -> Vec<StaticBit> {
            (start..start + len)
                .map(|slot| StaticBit { slot, flip })
                .collect()
        };
        for _ in 0..8 {
            for slot in 0..bit_slots {
                world.set(slot, (rng.next_u64() >> 63) as usize);
            }
            // Aligned and unaligned starts, lengths inside one word, on a
            // word boundary and past it, and runs ending on the last bit.
            for start in [0, 1, 13, 63, 64, 65, 127, 200] {
                for len in [0, 1, 2, 31, 63, 64, 65, 100, 128, 129] {
                    let len = len.min(bit_slots - start);
                    for (cflip, bflip) in [(0, 0), (1, 0), (0, 1), (1, 1)] {
                        let cond_start = bit_slots - len - start / 2;
                        let (conds, bodies) = (run(cond_start, len, cflip), run(start, len, bflip));
                        let table = BitCount::new(bodies.clone(), Vec::new());
                        assert!(table.body_run.is_some());
                        assert_eq!(
                            table.counts(&world),
                            (per_bit(bodies.iter().copied(), &world), len),
                            "bodies at {start}, {len} long, flip {bflip}"
                        );
                        let pairs: Vec<_> =
                            conds.iter().copied().zip(bodies.iter().copied()).collect();
                        let table = BitCount::new(Vec::new(), pairs.clone());
                        assert!(table.pair_runs.is_some());
                        let cond = per_bit(conds.iter().copied(), &world);
                        let body = pairs
                            .iter()
                            .map(|&(c, b)| c.read(&world) & b.read(&world))
                            .sum();
                        assert_eq!(
                            table.counts(&world),
                            (body, cond),
                            "pairs at {cond_start}/{start}, {len} long, flips {cflip}/{bflip}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn bit_runs_need_consecutive_slots_and_one_flip() {
        let bit = |slot, flip| StaticBit { slot, flip };
        assert_eq!(
            BitRun::of([bit(3, 1), bit(4, 1), bit(5, 1)]),
            Some(BitRun {
                start: 3,
                len: 3,
                flip: u64::MAX
            })
        );
        assert_eq!(BitRun::of([bit(3, 0), bit(5, 0)]), None);
        assert_eq!(BitRun::of([bit(4, 0), bit(3, 0)]), None);
        assert_eq!(BitRun::of([bit(3, 0), bit(4, 1)]), None);
        // A conditional table whose conditions mix flips counts bit by bit.
        let table = BitCount::new(
            Vec::new(),
            vec![(bit(0, 0), bit(2, 0)), (bit(1, 1), bit(3, 0))],
        );
        assert!(table.pair_runs.is_none());
        let mut world = PackedWorld {
            words: vec![0; 2],
            elems: Vec::new(),
            bit_slots: 4,
        };
        world.set(2, 1);
        world.set(3, 1);
        // Instance 0's condition fails, instance 1's (¬bit 1) holds.
        assert_eq!(table.counts(&world), (1, 1));
    }

    #[test]
    fn boolean_folding_collapses_static_structure() {
        let mut kb = KnowledgeBase::parse("P(C) or !P(C)").unwrap();
        // `forall x (x = x)` folds to true at compile time.
        let f = kb.parse_query("forall x (x = x)").unwrap();
        let p = Program::compile(kb.vocab(), 3, &tol(), &f).unwrap();
        assert!(matches!(p.nodes[p.root as usize], CNode::Bool(true)));
        assert!(p.branch_order.is_empty());
    }
}
