//! Branch-and-count: exact model counting over compiled slot programs.
//!
//! [`crate::enumerate::count_worlds`] walks every interpretation with an
//! odometer and re-evaluates the whole formula per world. This module
//! replaces that blind walk with a **search over slots**: assign slots in
//! the program's support order, evaluate the compiled program
//! three-valued under the partial assignment, and
//!
//! * **prune** a branch the instant the program evaluates false (every
//!   completion of the partial assignment is a non-model — Kleene
//!   evaluation is monotone under extension);
//! * **force** slots implied by the program's unit literals (ground
//!   facts) instead of branching on them;
//! * **multiply out** the remaining slots the instant the program
//!   evaluates true: every completion is a model, so the branch
//!   contributes `Π domain(slot)` over the unassigned slots
//!   (`2^k · N^m`) in O(1) instead of being enumerated.
//!
//! The cost unit is a **visited search node**, which is what
//! [`CountOptions::max_visited`] bounds — orders of magnitude fewer than
//! interpretations on structured formulas.
//!
//! A decided proportion is kept as its **unreduced integer counts**
//! `(body, condition)` (or `(body, N^k)`), and every comparison is
//! decided by cross-multiplying them in checked `i128`, as
//! [`Program::holds`] does: no search node pays for a gcd. On overflow
//! the comparison falls back to reduced [`rw_util::Rat`] values, so each
//! decision is exactly the tree-walking evaluator's.
//!
//! # Parallelism and determinism
//!
//! Counting shards the top of the branch tree into **chunks** — fixed
//! assignments of a prefix of the branch order — and runs them on the
//! shared [`rw_util::par`] pool, which returns results in chunk order and
//! the lowest-index chunk failure. Each worker reuses one search across
//! the chunks it claims, reset to the empty assignment with zeroed effort
//! counters per chunk. The chunk decomposition depends only
//! on the program (never on the thread count) and each chunk's
//! sub-budget is a fixed share of the total, so a count, its
//! visited/branched totals, and even its failure mode are identical at
//! any thread count.

use crate::compile::{arith, compare, CNode, CProp, CTerm, CountInst, Pair, Program, NO_NODE};
use rw_util::par;

/// Default cap on visited search nodes (branch-and-count visits far
/// fewer nodes than there are interpretations, so this reaches much
/// deeper than [`crate::enumerate::DEFAULT_MAX_WORLDS`] ever could).
pub const DEFAULT_MAX_VISITED: u64 = 1 << 24;

/// Tuning for one count.
#[derive(Clone, Copy, Debug)]
pub struct CountOptions {
    /// Cap on visited search nodes (shared across the chunks: each chunk
    /// gets an equal share, so the cap is thread-count independent).
    pub max_visited: u64,
    /// Worker threads (0 = one per core, 1 = sequential).
    pub threads: usize,
}

impl Default for CountOptions {
    fn default() -> CountOptions {
        CountOptions {
            max_visited: DEFAULT_MAX_VISITED,
            threads: 1,
        }
    }
}

/// A successful count with its search-effort accounting.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct CountOutcome {
    /// Number of models of the program.
    pub count: u128,
    /// Search nodes visited.
    pub visited: u64,
    /// Visited nodes that branched over a slot (the rest were decided by
    /// evaluation or propagation alone).
    pub branched: u64,
}

/// Why a count failed.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum CountError {
    /// The visited-node budget ran out before the search finished.
    BudgetExhausted,
    /// The model count (or the slot-space product) overflows `u128`.
    Overflow,
}

impl std::fmt::Display for CountError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CountError::BudgetExhausted => write!(f, "visited-branch budget exhausted"),
            CountError::Overflow => write!(f, "model count overflows u128"),
        }
    }
}

impl std::error::Error for CountError {}

/// Three-valued (Kleene) truth under a partial assignment.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Tri {
    False,
    True,
    Unknown,
}

/// A memoized proportion value: `Def` and `Undef` persist down the
/// subtree (decided values never change under extension). A `Def` value
/// is an unreduced fraction, compared by cross-multiplication.
#[derive(Clone, Copy, Debug, PartialEq)]
enum PropKnow {
    Unknown,
    Def(Pair),
    Undef,
}

/// Backtrack-trail entries.
enum Trail {
    Slot(u32),
    Node(u32),
    Prop(u32),
}

const UNASSIGNED: u8 = u8::MAX;

/// One branch-and-count search over a program. A worker builds one and
/// [`Search::reset`]s it for every chunk it claims.
struct Search<'p> {
    prog: &'p Program,
    assign: Vec<u8>,
    node_memo: Vec<Tri>,
    prop_memo: Vec<PropKnow>,
    trail: Vec<Trail>,
    /// Slots `0..bit_slots` are predicate bits, the rest range over the
    /// domain ([`crate::compile::SlotLayout::domain`]).
    bit_slots: usize,
    /// Unassigned bit slots and unassigned element slots: the free
    /// product is `2^free_bits · elem_pow[free_elems]`.
    free_bits: u32,
    free_elems: usize,
    /// `N^k` for every `k` up to the number of element slots.
    elem_pow: Vec<u128>,
    visited: u64,
    branched: u64,
    budget: u64,
}

impl<'p> Search<'p> {
    fn new(prog: &'p Program, budget: u64) -> Result<Search<'p>, CountError> {
        let layout = prog.layout();
        if layout.n() >= UNASSIGNED as usize {
            // Slot values are stored as `u8`; a domain this large is far
            // beyond countable anyway.
            return Err(CountError::Overflow);
        }
        // The total is `2^bit_slots · N^elems`; once it fits `u128`, so
        // does every `N^k` with `k ≤ elems` and every free product.
        layout.total_assignments().ok_or(CountError::Overflow)?;
        let bit_slots = layout.bit_slot_count();
        let elems = layout.slot_count() - bit_slots;
        let mut elem_pow = vec![1u128; elems + 1];
        for k in 1..=elems {
            elem_pow[k] = elem_pow[k - 1] * layout.n() as u128;
        }
        Ok(Search {
            prog,
            assign: vec![UNASSIGNED; layout.slot_count()],
            node_memo: vec![Tri::Unknown; prog.nodes.len()],
            prop_memo: vec![PropKnow::Unknown; prog.props.len()],
            trail: Vec::new(),
            bit_slots,
            free_bits: bit_slots as u32,
            free_elems: elems,
            elem_pow,
            visited: 0,
            branched: 0,
            budget,
        })
    }

    /// Back to the empty assignment with zero effort counters, as a
    /// fresh search would start.
    fn reset(&mut self) {
        self.pop_to(0);
        self.visited = 0;
        self.branched = 0;
    }

    /// Counts one chunk from a reset search: `(count, visited,
    /// branched)` over the models whose first `prefix_len` branch-order
    /// slots spell `chunk` (mixed radix, first slot least significant).
    fn count_chunk(
        &mut self,
        prefix_len: usize,
        chunk: usize,
    ) -> Result<(u128, u64, u64), CountError> {
        self.reset();
        let prog = self.prog;
        let mut rest = chunk as u64;
        for &slot in &prog.branch_order[..prefix_len] {
            let d = prog.layout().domain(slot as usize) as u64;
            self.assign_slot(slot as usize, (rest % d) as u8);
            rest /= d;
        }
        let count = self.run(prefix_len)?;
        Ok((count, self.visited, self.branched))
    }

    /// `Π domain(slot)` over the unassigned slots.
    fn free_product(&self) -> u128 {
        (1u128 << self.free_bits) * self.elem_pow[self.free_elems]
    }

    fn assign_slot(&mut self, slot: usize, value: u8) {
        debug_assert_eq!(self.assign[slot], UNASSIGNED);
        self.assign[slot] = value;
        if slot < self.bit_slots {
            self.free_bits -= 1;
        } else {
            self.free_elems -= 1;
        }
        self.trail.push(Trail::Slot(slot as u32));
    }

    fn pop_to(&mut self, mark: usize) {
        while self.trail.len() > mark {
            match self.trail.pop().expect("trail underflow") {
                Trail::Slot(s) => {
                    self.assign[s as usize] = UNASSIGNED;
                    if (s as usize) < self.bit_slots {
                        self.free_bits += 1;
                    } else {
                        self.free_elems += 1;
                    }
                }
                Trail::Node(id) => self.node_memo[id as usize] = Tri::Unknown,
                Trail::Prop(id) => self.prop_memo[id as usize] = PropKnow::Unknown,
            }
        }
    }

    fn eval_term(&self, id: u32) -> Option<usize> {
        match &self.prog.terms[id as usize] {
            CTerm::Elem(e) => Some(*e),
            CTerm::ConstSlot(slot) => match self.assign[*slot] {
                UNASSIGNED => None,
                v => Some(v as usize),
            },
            CTerm::App { func, args } => {
                let n = self.prog.layout().n();
                let mut idx = 0usize;
                for &a in args {
                    idx = idx * n + self.eval_term(a)?;
                }
                let slot = self.prog.layout().func_slot(*func, idx);
                match self.assign[slot] {
                    UNASSIGNED => None,
                    v => Some(v as usize),
                }
            }
        }
    }

    /// Resolves the slot a `Lit`/`Atom` node refers to, when its tuple
    /// is fully determined.
    fn atom_slot(&self, id: u32) -> Option<usize> {
        match &self.prog.nodes[id as usize] {
            CNode::Lit { slot } => Some(*slot),
            CNode::Atom { pred, args } => {
                let n = self.prog.layout().n();
                let mut idx = 0usize;
                for &a in args {
                    idx = idx * n + self.eval_term(a)?;
                }
                Some(self.prog.layout().pred_slot(*pred, idx))
            }
            _ => None,
        }
    }

    fn eval_node(&mut self, id: u32) -> Tri {
        match self.node_memo[id as usize] {
            Tri::Unknown => {}
            decided => return decided,
        }
        // `prog` is a shared reference with the search's lifetime, so
        // program data can be borrowed independently of `&mut self`.
        let prog = self.prog;
        let v = match &prog.nodes[id as usize] {
            CNode::Bool(b) => Tri::from(*b),
            CNode::Lit { .. } | CNode::Atom { .. } => match self.atom_slot(id) {
                Some(slot) => match self.assign[slot] {
                    UNASSIGNED => Tri::Unknown,
                    v => Tri::from(v == 1),
                },
                None => Tri::Unknown,
            },
            CNode::Eq(a, b) => match (self.eval_term(*a), self.eval_term(*b)) {
                (Some(x), Some(y)) => Tri::from(x == y),
                _ => Tri::Unknown,
            },
            CNode::Not(g) => match self.eval_node(*g) {
                Tri::True => Tri::False,
                Tri::False => Tri::True,
                Tri::Unknown => Tri::Unknown,
            },
            CNode::And(children) => {
                let mut any_unknown = false;
                let mut out = Tri::True;
                for &ch in children {
                    match self.eval_node(ch) {
                        Tri::False => {
                            out = Tri::False;
                            break;
                        }
                        Tri::Unknown => any_unknown = true,
                        Tri::True => {}
                    }
                }
                if out == Tri::True && any_unknown {
                    Tri::Unknown
                } else {
                    out
                }
            }
            CNode::Or(children) => {
                let mut any_unknown = false;
                let mut out = Tri::False;
                for &ch in children {
                    match self.eval_node(ch) {
                        Tri::True => {
                            out = Tri::True;
                            break;
                        }
                        Tri::Unknown => any_unknown = true,
                        Tri::False => {}
                    }
                }
                if out == Tri::False && any_unknown {
                    Tri::Unknown
                } else {
                    out
                }
            }
            CNode::Iff(a, b) => match (self.eval_node(*a), self.eval_node(*b)) {
                (Tri::Unknown, _) | (_, Tri::Unknown) => Tri::Unknown,
                (x, y) => Tri::from(x == y),
            },
            CNode::Cmp { lhs, op, tau, rhs } => {
                let l = self.eval_prop(*lhs);
                let r = self.eval_prop(*rhs);
                // The measure-zero convention: a comparison touching an
                // undefined conditional proportion holds vacuously, no
                // matter what the other side is.
                match (l, r) {
                    (PropKnow::Undef, _) | (_, PropKnow::Undef) => Tri::True,
                    (PropKnow::Def(a), PropKnow::Def(b)) => Tri::from(compare(a, *op, *tau, b)),
                    _ => Tri::Unknown,
                }
            }
        };
        if v != Tri::Unknown {
            self.node_memo[id as usize] = v;
            self.trail.push(Trail::Node(id));
        }
        v
    }

    fn eval_prop(&mut self, id: u32) -> PropKnow {
        match self.prop_memo[id as usize] {
            PropKnow::Unknown => {}
            known => return known,
        }
        let prog = self.prog;
        let v = match &prog.props[id as usize] {
            CProp::Rat(r) => PropKnow::Def((r.num(), r.den())),
            CProp::Arith(op, a, b) => {
                let l = self.eval_prop(*a);
                let r = self.eval_prop(*b);
                // `PropValue::map2`: any Undef operand makes the result
                // Undef regardless of the other side.
                match (l, r) {
                    (PropKnow::Undef, _) | (_, PropKnow::Undef) => PropKnow::Undef,
                    (PropKnow::Def(x), PropKnow::Def(y)) => PropKnow::Def(arith(x, *op, y)),
                    _ => PropKnow::Unknown,
                }
            }
            CProp::Count {
                insts,
                base_body,
                base_cond,
                conditional,
                total,
                bits,
            } => {
                let counts = match bits {
                    Some(bits) => bits
                        .partial_counts(&self.assign)
                        .map(|(b, c)| (b as i128, c as i128)),
                    None => self.eval_count(insts),
                };
                match counts {
                    None => PropKnow::Unknown,
                    Some((body, cond)) => match (*conditional, base_cond + cond) {
                        (true, 0) => PropKnow::Undef,
                        (true, cond) => PropKnow::Def((base_body + body, cond)),
                        (false, _) => PropKnow::Def((base_body + body, *total)),
                    },
                }
            }
        };
        if v != PropKnow::Unknown {
            self.prop_memo[id as usize] = v;
            self.trail.push(Trail::Prop(id));
        }
        v
    }

    /// `(body, condition)` counts over a count's instances, `None` while
    /// some instance is undecided.
    fn eval_count(&mut self, insts: &[CountInst]) -> Option<(i128, i128)> {
        let mut body_count = 0;
        let mut cond_count = 0;
        let mut unknown = false;
        for inst in insts {
            let cond = if inst.cond == NO_NODE {
                Tri::True
            } else {
                self.eval_node(inst.cond)
            };
            match cond {
                Tri::False => continue,
                Tri::Unknown => {
                    unknown = true;
                    continue;
                }
                Tri::True => {}
            }
            cond_count += 1;
            match self.eval_node(inst.body) {
                Tri::True => body_count += 1,
                Tri::False => {}
                Tri::Unknown => unknown = true,
            }
        }
        (!unknown).then_some((body_count, cond_count))
    }

    /// One pass of unit propagation: forces every resolvable, unassigned
    /// unit-literal slot. Returns whether anything was forced.
    /// Conflicting assignments are left to evaluation (the unit's
    /// conjunct makes the root false).
    fn propagate_units(&mut self) -> bool {
        let mut progress = false;
        for i in 0..self.prog.units.len() {
            let unit = self.prog.units[i];
            let Some(slot) = self.atom_slot(unit.node) else {
                continue;
            };
            if self.assign[slot] == UNASSIGNED {
                self.assign_slot(slot, unit.value as u8);
                progress = true;
            }
        }
        progress
    }

    /// Counts the models extending the current partial assignment.
    /// `cursor` indexes into the branch order (everything before it is
    /// already assigned or skipped).
    fn run(&mut self, mut cursor: usize) -> Result<u128, CountError> {
        self.visited += 1;
        if self.visited > self.budget {
            return Err(CountError::BudgetExhausted);
        }
        loop {
            match self.eval_node(self.prog.root) {
                Tri::False => return Ok(0),
                Tri::True => return Ok(self.free_product()),
                Tri::Unknown => {}
            }
            if !self.propagate_units() {
                break;
            }
        }
        let order = &self.prog.branch_order;
        while cursor < order.len() && self.assign[order[cursor] as usize] != UNASSIGNED {
            cursor += 1;
        }
        let slot = if cursor < order.len() {
            order[cursor] as usize
        } else {
            // Defensive: with every support slot assigned the program is
            // always decided, but fall back to any unassigned slot
            // rather than trusting that invariant with a panic.
            match self.assign.iter().position(|&v| v == UNASSIGNED) {
                Some(s) => s,
                None => return Ok(0), // fully assigned yet Unknown: unreachable
            }
        };
        self.branched += 1;
        let domain = self.prog.layout().domain(slot);
        let mut total: u128 = 0;
        for v in 0..domain {
            let mark = self.trail.len();
            self.assign_slot(slot, v as u8);
            let sub = self.run(cursor + 1)?;
            total = total.checked_add(sub).ok_or(CountError::Overflow)?;
            self.pop_to(mark);
        }
        Ok(total)
    }
}

impl From<bool> for Tri {
    fn from(b: bool) -> Tri {
        if b {
            Tri::True
        } else {
            Tri::False
        }
    }
}

/// The fixed chunk decomposition of a program's branch tree: the longest
/// prefix of the branch order whose assignment product stays at or below
/// the target. Depends only on the program, never on the thread count —
/// the root of the determinism contract.
fn chunk_prefix(prog: &Program) -> (usize, u64) {
    const TARGET: u64 = 64;
    let mut len = 0usize;
    let mut product = 1u64;
    for &s in &prog.branch_order {
        if product >= TARGET {
            break;
        }
        product *= prog.layout().domain(s as usize) as u64;
        len += 1;
    }
    (len, product)
}

/// Counts the models of a compiled [`Program`] by branch-and-count.
///
/// Deterministic at any [`CountOptions::threads`] value: the count,
/// [`CountOutcome::visited`]/[`CountOutcome::branched`] totals and the
/// failure mode are all identical across thread counts for a fixed
/// program and budget.
pub fn count_models(prog: &Program, opts: &CountOptions) -> Result<CountOutcome, CountError> {
    // Chunking costs up to one visit per chunk (the prefix assignment
    // bypasses top-of-tree propagation), so only searches big enough to
    // amortize it are sharded. The threshold reads the *program*, never
    // the thread count — counts stay identical at any parallelism.
    const CHUNK_THRESHOLD: u128 = 4096;
    let (prefix_len, chunks) = if prog.support_assignments() >= CHUNK_THRESHOLD {
        chunk_prefix(prog)
    } else {
        (0, 1)
    };
    let chunk_budget = match chunks {
        1 => opts.max_visited,
        _ => (opts.max_visited / chunks).max(1),
    };
    // Each worker builds one search and resets it per chunk it claims.
    let results = par::try_map_with(
        chunks as usize,
        opts.threads,
        || Search::new(prog, chunk_budget),
        |search, chunk| {
            let search = search.as_mut().map_err(|e| *e)?;
            search.count_chunk(prefix_len, chunk)
        },
    )?;

    let mut outcome = CountOutcome {
        count: 0,
        visited: 0,
        branched: 0,
    };
    for (count, visited, branched) in results {
        outcome.count = outcome
            .count
            .checked_add(count)
            .ok_or(CountError::Overflow)?;
        outcome.visited += visited;
        outcome.branched += branched;
    }
    Ok(outcome)
}

/// Compiles `formula` over `W_n(Φ)` and counts its models.
///
/// The convenience entry the exact-inference stage uses twice per
/// `(query, N)` point: once for `#(KB)` (the cacheable denominator) and
/// once for `#(KB ∧ query)`.
pub fn count_formula_models(
    vocab: &rw_logic::Vocabulary,
    n: usize,
    tol: &rw_logic::Tolerances,
    formula: &rw_logic::ast::Formula,
    opts: &CountOptions,
) -> Result<CountOutcome, CountError> {
    let prog = Program::compile(vocab, n, tol, formula).ok_or(CountError::Overflow)?;
    count_models(&prog, opts)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::compile::CProp;
    use crate::enumerate;
    use crate::eval::Evaluator;
    use rw_logic::ast::Formula;
    use rw_logic::{KnowledgeBase, Tolerances};
    use rw_util::{Rat, Rng};

    fn tol() -> Tolerances {
        Tolerances::uniform(Rat::new(1, 4))
    }

    /// The naive oracle: enumerate every world and model-check.
    fn oracle_count(kb: &KnowledgeBase, f: &Formula, n: usize) -> u128 {
        let mut count = 0u128;
        enumerate::for_each_world(kb.vocab(), n, |w| {
            if Evaluator::new(w, kb.vocab(), &tol()).eval(f) {
                count += 1;
            }
        });
        count
    }

    fn counted(kb: &KnowledgeBase, f: &Formula, n: usize) -> CountOutcome {
        count_formula_models(kb.vocab(), n, &tol(), f, &CountOptions::default()).unwrap()
    }

    #[test]
    fn counts_match_the_oracle_on_mixed_shapes() {
        for (kb_src, q_src, n) in [
            ("true", "P(C)", 3),
            ("P(C)", "P(C)", 3),
            ("P(C) & !P(C)", "P(C)", 3),
            ("||P(x)||_x ~=_1 0.5; Q(C)", "P(C)", 4),
            ("Likes(A, B)", "Likes(B, A)", 3),
            ("C1 = C2 or C2 = C3 or C1 = C3", "C1 = C2", 4),
            ("forall x (P(x) => Q(x)); P(C)", "Q(C)", 3),
            ("exists x (P(x) & !Q(x))", "P(C)", 3),
            ("||Fly(x) | Bird(x)||_x ~=_1 1; Bird(C)", "Fly(C)", 4),
            ("||Likes(x, y)||_{x,y} ~=_1 0.25", "Likes(A, A)", 3),
        ] {
            let mut kb = KnowledgeBase::parse(kb_src).unwrap();
            let q = kb.parse_query(q_src).unwrap();
            let kb_f = kb.as_formula();
            let both = Formula::and(kb_f.clone(), q);
            assert_eq!(
                counted(&kb, &kb_f, n).count,
                oracle_count(&kb, &kb_f, n),
                "#KB diverged on `{kb_src}` at N={n}"
            );
            assert_eq!(
                counted(&kb, &both, n).count,
                oracle_count(&kb, &both, n),
                "#(KB ∧ q) diverged on `{kb_src}` ⊢ `{q_src}` at N={n}"
            );
        }
    }

    #[test]
    fn functions_and_nested_proportions_match_the_oracle() {
        for (kb_src, n) in [
            ("P(Next(C))", 3),
            ("forall x (P(Next(x)) <=> P(x))", 3),
            ("|| ||Rises(x, y) | Day(y)||_y ~=_1 1 ||_x ~=_1 0.5", 3),
        ] {
            let kb = KnowledgeBase::parse(kb_src).unwrap();
            let f = kb.as_formula();
            assert_eq!(
                counted(&kb, &f, n).count,
                oracle_count(&kb, &f, n),
                "diverged on `{kb_src}` at N={n}"
            );
        }
    }

    #[test]
    fn free_slots_are_multiplied_not_enumerated() {
        // `P(C)` with a fat spectator predicate: the R bits and the D
        // constant never constrain anything, so the visited count must
        // stay tiny while the model count covers the full product.
        let mut kb = KnowledgeBase::parse("P(C)").unwrap();
        kb.parse_query("Likes(D, D)").unwrap(); // interns Likes/2 and D
        let f = kb.as_formula();
        let n = 4usize;
        let out = counted(&kb, &f, n);
        let total = enumerate::count_interpretations(kb.vocab(), n).unwrap();
        assert_eq!(out.count, total / 2);
        assert!(
            out.visited < 64,
            "expected branch-and-count to multiply out free slots, visited {}",
            out.visited
        );
    }

    #[test]
    fn unsatisfiable_programs_prune_to_zero_quickly() {
        let kb = KnowledgeBase::parse("P(C) & !P(C); Likes(A, B)").unwrap();
        let f = kb.as_formula();
        let out = counted(&kb, &f, 4);
        assert_eq!(out.count, 0);
        assert!(out.visited < 128, "visited {}", out.visited);
    }

    #[test]
    fn predicate_free_totals_near_the_u128_limit_count() {
        // 21 constants at N = 64: no bit slots, a total of 64^21 = 2^126,
        // so the element-power table must stop at exactly N^21.
        let mut kb = KnowledgeBase::parse("C1 = C2").unwrap();
        let rest: Vec<String> = (3..=21).map(|i| format!("C{i} = C{i}")).collect();
        kb.parse_query(&rest.join(" & ")).unwrap();
        let f = kb.as_formula();
        let n = 64usize;
        let prog = Program::compile(kb.vocab(), n, &tol(), &f).unwrap();
        assert_eq!(prog.layout().bit_slot_count(), 0);
        assert_eq!(prog.layout().total_assignments(), Some(1u128 << 126));
        let out = counted(&kb, &f, n);
        assert_eq!(out.count, 1u128 << 120);
    }

    #[test]
    fn budget_exhaustion_is_reported() {
        let kb = KnowledgeBase::parse("||Likes(x, y)||_{x,y} ~=_1 0.5").unwrap();
        let f = kb.as_formula();
        let prog = Program::compile(kb.vocab(), 4, &tol(), &f).unwrap();
        for threads in [1usize, 2, 4, 0] {
            let err = count_models(
                &prog,
                &CountOptions {
                    max_visited: 8,
                    threads,
                },
            )
            .unwrap_err();
            assert_eq!(err, CountError::BudgetExhausted, "{threads} threads");
        }
    }

    /// Every count prop of `prog` that has a bit table.
    fn bit_counts(prog: &Program) -> Vec<(&[CountInst], &crate::compile::BitCount)> {
        prog.props
            .iter()
            .filter_map(|p| match p {
                CProp::Count {
                    insts,
                    bits: Some(bits),
                    ..
                } => Some((insts.as_slice(), bits)),
                _ => None,
            })
            .collect()
    }

    #[test]
    fn three_valued_bit_tables_read_what_the_instance_walk_does() {
        let kb = KnowledgeBase::parse(
            "||!Likes(x, y) | Knows(x, y)||_{x,y} ~=_1 0.25; ||P(x)||_x ~=_1 0.5; \
             ||!P(x) | !Q(x)||_x ~=_1 0.5",
        )
        .unwrap();
        let prog = Program::compile(kb.vocab(), 3, &tol(), &kb.as_formula()).unwrap();
        let tables = bit_counts(&prog);
        assert_eq!(tables.len(), 3, "every count here reads static bits");
        let bits = prog.layout().bit_slot_count();
        let mut rng = rw_util::StdRng::seed_from_u64(27);
        let mut search = Search::new(&prog, u64::MAX).unwrap();
        let (mut decided, mut undecided) = (0, 0);
        for _ in 0..2000 {
            search.reset();
            // Each bit unassigned with probability 1/8, else 0 or 1.
            for slot in 0..bits {
                match rng.next_u64() % 16 {
                    0 | 1 => {}
                    v => search.assign_slot(slot, (v & 1) as u8),
                }
            }
            for &(insts, table) in &tables {
                let read = table
                    .partial_counts(&search.assign)
                    .map(|(b, c)| (b as i128, c as i128));
                assert_eq!(read, search.eval_count(insts));
                match read {
                    Some(_) => decided += 1,
                    None => undecided += 1,
                }
            }
        }
        assert!(decided > 100 && undecided > 100, "{decided} / {undecided}");
    }

    #[test]
    fn a_budget_spent_in_a_later_chunk_of_a_reused_search_is_thread_invariant() {
        let kb = KnowledgeBase::parse("||Likes(x, y)||_{x,y} ~=_1 0.25; Likes(A, B)").unwrap();
        let prog = Program::compile(kb.vocab(), 3, &tol(), &kb.as_formula()).unwrap();
        let (prefix_len, chunks) = chunk_prefix(&prog);
        assert!(chunks > 1 && prog.support_assignments() >= 4096);
        // Every chunk on a search of its own.
        let fresh: Vec<(u128, u64, u64)> = (0..chunks as usize)
            .map(|c| {
                let mut search = Search::new(&prog, u64::MAX).unwrap();
                search.count_chunk(prefix_len, c).unwrap()
            })
            .collect();
        let widest = fresh.iter().map(|r| r.1).max().unwrap();
        let first_over = fresh.iter().position(|r| r.1 == widest).unwrap();
        assert!(
            first_over > 0 && fresh[0].1 < widest,
            "the budget must run out after a chunk that fits"
        );
        let with_share = |share: u64, threads: usize| {
            count_models(
                &prog,
                &CountOptions {
                    max_visited: share * chunks,
                    threads,
                },
            )
        };
        let totals = fresh
            .iter()
            .fold((0, 0, 0), |t, r| (t.0 + r.0, t.1 + r.1, t.2 + r.2));
        for threads in [1usize, 2, 3] {
            assert_eq!(
                with_share(widest - 1, threads),
                Err(CountError::BudgetExhausted),
                "{threads} threads"
            );
            let out = with_share(widest, threads).unwrap();
            assert_eq!(
                (out.count, out.visited, out.branched),
                totals,
                "{threads} threads"
            );
        }
    }

    #[test]
    fn thread_counts_never_change_the_outcome() {
        for (kb_src, n) in [
            ("||P(x)||_x ~=_1 0.5; Q(C)", 4),
            ("Likes(A, B)", 4),
            ("||Likes(x, y)||_{x,y} ~=_1 0.25", 3),
        ] {
            let kb = KnowledgeBase::parse(kb_src).unwrap();
            let f = kb.as_formula();
            let prog = Program::compile(kb.vocab(), n, &tol(), &f).unwrap();
            let base = count_models(&prog, &CountOptions::default()).unwrap();
            for threads in [2usize, 4, 0] {
                let opts = CountOptions {
                    threads,
                    ..CountOptions::default()
                };
                assert_eq!(
                    count_models(&prog, &opts).unwrap(),
                    base,
                    "`{kb_src}` diverged at {threads} threads"
                );
            }
        }
    }
}
