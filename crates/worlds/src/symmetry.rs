//! Symmetry-reduced exact counting: orbit enumeration over the
//! unnamed-element group.
//!
//! Worlds that differ only by a permutation of the domain elements *not*
//! denoted by constants satisfy exactly the same sentences, so the
//! symmetric group on unnamed elements partitions `W_N(Φ)` into orbits of
//! equivalent worlds. Instead of branching over `2^(N²)` predicate bits,
//! this module enumerates **canonical orbit representatives** and weights
//! each by its orbit size (orbit–stabilizer), so `#(KB ∧ q)` and `#KB`
//! are still exact while the number of representatives grows only
//! polynomially in `N` for the supported fragment.
//!
//! A representative is a triple:
//!
//! * a **coincidence partition** of the constants (which constants denote
//!   the same element — a restricted-growth string, generalizing the
//!   `const_block` of `rw_unary`'s profiles);
//! * an **atom-cell profile**: each block of constants sits in one of the
//!   `2^k` cells over the `k` tracked unary predicates, and each cell has
//!   a size `c_i` with `Σ c_i = N` (generalizing `rw_unary`'s counts);
//! * a **named-bit assignment** for the finitely many non-unary atoms the
//!   formula mentions on constants (the canonical adjacency form: under
//!   the unnamed-element group only bits on named tuples are
//!   distinguishable, the rest are interchangeable).
//!
//! Its weight is `multinomial(N; c⃗) · Π_i (c_i)_(b_i) · 2^(free bits)`:
//! the ways to realize the cell sizes, times the falling factorial
//! placing each cell's constant blocks on distinct elements, times the
//! unconstrained predicate bits multiplied out in one step. Counts reach
//! `2^(N²)` and beyond, far past `u128`, so they are carried as
//! [`ScaledCount`] values `coeff · 2^exp2`. A profile's proportions are
//! unreduced cell-count fractions, compared by cross-multiplication.
//!
//! # The supported fragment
//!
//! [`SymmetrySpec::detect`] accepts a conjunction whose conjuncts are
//! ground boolean combinations of constant atoms (any arity, plus
//! constant equalities) and single-variable unary proportion
//! constraints. Function symbols, quantifiers, and non-ground non-unary
//! atoms fall outside the group-action argument and return `None` — the
//! caller falls back to plain branch-and-count.
//!
//! # Size-independent tables
//!
//! The coincidence partitions, and for each block → cell assignment its
//! satisfying σ count and its cell occupancy, do not depend on `N`. A
//! spec computes them once and every count of the rising-`N` scan reads
//! them: the partitions on its first count, the rows of the partitions
//! with `b` blocks on the first count at `N ≥ b`. Within a chunk the
//! profile sum depends only on the occupancy, so it runs once per
//! occupancy class and is replayed for the class's later assignments.
//! A spec whose tables would not fit the count's visit budget, or a
//! block count whose rows would not, sweeps σ per assignment.
//!
//! # Parallelism and determinism
//!
//! Counting shards representatives into `N + 1` **chunks** by the size of
//! the first atom cell, runs them on the shared [`rw_util::par`] pool
//! with a fixed per-chunk budget share and merges results in chunk order,
//! so the count, its representative totals and its failure mode are
//! bit-identical at any thread count, with or without the tables.

use crate::compile::{arith, compare, Arith, Frac};
use crate::count::{CountError, CountOptions};
use crate::eval::tolerance;
use rw_logic::ast::{CmpOp, Formula, PropExpr, Term};
use rw_logic::{Tolerances, VarId, Vocabulary};
use rw_util::comb::binomial_checked;
use rw_util::{par, Rat, SetPartitions};
use std::collections::{BTreeSet, HashMap};
use std::convert::Infallible;
use std::sync::OnceLock;

/// Cap on tracked unary predicates (cells are bitmasks in a `u64`, and
/// the profile space grows as `N^(2^k − 1)`).
pub const MAX_TRACKED_UNARY: usize = 6;
/// Cap on distinct non-unary constant atoms the formula may mention
/// (named bits are swept exhaustively per representative).
pub const MAX_NAMED_ATOMS: usize = 16;
/// Cap on constants (the coincidence partitions grow as the Bell number).
pub const MAX_CONSTANTS: usize = 8;
/// Atom cells at the tracked-predicate cap.
const MAX_CELLS: usize = 1 << MAX_TRACKED_UNARY;

/// An exact world count `coeff · 2^exp2`, kept normalized with an odd
/// coefficient (or zero). Symmetry-reduced counts routinely exceed
/// `u128` — one spectator binary predicate contributes `2^(N²)` — but
/// they are always a modest odd part times a huge power of two.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct ScaledCount {
    /// The odd part (zero for a zero count).
    pub coeff: u128,
    /// The power-of-two exponent.
    pub exp2: u64,
}

fn shl_checked(c: u128, s: u64) -> Option<u128> {
    if c == 0 {
        Some(0)
    } else if s >= 128 || u64::from(c.leading_zeros()) < s {
        None
    } else {
        Some(c << s)
    }
}

impl ScaledCount {
    /// The zero count.
    pub const ZERO: ScaledCount = ScaledCount { coeff: 0, exp2: 0 };

    /// A normalized count with value `coeff · 2^exp2`.
    pub fn new(coeff: u128, exp2: u64) -> ScaledCount {
        let mut out = ScaledCount { coeff, exp2 };
        out.normalize();
        out
    }

    /// A plain (unscaled) count.
    pub fn from_u128(count: u128) -> ScaledCount {
        ScaledCount::new(count, 0)
    }

    fn normalize(&mut self) {
        if self.coeff == 0 {
            self.exp2 = 0;
            return;
        }
        let tz = u64::from(self.coeff.trailing_zeros());
        self.coeff >>= tz;
        self.exp2 += tz;
    }

    /// True for the zero count.
    pub fn is_zero(&self) -> bool {
        self.coeff == 0
    }

    /// Adds `coeff · 2^exp2`, failing with [`CountError::Overflow`] when
    /// the aligned coefficients no longer fit `u128`.
    pub fn accumulate(&mut self, coeff: u128, exp2: u64) -> Result<(), CountError> {
        if coeff == 0 {
            return Ok(());
        }
        if self.coeff == 0 {
            *self = ScaledCount::new(coeff, exp2);
            return Ok(());
        }
        if exp2 >= self.exp2 {
            let shifted = shl_checked(coeff, exp2 - self.exp2).ok_or(CountError::Overflow)?;
            self.coeff = self
                .coeff
                .checked_add(shifted)
                .ok_or(CountError::Overflow)?;
        } else {
            let shifted = shl_checked(self.coeff, self.exp2 - exp2).ok_or(CountError::Overflow)?;
            self.coeff = shifted.checked_add(coeff).ok_or(CountError::Overflow)?;
            self.exp2 = exp2;
        }
        self.normalize();
        Ok(())
    }

    /// Adds another scaled count.
    pub fn add(&mut self, other: ScaledCount) -> Result<(), CountError> {
        self.accumulate(other.coeff, other.exp2)
    }

    /// The exact value, when it fits `u128`.
    pub fn exact(&self) -> Option<u128> {
        shl_checked(self.coeff, self.exp2)
    }

    /// The ratio `num / den` as a float, `None` when `den` is zero. When
    /// both counts fit `u128` the division is performed on the exact
    /// values, so the result is bit-identical with a plain `u128` count.
    pub fn ratio(num: &ScaledCount, den: &ScaledCount) -> Option<f64> {
        if den.is_zero() {
            return None;
        }
        if num.is_zero() {
            return Some(0.0);
        }
        if let (Some(a), Some(b)) = (num.exact(), den.exact()) {
            return Some(a as f64 / b as f64);
        }
        let diff = i128::from(num.exp2) - i128::from(den.exp2);
        let p = diff.clamp(-(1 << 20), 1 << 20) as i32;
        Some((num.coeff as f64 / den.coeff as f64) * 2f64.powi(p))
    }
}

/// A ground boolean constraint, lowered onto representative data: unary
/// constant atoms read a block's cell, non-unary atoms read a named bit,
/// constant equalities read the coincidence partition.
#[derive(Clone, Debug)]
enum Ground {
    Bool(bool),
    /// `P(c)` for tracked unary `P`: bit `pred` of the cell of `c`'s block.
    Unary {
        pred: usize,
        konst: usize,
    },
    /// A non-unary constant atom: named bit `atom` (index into
    /// [`SymmetrySpec::atoms`], resolved per partition).
    Wide {
        atom: usize,
    },
    /// `c = d`: the constants share a block.
    ConstEq(usize, usize),
    Not(Box<Ground>),
    And(Vec<Ground>),
    Or(Vec<Ground>),
    Implies(Box<Ground>, Box<Ground>),
    Iff(Box<Ground>, Box<Ground>),
}

/// A proportion expression over the atom cells: a `Prop` leaf is the set
/// of cells (bitmask) satisfying its body/condition, so its value in a
/// representative is a pure function of the cell sizes.
#[derive(Clone, Debug)]
enum PropNode {
    Rat(Rat),
    Prop { body: u64, cond: Option<u64> },
    Arith(Arith, Box<PropNode>, Box<PropNode>),
}

/// One statistical conjunct `lhs op rhs`.
#[derive(Clone, Debug)]
struct Stat {
    lhs: PropNode,
    op: CmpOp,
    rhs: PropNode,
}

/// A formula lowered for symmetry-reduced counting: the detected group
/// structure plus the constraints rewritten over representatives.
#[derive(Clone, Debug)]
pub struct SymmetrySpec {
    /// Mentioned unary predicate indices, sorted; bit `i` of a cell is
    /// the truth of `tracked[i]`.
    tracked: Vec<usize>,
    /// Unary predicates the formula never mentions: `2^N` free bits each.
    free_unary: u64,
    /// Arities of every non-unary predicate (free bits `N^arity` each,
    /// minus the named bits the formula pins).
    wide_arities: Vec<u32>,
    /// Number of constants.
    consts: usize,
    /// Distinct mentioned non-unary constant atoms `(pred, const args)`.
    atoms: Vec<(usize, Vec<usize>)>,
    /// Ground conjuncts.
    ground: Vec<Ground>,
    /// Statistical conjuncts.
    stats: Vec<Stat>,
    /// The size-independent tables, built by the first count whose
    /// budget holds them ([`SymmetrySpec::tables`]).
    tables: OnceLock<Tables>,
}

/// One coincidence partition of the constants with its derived data,
/// none of which depends on the domain size.
#[derive(Clone, Debug)]
struct Partition {
    /// Block of each constant (restricted-growth string).
    block_of: Vec<usize>,
    /// Number of blocks.
    blocks: usize,
    /// Position among the partitions with as many blocks, in
    /// restricted-growth order.
    rank: usize,
    /// Named-bit index of each mentioned atom under this partition
    /// (atoms colliding after block substitution share a bit).
    atom_bit: Vec<usize>,
    /// Number of distinct named bits.
    named_bits: usize,
}

/// Everything a count reads that does not depend on the domain size:
/// the coincidence partitions and, per block → cell assignment, its σ
/// count and cell occupancy. Built once per spec and read at every `N`.
#[derive(Clone, Debug)]
struct Tables {
    /// Every coincidence partition, in restricted-growth order.
    parts: Vec<Partition>,
    /// `blocks[b]` holds the rows of the partitions with `b` blocks,
    /// built by the first count at `N ≥ b` whose budget holds them.
    blocks: Vec<OnceLock<BlockRows>>,
}

/// The rows of the partitions with one block count: every block → cell
/// assignment in odometer order, with its occupancy class and, per
/// partition, its σ count.
#[derive(Clone, Debug)]
struct BlockRows {
    /// Each assignment's index into the occupancy vectors. It depends
    /// on the assignment alone, so all the partitions share it.
    class: Vec<u32>,
    /// `sat[rank · class.len()..][..class.len()]`: the satisfying
    /// named-bit assignments σ (at most `2^MAX_NAMED_ATOMS`) of each
    /// assignment of the partition of that rank.
    sat: Vec<u32>,
    /// The distinct cell-occupancy vectors, `cells` entries each, in the
    /// order the assignments first meet them.
    occs: Vec<u64>,
}

impl BlockRows {
    fn sat(&self, rank: usize) -> &[u32] {
        &self.sat[rank * self.class.len()..][..self.class.len()]
    }

    fn occ(&self, class: u32, cells: usize) -> &[u64] {
        &self.occs[class as usize * cells..][..cells]
    }
}

/// What every chunk of one count at domain size `n` shares.
struct Plan<'a> {
    parts: &'a [Partition],
    /// Per block count, its rows and the index of its first occupancy
    /// class in a chunk's memo, or `None` where they would exceed the
    /// budget (or the spec's tables would): those partitions' chunks
    /// sweep σ per assignment.
    rows: [Option<(&'a BlockRows, usize)>; MAX_CONSTANTS + 1],
    /// Occupancy classes over every block count in `rows`.
    classes: usize,
    /// Indices of the partitions with at most `n` blocks, each with its
    /// free predicate bits `n·free_unary + Σ n^arity − named_bits`.
    live: Vec<(usize, u64)>,
    n: usize,
    /// Each statistical conjunct's τ.
    taus: Vec<Rat>,
    /// Representatives one chunk may visit.
    budget: u64,
}

/// One chunk's running totals: the representatives whose first atom
/// cell has exactly `c0` elements.
struct Chunk<'a> {
    spec: &'a SymmetrySpec,
    plan: &'a Plan<'a>,
    c0: usize,
    sum: ScaledCount,
    reps: u64,
    /// Per occupancy class met so far: its profile sum and the profile
    /// leaves that sum visited.
    memo: Vec<Option<(u128, u64)>>,
    counts: [u64; MAX_CELLS],
}

/// A successful symmetry-reduced count.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SymmetryOutcome {
    /// The exact model count.
    pub count: ScaledCount,
    /// Orbit representatives visited (the budget unit, mirroring
    /// [`crate::count::CountOutcome::visited`]).
    pub reps: u64,
}

impl SymmetrySpec {
    /// Lowers `formula` for orbit counting, or `None` when it falls
    /// outside the supported fragment (the caller then uses plain
    /// branch-and-count). Conjuncts of a conjunction are classified
    /// independently, so a spec for `KB ∧ q` exists whenever specs for
    /// the KB and the query both do.
    pub fn detect(vocab: &Vocabulary, formula: &Formula) -> Option<SymmetrySpec> {
        if vocab.func_count() > 0 || vocab.const_count() > MAX_CONSTANTS {
            return None;
        }
        let mut unary_set: BTreeSet<usize> = BTreeSet::new();
        let mut atoms: Vec<(usize, Vec<usize>)> = Vec::new();
        enum Conjunct<'a> {
            Ground(&'a Formula),
            Stat(&'a PropExpr, CmpOp, &'a PropExpr),
        }
        let mut conjuncts: Vec<Conjunct> = Vec::new();
        for c in formula.conjuncts() {
            if let Formula::Cmp(l, op, r) = c {
                if scan_prop(vocab, l, &mut unary_set) && scan_prop(vocab, r, &mut unary_set) {
                    conjuncts.push(Conjunct::Stat(l, *op, r));
                    continue;
                }
                return None;
            }
            if scan_ground(vocab, c, &mut unary_set, &mut atoms) {
                conjuncts.push(Conjunct::Ground(c));
            } else {
                return None;
            }
        }
        if unary_set.len() > MAX_TRACKED_UNARY || atoms.len() > MAX_NAMED_ATOMS {
            return None;
        }
        let tracked: Vec<usize> = unary_set.into_iter().collect();
        let mut free_unary = 0u64;
        let mut wide_arities = Vec::new();
        for p in vocab.preds() {
            let arity = vocab.pred_arity(p);
            if arity == 1 {
                if !tracked.contains(&p.index()) {
                    free_unary += 1;
                }
            } else {
                wide_arities.push(arity as u32);
            }
        }
        let mut ground = Vec::new();
        let mut stats = Vec::new();
        for c in conjuncts {
            match c {
                Conjunct::Ground(f) => ground.push(build_ground(f, &tracked, &atoms)),
                Conjunct::Stat(l, op, r) => stats.push(Stat {
                    lhs: build_prop(l, &tracked),
                    op,
                    rhs: build_prop(r, &tracked),
                }),
            }
        }
        Some(SymmetrySpec {
            tracked,
            free_unary,
            wide_arities,
            consts: vocab.const_count(),
            atoms,
            ground,
            stats,
            tables: OnceLock::new(),
        })
    }

    /// Number of atom cells (`2^k` over the tracked unary predicates).
    pub fn cells(&self) -> usize {
        1 << self.tracked.len()
    }

    /// Counts the models of the lowered formula over `W_n(Φ)` by
    /// weighted orbit-representative enumeration.
    ///
    /// What does not depend on `n` is done once per spec: the first
    /// count whose budget holds the spec's tables builds them
    /// ([`SymmetrySpec::tables`]), each block count's rows on the first
    /// count that reaches it, and every later count, at any `n`, reads
    /// them. What does depend on `n` is decided per call: which
    /// partitions fit `n` elements, their free-bit exponents, the
    /// `n + 1` chunks and each chunk's budget share.
    ///
    /// Deterministic at any [`CountOptions::threads`] value: the count,
    /// the [`SymmetryOutcome::reps`] total and the failure mode are
    /// identical across thread counts for fixed `(spec, n, budget)`, and
    /// identical whether or not the tables were built.
    pub fn count(
        &self,
        n: usize,
        tol: &Tolerances,
        opts: &CountOptions,
    ) -> Result<SymmetryOutcome, CountError> {
        assert!(n >= 1, "domain size must be positive");
        let tables = self.tables(opts.max_visited);
        let (parts, tables) = match &tables {
            Ok(tables) => (&tables.parts[..], Some(*tables)),
            Err(parts) => (&parts[..], None),
        };
        let plan = self.plan(parts, tables, n, tol, opts.max_visited)?;
        merge_chunks(n, opts.threads, |c0| self.run_chunk(&plan, c0))
    }

    /// The spec's size-independent tables, made by the first call whose
    /// `budget` holds their `Σ cells^blocks` rows; their rows are built
    /// later, per block count ([`SymmetrySpec::block_rows`]). Every
    /// chunk visits at least one representative per row of each
    /// partition it counts, so a larger table belongs to a count that
    /// cannot finish once `n` reaches the number of constants. Such a
    /// spec is handed its bare partitions (`Err`) and sweeps σ per
    /// assignment instead.
    fn tables(&self, budget: u64) -> Result<&Tables, Vec<Partition>> {
        if let Some(tables) = self.tables.get() {
            return Ok(tables);
        }
        let parts = self.partitions();
        let rows = (0..=self.consts)
            .map(|b| self.row_count(&parts, b))
            .fold(0, u64::saturating_add);
        if rows > row_bound(budget) {
            return Err(parts);
        }
        Ok(self.tables.get_or_init(|| Tables {
            blocks: (0..=self.consts).map(|_| OnceLock::new()).collect(),
            parts,
        }))
    }

    /// The rows of the partitions with `blocks` blocks, built by the
    /// first call whose `budget` holds them; `None` when there is no
    /// such partition or the budget does not hold the rows (that count
    /// cannot finish, and sweeps σ per assignment).
    fn block_rows<'a>(
        &self,
        tables: &'a Tables,
        blocks: usize,
        budget: u64,
    ) -> Option<&'a BlockRows> {
        let slot = &tables.blocks[blocks];
        if let Some(rows) = slot.get() {
            return Some(rows);
        }
        let rows = self.row_count(&tables.parts, blocks);
        if rows == 0 || rows > row_bound(budget) {
            return None;
        }
        Some(slot.get_or_init(|| self.build_block_rows(&tables.parts, blocks)))
    }

    /// The number of rows of the partitions with `blocks` blocks: one
    /// per block → cell assignment of each.
    fn row_count(&self, parts: &[Partition], blocks: usize) -> u64 {
        let partitions = parts.iter().filter(|p| p.blocks == blocks).count() as u64;
        partitions.saturating_mul((self.cells() as u64).saturating_pow(blocks as u32))
    }

    /// Numbers the distinct cell occupancies of the block → cell
    /// assignments of `blocks` blocks, and sweeps σ once for every
    /// assignment of every partition with that many blocks.
    fn build_block_rows(&self, parts: &[Partition], blocks: usize) -> BlockRows {
        let cells = self.cells();
        let mut class = Vec::new();
        let mut occs = Vec::new();
        let mut classes: HashMap<Vec<u64>, u32> = HashMap::new();
        let Ok(()) = for_each_assignment::<Infallible>(cells, blocks, |_, occ| {
            let fresh = classes.len() as u32;
            class.push(*classes.entry(occ.to_vec()).or_insert_with(|| {
                occs.extend_from_slice(occ);
                fresh
            }));
            Ok(())
        });
        let mut sat = Vec::new();
        for part in parts.iter().filter(|p| p.blocks == blocks) {
            let Ok(()) = for_each_assignment::<Infallible>(cells, blocks, |assign, _| {
                sat.push(
                    u32::try_from(self.sigma_sweep(part, assign))
                        .expect("σ ranges over at most 2^MAX_NAMED_ATOMS values"),
                );
                Ok(())
            });
        }
        BlockRows { class, sat, occs }
    }

    /// The per-`n` half of a count: the partitions with at most `n`
    /// blocks and their free-bit exponents, the rows of their block
    /// counts (built here on first need), each conjunct's τ, and one
    /// chunk's share of `max_visited` over the `n + 1` chunks.
    fn plan<'a>(
        &self,
        parts: &'a [Partition],
        tables: Option<&'a Tables>,
        n: usize,
        tol: &Tolerances,
        max_visited: u64,
    ) -> Result<Plan<'a>, CountError> {
        let mut wide_bits = 0u64;
        for &arity in &self.wide_arities {
            let bits = (n as u64).checked_pow(arity).ok_or(CountError::Overflow)?;
            wide_bits = wide_bits.checked_add(bits).ok_or(CountError::Overflow)?;
        }
        let base = (self.free_unary)
            .checked_mul(n as u64)
            .and_then(|u| u.checked_add(wide_bits))
            .ok_or(CountError::Overflow)?;
        let mut rows = [None; MAX_CONSTANTS + 1];
        let mut classes = 0;
        for (blocks, slot) in rows.iter_mut().enumerate().take(n.min(self.consts) + 1) {
            if let Some(block) = tables.and_then(|t| self.block_rows(t, blocks, max_visited)) {
                *slot = Some((block, classes));
                classes += block.occs.len() / self.cells();
            }
        }
        let mut live = Vec::with_capacity(parts.len());
        for (i, part) in parts.iter().enumerate() {
            // More blocks than elements cannot be realized (the falling
            // factorial would vanish for every profile).
            if part.blocks <= n {
                let exp2 = base
                    .checked_sub(part.named_bits as u64)
                    .ok_or(CountError::Overflow)?;
                live.push((i, exp2));
            }
        }
        Ok(Plan {
            parts,
            rows,
            classes,
            live,
            n,
            taus: self.stats.iter().map(|s| tolerance(s.op, tol)).collect(),
            budget: (max_visited / (n as u64 + 1)).max(1),
        })
    }

    /// The coincidence partitions in restricted-growth order with their
    /// per-partition named-bit tables.
    fn partitions(&self) -> Vec<Partition> {
        let mut out = Vec::new();
        let mut ranks = vec![0; self.consts + 1];
        let mut all = SetPartitions::new(self.consts);
        while let Some(block_of) = all.next() {
            let mut bit_tuples: Vec<(usize, Vec<usize>)> = Vec::new();
            let mut atom_bit = Vec::with_capacity(self.atoms.len());
            for (pred, args) in &self.atoms {
                let tuple: Vec<usize> = args.iter().map(|&c| block_of[c]).collect();
                let key = (*pred, tuple);
                let bit = match bit_tuples.iter().position(|k| *k == key) {
                    Some(i) => i,
                    None => {
                        bit_tuples.push(key);
                        bit_tuples.len() - 1
                    }
                };
                atom_bit.push(bit);
            }
            let blocks = SetPartitions::block_count(block_of);
            out.push(Partition {
                block_of: block_of.to_vec(),
                blocks,
                rank: ranks[blocks],
                atom_bit,
                named_bits: bit_tuples.len(),
            });
            ranks[blocks] += 1;
        }
        out
    }

    /// Counts the representatives whose first atom cell has exactly `c0`
    /// elements — one deterministic chunk of the full enumeration. With
    /// tables it walks their rows and runs one profile sum per occupancy
    /// class; without, it sweeps σ and sums profiles per assignment.
    fn run_chunk(&self, plan: &Plan, c0: usize) -> Result<(ScaledCount, u64), CountError> {
        let cells = self.cells();
        let mut chunk = Chunk {
            spec: self,
            plan,
            c0,
            sum: ScaledCount::ZERO,
            reps: 0,
            memo: vec![None; plan.classes],
            counts: [0; MAX_CELLS],
        };
        for &(i, exp2) in &plan.live {
            let part = &plan.parts[i];
            match plan.rows.get(part.blocks).copied().flatten() {
                Some((rows, first)) => {
                    for (&class, &sat) in rows.class.iter().zip(rows.sat(part.rank)) {
                        let occ = rows.occ(class, cells);
                        let memo = first + class as usize;
                        chunk.visit(part, exp2, occ, Some(memo), || u128::from(sat))?;
                    }
                }
                None => for_each_assignment(cells, part.blocks, |assign, occ| {
                    chunk.visit(part, exp2, occ, None, || self.sigma_sweep(part, assign))
                })?,
            }
        }
        Ok((chunk.sum, chunk.reps))
    }

    /// The odometer chunk that [`SymmetrySpec::run_chunk`] replaces: σ
    /// swept and profiles summed for every assignment. The test oracle.
    #[cfg(test)]
    fn reference_chunk(&self, plan: &Plan, c0: usize) -> Result<(ScaledCount, u64), CountError> {
        let (n, taus, budget) = (plan.n, &plan.taus[..], plan.budget);
        let cells = self.cells();
        let mut sum = ScaledCount::ZERO;
        let mut reps = 0u64;
        let mut occ_buf = [0u64; MAX_CELLS];
        let mut counts_buf = [0u64; MAX_CELLS];
        let (occ, counts) = (&mut occ_buf[..cells], &mut counts_buf[..cells]);
        for &(i, exp2) in &plan.live {
            let part = &plan.parts[i];
            let b = part.blocks;
            let mut assign_buf = [0usize; MAX_CONSTANTS];
            let assign = &mut assign_buf[..b];
            loop {
                reps += 1;
                if reps > budget {
                    return Err(CountError::BudgetExhausted);
                }
                occ.fill(0);
                for &a in assign.iter() {
                    occ[a] += 1;
                }
                if occ[0] <= c0 as u64 {
                    reps = reps.saturating_add(1u64 << part.named_bits);
                    if reps > budget {
                        return Err(CountError::BudgetExhausted);
                    }
                    let sat = self.sigma_sweep(part, assign);
                    if sat > 0 {
                        let profiles =
                            self.profile_sum(n, c0, occ, counts, taus, &mut reps, budget)?;
                        if profiles > 0 {
                            let coeff = sat.checked_mul(profiles).ok_or(CountError::Overflow)?;
                            sum.accumulate(coeff, exp2)?;
                        }
                    }
                }
                // Advance the block → cell odometer.
                let mut i = b;
                loop {
                    if i == 0 {
                        break;
                    }
                    i -= 1;
                    assign[i] += 1;
                    if assign[i] < cells {
                        break;
                    }
                    assign[i] = 0;
                    if i == 0 {
                        i = usize::MAX; // signal done
                        break;
                    }
                }
                if b == 0 || i == usize::MAX {
                    break;
                }
            }
        }
        Ok((sum, reps))
    }

    /// [`SymmetrySpec::count`] over [`SymmetrySpec::reference_chunk`],
    /// with no tables read or built.
    #[cfg(test)]
    fn reference_count(
        &self,
        n: usize,
        tol: &Tolerances,
        opts: &CountOptions,
    ) -> Result<SymmetryOutcome, CountError> {
        let parts = self.partitions();
        let plan = self.plan(&parts, None, n, tol, opts.max_visited)?;
        merge_chunks(n, opts.threads, |c0| self.reference_chunk(&plan, c0))
    }

    /// The number of named-bit assignments σ that satisfy every ground
    /// conjunct under one block → cell assignment, counted 64 σ at a
    /// time: bit `i` of word `w` stands for `σ = 64·w + i`, and each
    /// conjunct is evaluated word-wise ([`ground_word`]).
    fn sigma_sweep(&self, part: &Partition, assign: &[usize]) -> u128 {
        let nb = part.named_bits;
        let (words, valid) = if nb >= SIGMA_WORD_LOG {
            (1usize << (nb - SIGMA_WORD_LOG), u64::MAX)
        } else {
            (1, (1u64 << (1 << nb)) - 1)
        };
        let mut sat = 0u128;
        for w in 0..words {
            let mut word = valid;
            for g in &self.ground {
                word &= ground_word(g, part, assign, w);
                if word == 0 {
                    break;
                }
            }
            sat += u128::from(word.count_ones());
        }
        sat
    }

    /// Sums `multinomial(n; c⃗) · Π (c_i)_(occ_i)` over the profiles with
    /// `c_0 = c0` that satisfy every statistical conjunct.
    #[allow(clippy::too_many_arguments)]
    fn profile_sum(
        &self,
        n: usize,
        c0: usize,
        occ: &[u64],
        counts: &mut [u64],
        taus: &[Rat],
        reps: &mut u64,
        budget: u64,
    ) -> Result<u128, CountError> {
        let c0 = c0 as u64;
        let n = n as u64;
        if c0 > n || occ[0] > c0 {
            return Ok(0);
        }
        // With a single cell the whole domain is that cell: only the
        // `c0 = n` chunk carries profiles.
        if occ.len() == 1 && c0 != n {
            return Ok(0);
        }
        counts[0] = c0;
        let w0 = binomial(n, c0)
            .and_then(|w| w.checked_mul(falling(c0, occ[0])))
            .ok_or(CountError::Overflow)?;
        if w0 == 0 {
            return Ok(0);
        }
        let mut acc = 0u128;
        self.profile_rec(n, occ, counts, 1, n - c0, w0, taus, reps, budget, &mut acc)?;
        Ok(acc)
    }

    #[allow(clippy::too_many_arguments)]
    fn profile_rec(
        &self,
        n: u64,
        occ: &[u64],
        counts: &mut [u64],
        idx: usize,
        remaining: u64,
        weight: u128,
        taus: &[Rat],
        reps: &mut u64,
        budget: u64,
        acc: &mut u128,
    ) -> Result<(), CountError> {
        let cells = occ.len();
        if idx == cells {
            debug_assert_eq!(remaining, 0);
            *reps += 1;
            if *reps > budget {
                return Err(CountError::BudgetExhausted);
            }
            if weight > 0 && self.stats_hold(counts, n, taus) {
                *acc = acc.checked_add(weight).ok_or(CountError::Overflow)?;
            }
            return Ok(());
        }
        if idx == cells - 1 {
            // The last cell takes whatever remains.
            if remaining < occ[idx] {
                return Ok(());
            }
            counts[idx] = remaining;
            let w = weight
                .checked_mul(falling(remaining, occ[idx]))
                .ok_or(CountError::Overflow)?;
            return self.profile_rec(n, occ, counts, idx + 1, 0, w, taus, reps, budget, acc);
        }
        // Sizes below the block occupancy have weight zero: skip them.
        for c in occ[idx]..=remaining {
            counts[idx] = c;
            let w = binomial(remaining, c)
                .and_then(|b| weight.checked_mul(b))
                .and_then(|w| w.checked_mul(falling(c, occ[idx])))
                .ok_or(CountError::Overflow)?;
            self.profile_rec(
                n,
                occ,
                counts,
                idx + 1,
                remaining - c,
                w,
                taus,
                reps,
                budget,
                acc,
            )?;
        }
        Ok(())
    }

    /// Evaluates every statistical conjunct on a profile, with the
    /// measure-zero convention (an undefined conditional proportion makes
    /// its comparison vacuously true), exactly as `count`/`eval` do.
    /// Proportions stay unreduced cell-count fractions and each
    /// comparison is cross-multiplied under its conjunct's τ (`taus`,
    /// resolved once per count), so no profile pays for a gcd.
    fn stats_hold(&self, counts: &[u64], n: u64, taus: &[Rat]) -> bool {
        for (stat, &tau) in self.stats.iter().zip(taus) {
            let l = eval_prop_node(&stat.lhs, counts, n);
            let r = eval_prop_node(&stat.rhs, counts, n);
            let ok = match (l, r) {
                (Some(a), Some(b)) => compare(a, stat.op, tau, b),
                _ => true,
            };
            if !ok {
                return false;
            }
        }
        true
    }
}

impl Chunk<'_> {
    /// Visits one block → cell assignment of `part` with occupancy `occ`:
    /// the representative itself, then, when its first cell fits `c0`,
    /// its named bits and, when `sat` σ satisfy the ground conjuncts,
    /// the profile sum of its occupancy. A tabled assignment's `class`
    /// runs that sum once per chunk; a later assignment of the same class
    /// adds the leaves it visited to `reps` in one step, so the budget
    /// trips exactly where the per-leaf checks would.
    fn visit(
        &mut self,
        part: &Partition,
        exp2: u64,
        occ: &[u64],
        class: Option<usize>,
        sat: impl FnOnce() -> u128,
    ) -> Result<(), CountError> {
        let budget = self.plan.budget;
        self.reps += 1;
        if self.reps > budget {
            return Err(CountError::BudgetExhausted);
        }
        if occ[0] > self.c0 as u64 {
            return Ok(());
        }
        self.reps = self.reps.saturating_add(1u64 << part.named_bits);
        if self.reps > budget {
            return Err(CountError::BudgetExhausted);
        }
        let sat = sat();
        if sat == 0 {
            return Ok(());
        }
        let profiles = match class.and_then(|k| self.memo[k]) {
            Some((profiles, leaves)) => {
                self.reps = self.reps.saturating_add(leaves);
                if self.reps > budget {
                    return Err(CountError::BudgetExhausted);
                }
                profiles
            }
            None => {
                let before = self.reps;
                let profiles = self.spec.profile_sum(
                    self.plan.n,
                    self.c0,
                    occ,
                    &mut self.counts[..occ.len()],
                    &self.plan.taus,
                    &mut self.reps,
                    budget,
                )?;
                if let Some(k) = class {
                    self.memo[k] = Some((profiles, self.reps - before));
                }
                profiles
            }
        };
        if profiles > 0 {
            let coeff = sat.checked_mul(profiles).ok_or(CountError::Overflow)?;
            self.sum.accumulate(coeff, exp2)?;
        }
        Ok(())
    }
}

/// The most rows a count under `budget` builds tables for: it visits at
/// least one representative per row, and classes are numbered in
/// `u32`s.
fn row_bound(budget: u64) -> u64 {
    budget.min(u64::from(u32::MAX))
}

/// Runs chunks `0..=n` on the shared pool and merges them in chunk
/// order; the lowest-index chunk failure is the outcome.
fn merge_chunks(
    n: usize,
    threads: usize,
    run: impl Fn(usize) -> Result<(ScaledCount, u64), CountError> + Sync,
) -> Result<SymmetryOutcome, CountError> {
    let results = par::try_map(n + 1, threads, run)?;
    let mut count = ScaledCount::ZERO;
    let mut reps = 0u64;
    for (sum, chunk_reps) in results {
        count.add(sum)?;
        reps += chunk_reps;
    }
    Ok(SymmetryOutcome { count, reps })
}

/// Calls `f` on every block → cell assignment of `blocks` blocks over
/// `cells` cells in odometer order (the last block's cell turns
/// fastest), with the assignment's cell occupancy. The one enumerator of
/// assignments: tables are filled from it, and a spec without tables
/// counts from it directly.
fn for_each_assignment<E>(
    cells: usize,
    blocks: usize,
    mut f: impl FnMut(&[usize], &[u64]) -> Result<(), E>,
) -> Result<(), E> {
    let mut assign_buf = [0usize; MAX_CONSTANTS];
    let mut occ_buf = [0u64; MAX_CELLS];
    let assign = &mut assign_buf[..blocks];
    let occ = &mut occ_buf[..cells];
    loop {
        occ.fill(0);
        for &a in assign.iter() {
            occ[a] += 1;
        }
        f(assign, occ)?;
        // Turn the last block not yet in the last cell; the blocks after
        // it wrap to cell 0.
        let Some(i) = assign.iter().rposition(|&a| a + 1 < cells) else {
            return Ok(());
        };
        assign[i] += 1;
        assign[i + 1..].fill(0);
    }
}

/// `log2` of the σ values one truth-table word holds.
const SIGMA_WORD_LOG: usize = 6;

/// `SIGMA_PATTERNS[j]` has bit `i` set exactly when bit `j` of `i` is:
/// the truth table of named bit `j < 6` within any one word.
const SIGMA_PATTERNS: [u64; SIGMA_WORD_LOG] = [
    0xAAAA_AAAA_AAAA_AAAA,
    0xCCCC_CCCC_CCCC_CCCC,
    0xF0F0_F0F0_F0F0_F0F0,
    0xFF00_FF00_FF00_FF00,
    0xFFFF_0000_FFFF_0000,
    0xFFFF_FFFF_0000_0000,
];

/// A truth value as a whole word.
fn splat(b: bool) -> u64 {
    if b {
        u64::MAX
    } else {
        0
    }
}

/// The truth table of `g` over σ values `64·w .. 64·w + 63` under one
/// block → cell assignment. Named bits below 6 are fixed patterns within
/// a word; higher ones are constant across it, set by the word index.
/// Bits past the last valid σ are garbage; the caller masks them.
fn ground_word(g: &Ground, part: &Partition, assign: &[usize], w: usize) -> u64 {
    match g {
        Ground::Bool(b) => splat(*b),
        Ground::Unary { pred, konst } => splat((assign[part.block_of[*konst]] >> pred) & 1 == 1),
        Ground::Wide { atom } => match part.atom_bit[*atom] {
            j if j < SIGMA_WORD_LOG => SIGMA_PATTERNS[j],
            j => splat((w >> (j - SIGMA_WORD_LOG)) & 1 == 1),
        },
        Ground::ConstEq(a, b) => splat(part.block_of[*a] == part.block_of[*b]),
        Ground::Not(g) => !ground_word(g, part, assign, w),
        Ground::And(gs) => {
            let mut out = u64::MAX;
            for g in gs {
                out &= ground_word(g, part, assign, w);
                if out == 0 {
                    break;
                }
            }
            out
        }
        Ground::Or(gs) => {
            let mut out = 0;
            for g in gs {
                out |= ground_word(g, part, assign, w);
                if out == u64::MAX {
                    break;
                }
            }
            out
        }
        Ground::Implies(a, b) => !ground_word(a, part, assign, w) | ground_word(b, part, assign, w),
        Ground::Iff(a, b) => !(ground_word(a, part, assign, w) ^ ground_word(b, part, assign, w)),
    }
}

/// The scalar σ sweep the word-wise one replaces: the test oracle.
#[cfg(test)]
fn eval_ground(g: &Ground, part: &Partition, assign: &[usize], sigma: u64) -> bool {
    match g {
        Ground::Bool(b) => *b,
        Ground::Unary { pred, konst } => (assign[part.block_of[*konst]] >> pred) & 1 == 1,
        Ground::Wide { atom } => (sigma >> part.atom_bit[*atom]) & 1 == 1,
        Ground::ConstEq(a, b) => part.block_of[*a] == part.block_of[*b],
        Ground::Not(g) => !eval_ground(g, part, assign, sigma),
        Ground::And(gs) => gs.iter().all(|g| eval_ground(g, part, assign, sigma)),
        Ground::Or(gs) => gs.iter().any(|g| eval_ground(g, part, assign, sigma)),
        Ground::Implies(a, b) => {
            !eval_ground(a, part, assign, sigma) || eval_ground(b, part, assign, sigma)
        }
        Ground::Iff(a, b) => {
            eval_ground(a, part, assign, sigma) == eval_ground(b, part, assign, sigma)
        }
    }
}

/// The value of a proportion expression on a profile: `None` is the
/// undefined (measure-zero conditional) case, which `map2`-propagates
/// through arithmetic.
fn eval_prop_node(node: &PropNode, counts: &[u64], n: u64) -> Frac {
    match node {
        PropNode::Rat(r) => Some((r.num(), r.den())),
        PropNode::Prop { body, cond } => match cond {
            None => Some((masked_sum(counts, *body) as i128, n as i128)),
            Some(cm) => match masked_sum(counts, *cm) {
                0 => None,
                cond_count => Some((masked_sum(counts, body & cm) as i128, cond_count as i128)),
            },
        },
        PropNode::Arith(op, a, b) => Some(arith(
            eval_prop_node(a, counts, n)?,
            *op,
            eval_prop_node(b, counts, n)?,
        )),
    }
}

fn masked_sum(counts: &[u64], mask: u64) -> u64 {
    let mut sum = 0u64;
    for (i, &c) in counts.iter().enumerate() {
        if (mask >> i) & 1 == 1 {
            sum += c;
        }
    }
    sum
}

/// Rows of [`PASCAL`]: the largest domain size the exact stage scans
/// (`rw_core::solvers::MAX_SCAN_N`). `C(64, 32) < 2^64`, so every entry
/// fits a `u64`.
const PASCAL_ROWS: usize = 64;

/// `PASCAL[n][k] = C(n, k)` for `n ≤ PASCAL_ROWS` (zero for `k > n`).
static PASCAL: [[u64; PASCAL_ROWS + 1]; PASCAL_ROWS + 1] = {
    let mut t = [[0u64; PASCAL_ROWS + 1]; PASCAL_ROWS + 1];
    let mut n = 0;
    while n <= PASCAL_ROWS {
        t[n][0] = 1;
        let mut k = 1;
        while k <= n {
            t[n][k] = t[n - 1][k - 1] + t[n - 1][k];
            k += 1;
        }
        n += 1;
    }
    t
};

/// `C(n, k)` exactly, `None` on overflow: read from [`PASCAL`] up to its
/// last row, above it by [`binomial_checked`].
fn binomial(n: u64, k: u64) -> Option<u128> {
    if k > n {
        return Some(0);
    }
    match PASCAL.get(n as usize) {
        Some(row) => Some(u128::from(row[k as usize])),
        None => binomial_checked(n, k),
    }
}

/// The falling factorial `(c)_k = c·(c−1)···(c−k+1)`; zero when `k > c`.
/// With `c ≤ 254` and `k ≤ 8` this never overflows `u128`.
fn falling(c: u64, k: u64) -> u128 {
    let mut r: u128 = 1;
    for i in 0..k {
        if i >= c {
            return 0;
        }
        r *= u128::from(c - i);
    }
    r
}

fn scan_ground(
    vocab: &Vocabulary,
    f: &Formula,
    unary: &mut BTreeSet<usize>,
    atoms: &mut Vec<(usize, Vec<usize>)>,
) -> bool {
    match f {
        Formula::True | Formula::False => true,
        Formula::Pred(p, args) => {
            let mut consts = Vec::with_capacity(args.len());
            for a in args {
                match a {
                    Term::Const(c) => consts.push(c.index()),
                    _ => return false,
                }
            }
            if vocab.pred_arity(*p) == 1 {
                unary.insert(p.index());
            } else {
                let key = (p.index(), consts);
                if !atoms.contains(&key) {
                    atoms.push(key);
                }
            }
            true
        }
        Formula::TermEq(a, b) => matches!((a, b), (Term::Const(_), Term::Const(_))),
        Formula::Not(g) => scan_ground(vocab, g, unary, atoms),
        Formula::And(parts) | Formula::Or(parts) => {
            parts.iter().all(|g| scan_ground(vocab, g, unary, atoms))
        }
        Formula::Implies(a, b) | Formula::Iff(a, b) => {
            scan_ground(vocab, a, unary, atoms) && scan_ground(vocab, b, unary, atoms)
        }
        _ => false,
    }
}

fn scan_prop(vocab: &Vocabulary, e: &PropExpr, unary: &mut BTreeSet<usize>) -> bool {
    match e {
        PropExpr::Rat(_) => true,
        PropExpr::Prop { body, cond, vars } => {
            if vars.len() != 1 {
                return false;
            }
            let v = vars[0];
            scan_unary_body(vocab, body, v, unary)
                && cond
                    .as_deref()
                    .is_none_or(|c| scan_unary_body(vocab, c, v, unary))
        }
        PropExpr::Add(a, b) | PropExpr::Sub(a, b) | PropExpr::Mul(a, b) => {
            scan_prop(vocab, a, unary) && scan_prop(vocab, b, unary)
        }
    }
}

fn scan_unary_body(vocab: &Vocabulary, f: &Formula, v: VarId, unary: &mut BTreeSet<usize>) -> bool {
    match f {
        Formula::True | Formula::False => true,
        Formula::Pred(p, args) => match args.as_slice() {
            [Term::Var(w)] if *w == v && vocab.pred_arity(*p) == 1 => {
                unary.insert(p.index());
                true
            }
            _ => false,
        },
        Formula::Not(g) => scan_unary_body(vocab, g, v, unary),
        Formula::And(parts) | Formula::Or(parts) => {
            parts.iter().all(|g| scan_unary_body(vocab, g, v, unary))
        }
        Formula::Implies(a, b) | Formula::Iff(a, b) => {
            scan_unary_body(vocab, a, v, unary) && scan_unary_body(vocab, b, v, unary)
        }
        _ => false,
    }
}

fn build_ground(f: &Formula, tracked: &[usize], atoms: &[(usize, Vec<usize>)]) -> Ground {
    match f {
        Formula::True => Ground::Bool(true),
        Formula::False => Ground::Bool(false),
        Formula::Pred(p, args) => {
            let consts: Vec<usize> = args
                .iter()
                .map(|a| match a {
                    Term::Const(c) => c.index(),
                    _ => unreachable!("scan admitted a non-constant argument"),
                })
                .collect();
            match tracked.binary_search(&p.index()) {
                Ok(bit) if consts.len() == 1 => Ground::Unary {
                    pred: bit,
                    konst: consts[0],
                },
                _ => {
                    let atom = atoms
                        .iter()
                        .position(|k| k.0 == p.index() && k.1 == consts)
                        .expect("scan recorded every non-unary atom");
                    Ground::Wide { atom }
                }
            }
        }
        Formula::TermEq(a, b) => match (a, b) {
            (Term::Const(x), Term::Const(y)) => Ground::ConstEq(x.index(), y.index()),
            _ => unreachable!("scan admitted a non-constant equality"),
        },
        Formula::Not(g) => Ground::Not(Box::new(build_ground(g, tracked, atoms))),
        Formula::And(parts) | Formula::Or(parts) => {
            let gs = parts.iter().map(|g| build_ground(g, tracked, atoms));
            match f {
                Formula::And(..) => Ground::And(gs.collect()),
                _ => Ground::Or(gs.collect()),
            }
        }
        Formula::Implies(a, b) => Ground::Implies(
            Box::new(build_ground(a, tracked, atoms)),
            Box::new(build_ground(b, tracked, atoms)),
        ),
        Formula::Iff(a, b) => Ground::Iff(
            Box::new(build_ground(a, tracked, atoms)),
            Box::new(build_ground(b, tracked, atoms)),
        ),
        _ => unreachable!("scan admitted an unsupported ground conjunct"),
    }
}

fn build_prop(e: &PropExpr, tracked: &[usize]) -> PropNode {
    match e {
        PropExpr::Rat(r) => PropNode::Rat(*r),
        PropExpr::Prop { body, cond, .. } => PropNode::Prop {
            body: body_mask(body, tracked),
            cond: cond.as_deref().map(|c| body_mask(c, tracked)),
        },
        PropExpr::Add(a, b) => arith_node(Arith::Add, a, b, tracked),
        PropExpr::Sub(a, b) => arith_node(Arith::Sub, a, b, tracked),
        PropExpr::Mul(a, b) => arith_node(Arith::Mul, a, b, tracked),
    }
}

fn arith_node(op: Arith, a: &PropExpr, b: &PropExpr, tracked: &[usize]) -> PropNode {
    PropNode::Arith(
        op,
        Box::new(build_prop(a, tracked)),
        Box::new(build_prop(b, tracked)),
    )
}

/// The set of cells (bitmask) whose atom assignment satisfies `body`.
fn body_mask(body: &Formula, tracked: &[usize]) -> u64 {
    let cells = 1u64 << tracked.len();
    let mut mask = 0u64;
    for cell in 0..cells {
        if eval_cell(body, tracked, cell) {
            mask |= 1 << cell;
        }
    }
    mask
}

fn eval_cell(f: &Formula, tracked: &[usize], cell: u64) -> bool {
    match f {
        Formula::True => true,
        Formula::False => false,
        Formula::Pred(p, _) => {
            let bit = tracked
                .binary_search(&p.index())
                .expect("scan tracked every unary predicate in a proportion body");
            (cell >> bit) & 1 == 1
        }
        Formula::Not(g) => !eval_cell(g, tracked, cell),
        Formula::And(parts) => parts.iter().all(|g| eval_cell(g, tracked, cell)),
        Formula::Or(parts) => parts.iter().any(|g| eval_cell(g, tracked, cell)),
        Formula::Implies(a, b) => !eval_cell(a, tracked, cell) || eval_cell(b, tracked, cell),
        Formula::Iff(a, b) => eval_cell(a, tracked, cell) == eval_cell(b, tracked, cell),
        _ => unreachable!("scan admitted an unsupported proportion body"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::enumerate;
    use crate::eval::Evaluator;
    use proptest::prelude::*;
    use rw_logic::KnowledgeBase;

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

    #[test]
    fn scaled_counts_normalize_and_accumulate() {
        let mut a = ScaledCount::new(12, 0);
        assert_eq!((a.coeff, a.exp2), (3, 2));
        a.accumulate(1, 2).unwrap(); // 12 + 4 = 16
        assert_eq!(a.exact(), Some(16));
        a.accumulate(1, 0).unwrap(); // 17
        assert_eq!(a.exact(), Some(17));
        assert!(ScaledCount::ZERO.is_zero());
        assert_eq!(ScaledCount::ZERO.exact(), Some(0));
        // Far past u128: exact value unavailable, ratio still works.
        let big = ScaledCount::new(3, 400);
        assert_eq!(big.exact(), None);
        let half = ScaledCount::new(3, 399);
        assert_eq!(ScaledCount::ratio(&half, &big), Some(0.5));
        assert_eq!(ScaledCount::ratio(&big, &ScaledCount::ZERO), None);
        // Exact path divides the plain values.
        let num = ScaledCount::from_u128(196_608);
        let den = ScaledCount::from_u128(786_432);
        assert_eq!(
            ScaledCount::ratio(&num, &den),
            Some(196_608f64 / 786_432f64)
        );
    }

    #[test]
    fn orbit_counts_match_the_oracle_on_mixed_shapes() {
        for (kb_src, q_src, n_max) in [
            ("true", "P(C)", 5),
            ("P(C)", "P(C) or Q(C)", 5),
            ("P(C) & !P(C)", "P(C)", 4),
            ("||P(x)||_x ~=_1 0.5", "P(C)", 6),
            ("||P(x)||_x ~=_1 0.5; Likes(A, B)", "Likes(B, A)", 4),
            ("||Fly(x) | Bird(x)||_x ~=_1 1; Bird(C)", "Fly(C)", 5),
            ("Likes(A, B); A = B", "Likes(B, A)", 4),
            ("Likes(A, B) or Knows(B, A)", "!Likes(A, A)", 3),
            ("||P(x)||_x + ||Q(x)||_x <= 1; P(C)", "Q(C)", 5),
        ] {
            let mut kb = KnowledgeBase::parse(kb_src).unwrap();
            let q = kb.parse_query(q_src).unwrap();
            let kb_f = kb.as_formula();
            let both = Formula::and(kb_f.clone(), q);
            for f in [&kb_f, &both] {
                let spec = SymmetrySpec::detect(kb.vocab(), f)
                    .unwrap_or_else(|| panic!("`{kb_src}` should be in the symmetry fragment"));
                for n in 1..=n_max {
                    let out = spec.count(n, &tol(), &CountOptions::default()).unwrap();
                    assert_eq!(
                        out.count.exact().expect("small-N count fits u128"),
                        oracle_count(&kb, f, n),
                        "diverged on `{kb_src}` ⊢ `{q_src}` at N={n}"
                    );
                    assert!(out.reps > 0);
                }
            }
        }
    }

    #[test]
    fn detection_rejects_shapes_outside_the_fragment() {
        for src in [
            "forall x (P(x) => Q(x))",
            "exists x (P(x))",
            "||Likes(x, y)||_{x,y} ~=_1 0.25",
            "P(Next(C))",
            "||P(x) & Likes(x, C)||_x ~=_1 0.5",
            "!(||P(x)||_x ~=_1 0.5)",
            "|| ||Rises(x, y) | Day(y)||_y ~=_1 1 ||_x ~=_1 0.5",
        ] {
            let kb = match KnowledgeBase::parse(src) {
                Ok(kb) => kb,
                Err(_) => continue, // free variables may not even parse
            };
            let f = kb.as_formula();
            assert!(
                SymmetrySpec::detect(kb.vocab(), &f).is_none(),
                "`{src}` should be outside the symmetry fragment"
            );
        }
    }

    #[test]
    fn thread_counts_never_change_the_outcome() {
        for (kb_src, n) in [
            ("||P(x)||_x ~=_1 0.5; Q(C)", 12),
            ("||P(x)||_x ~=_1 0.5; Likes(A, B); !Likes(B, A)", 10),
            ("||Fly(x) | Bird(x)||_x ~=_1 1; Bird(C)", 14),
        ] {
            let kb = KnowledgeBase::parse(kb_src).unwrap();
            let f = kb.as_formula();
            let spec = SymmetrySpec::detect(kb.vocab(), &f).unwrap();
            let base = spec.count(n, &tol(), &CountOptions::default()).unwrap();
            for threads in [2usize, 4, 0] {
                let opts = CountOptions {
                    threads,
                    ..CountOptions::default()
                };
                assert_eq!(
                    spec.count(n, &tol(), &opts).unwrap(),
                    base,
                    "`{kb_src}` diverged at {threads} threads"
                );
            }
        }
    }

    #[test]
    fn budget_exhaustion_is_reported_and_thread_invariant() {
        let kb = KnowledgeBase::parse("||P(x)||_x ~=_1 0.5; ||Q(x)||_x ~=_1 0.5").unwrap();
        let f = kb.as_formula();
        let spec = SymmetrySpec::detect(kb.vocab(), &f).unwrap();
        for threads in [1usize, 2, 4] {
            let err = spec
                .count(
                    24,
                    &tol(),
                    &CountOptions {
                        max_visited: 40,
                        threads,
                    },
                )
                .unwrap_err();
            assert_eq!(err, CountError::BudgetExhausted);
        }
    }

    #[test]
    fn deep_domains_are_reachable_within_the_default_budget() {
        // Acceptance shapes: one unary KB and one unary+binary KB at
        // N ≥ 32 under the default visited budget.
        let unary = KnowledgeBase::parse("||P(x)||_x ~=_1 0.5; P(C)").unwrap();
        let mixed = KnowledgeBase::parse("||P(x)||_x ~=_1 0.5; Likes(A, B); P(A)").unwrap();
        for (kb, n) in [(&unary, 40usize), (&mixed, 40)] {
            let f = kb.as_formula();
            let spec = SymmetrySpec::detect(kb.vocab(), &f).unwrap();
            let out = spec.count(n, &tol(), &CountOptions::default()).unwrap();
            assert!(!out.count.is_zero(), "count vanished at N={n}");
            assert!(out.reps < crate::count::DEFAULT_MAX_VISITED);
        }
    }

    #[test]
    fn the_binomial_table_equals_the_running_product() {
        for n in 0..=PASCAL_ROWS as u64 {
            for k in 0..=n {
                assert_eq!(binomial(n, k), binomial_checked(n, k), "C({n}, {k})");
            }
            assert_eq!(binomial(n, n + 1), Some(0));
        }
        // Past the table the running product still decides, overflow
        // included.
        assert_eq!(binomial(65, 2), Some(2080));
        assert_eq!(binomial(200, 100), None);
    }

    #[test]
    fn the_word_wise_sigma_sweep_counts_what_the_scalar_one_does() {
        for (src, most_bits) in [
            ("Likes(A, B); !Likes(B, B)", 2),
            ("Likes(A, B) or Knows(B, A); A = B => P(A)", 2),
            // Nine named bits with distinct constants: eight words per
            // sweep, fewer as constants coincide.
            (
                "(Likes(A, B) or Likes(B, C)) & !Likes(C, A); \
                 Likes(A, A) <=> (P(B) or Likes(B, B)); Likes(C, C) => Likes(B, A); \
                 Likes(A, C) or !Likes(C, B) or B = C",
                9,
            ),
        ] {
            let kb = KnowledgeBase::parse(src).unwrap();
            let spec = SymmetrySpec::detect(kb.vocab(), &kb.as_formula()).unwrap();
            let cells = spec.cells();
            let mut widest = 0;
            for part in spec.partitions() {
                widest = widest.max(part.named_bits);
                // Every block → cell assignment, decoded from `code`.
                for code in 0..cells.pow(part.blocks as u32) {
                    let assign: Vec<usize> = (0..part.blocks)
                        .map(|i| code / cells.pow(i as u32) % cells)
                        .collect();
                    let scalar = (0u64..1 << part.named_bits)
                        .filter(|&sigma| {
                            spec.ground
                                .iter()
                                .all(|g| eval_ground(g, &part, &assign, sigma))
                        })
                        .count();
                    assert_eq!(
                        spec.sigma_sweep(&part, &assign),
                        scalar as u128,
                        "`{src}`, blocks {:?}, cells {assign:?}",
                        part.block_of
                    );
                }
            }
            assert_eq!(widest, most_bits, "`{src}`");
        }
    }

    #[test]
    fn ground_boolean_structure_is_honored() {
        // `P(C) or Q(C)` at N=3: 2^3·2^3 unary bit patterns, minus the
        // quarter where C's element has neither P nor Q.
        let kb = KnowledgeBase::parse("P(C) or Q(C)").unwrap();
        let f = kb.as_formula();
        let spec = SymmetrySpec::detect(kb.vocab(), &f).unwrap();
        for n in 1..=5 {
            let out = spec.count(n, &tol(), &CountOptions::default()).unwrap();
            assert_eq!(
                out.count.exact().unwrap(),
                oracle_count(&kb, &f, n),
                "N={n}"
            );
        }
    }

    /// One literal over the first `consts` of the constants `A`, `B`,
    /// `C`: a tracked unary atom, a binary atom or a constant equality.
    fn literal(consts: usize, (kind, a, b, negated): (usize, usize, usize, bool)) -> String {
        let c = |i: usize| ["A", "B", "C"][i % consts];
        let atom = match kind {
            0 => format!("P({})", c(a)),
            1 => format!("Q({})", c(a)),
            2 => format!("Likes({}, {})", c(a), c(b)),
            _ => format!("{} = {}", c(a), c(b)),
        };
        if negated {
            format!("!({atom})")
        } else {
            atom
        }
    }

    /// In-fragment formulas on at most three constants: one statistical
    /// conjunct over `P` and `Q` plus up to three ground clauses.
    fn in_fragment() -> impl Strategy<Value = String> {
        let clause =
            proptest::collection::vec((0usize..4, 0usize..3, 0usize..3, any::<bool>()), 1..3);
        let clauses = proptest::collection::vec(clause, 0..4);
        (1usize..4, 0usize..4, 1usize..10, clauses).prop_map(|(consts, stat, tenth, clauses)| {
            let mut conjuncts = vec![match stat {
                0 => format!("||P(x)||_x ~=_1 0.{tenth}"),
                1 => format!("||P(x) | Q(x)||_x ~=_1 0.{tenth}"),
                2 => "||P(x)||_x + ||Q(x)||_x <= 1".to_string(),
                _ => "true".to_string(),
            }];
            for clause in clauses {
                let literals: Vec<String> =
                    clause.into_iter().map(|l| literal(consts, l)).collect();
                conjuncts.push(literals.join(" or "));
            }
            conjuncts.join("; ")
        })
    }

    fn budget(max_visited: u64, threads: usize) -> CountOptions {
        CountOptions {
            max_visited,
            threads,
        }
    }

    /// The least budget at which the reference count at `n` succeeds
    /// (success is monotone in the budget), or `None` past `max`.
    fn exhaustion_point(spec: &SymmetrySpec, n: usize, max: u64) -> Option<u64> {
        let ok = |b: u64| spec.reference_count(n, &tol(), &budget(b, 1)).is_ok();
        if !ok(max) {
            return None;
        }
        let (mut failing, mut passing) = (0u64, max);
        while passing - failing > 1 {
            let mid = failing + (passing - failing) / 2;
            if ok(mid) {
                passing = mid;
            } else {
                failing = mid;
            }
        }
        Some(passing)
    }

    /// `count` against the odometer reference at `n`, on a spec that has
    /// not counted yet (it builds its tables, or not, under this budget)
    /// and on one whose tables the default budget already built.
    fn assert_matches_reference(src: &str, n: usize, max_visited: u64) {
        let kb = KnowledgeBase::parse(src).unwrap();
        let f = kb.as_formula();
        let warm = SymmetrySpec::detect(kb.vocab(), &f).expect("in the symmetry fragment");
        let _ = warm.count(1, &tol(), &CountOptions::default());
        for threads in [1usize, 2, 4] {
            let opts = budget(max_visited, threads);
            let cold = SymmetrySpec::detect(kb.vocab(), &f).unwrap();
            let expected = cold.reference_count(n, &tol(), &opts);
            assert!(
                cold.tables.get().is_none(),
                "the reference builds no tables"
            );
            for (label, spec) in [("cold", &cold), ("warm", &warm)] {
                assert_eq!(
                    spec.count(n, &tol(), &opts),
                    expected,
                    "{label} `{src}` at N={n}, budget {max_visited}, {threads} threads"
                );
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]

        #[test]
        fn table_counts_equal_the_odometer_reference(src in in_fragment()) {
            let kb = KnowledgeBase::parse(&src).unwrap();
            let spec = SymmetrySpec::detect(kb.vocab(), &kb.as_formula())
                .expect("generated formulas stay inside the symmetry fragment");
            for n in 1..=spec.consts + 2 {
                let max = crate::count::DEFAULT_MAX_VISITED;
                assert_matches_reference(&src, n, max);
                if let Some(point) = exhaustion_point(&spec, n, max) {
                    for b in [point - 1, point, point + 1] {
                        assert_matches_reference(&src, n, b.max(1));
                    }
                }
            }
        }
    }

    #[test]
    fn a_memo_hit_that_ends_a_chunk_trips_the_budget_where_its_leaves_would() {
        // One cell and three constants at N = 2: the last chunk's three
        // two-block partitions share the occupancy (2), so its last
        // representative is a memo hit whose one leaf crosses a budget
        // set just below the chunk's total.
        let src = "Likes(A, B) or Likes(B, C)";
        for n in 1..=4 {
            let kb = KnowledgeBase::parse(src).unwrap();
            let spec = SymmetrySpec::detect(kb.vocab(), &kb.as_formula()).unwrap();
            let point = exhaustion_point(&spec, n, crate::count::DEFAULT_MAX_VISITED).unwrap();
            for b in [point - 1, point, point + 1] {
                assert_matches_reference(src, n, b);
            }
        }
    }

    #[test]
    fn a_spec_over_the_table_bound_counts_as_the_reference() {
        // Eight constants over eight cells: more than `8^8 = 2^24` rows,
        // past the default budget, so every count sweeps σ per
        // assignment and no tables are built.
        let src = "||P(x) | Q(x)||_x ~=_1 0.5; R(A) or Likes(B, C); \
                   Likes(D, E) => P(F); !(G = H) or Q(G)";
        let kb = KnowledgeBase::parse(src).unwrap();
        let spec = SymmetrySpec::detect(kb.vocab(), &kb.as_formula()).unwrap();
        assert_eq!((spec.consts, spec.cells()), (8, 8));
        for n in 1..=2 {
            let max = crate::count::DEFAULT_MAX_VISITED;
            let out = spec.count(n, &tol(), &CountOptions::default());
            assert_eq!(
                out,
                spec.reference_count(n, &tol(), &CountOptions::default())
            );
            assert!(out.is_ok(), "N={n}: {out:?}");
            let point = exhaustion_point(&spec, n, max).unwrap();
            for b in [point - 1, point, point + 1] {
                for threads in [1usize, 2, 4] {
                    let opts = budget(b, threads);
                    assert_eq!(
                        spec.count(n, &tol(), &opts),
                        spec.reference_count(n, &tol(), &opts),
                        "N={n}, budget {b}, {threads} threads"
                    );
                }
            }
        }
        assert!(spec.tables.get().is_none());
    }

    #[test]
    fn a_first_count_builds_rows_only_for_the_block_counts_it_reaches() {
        // Eight constants over four cells: about 3.2M rows in all, but a
        // count at N reads only the partitions with at most N blocks.
        let src = "||P(x) | Q(x)||_x ~=_1 0.5; Likes(A, B) or Likes(C, D); \
                   P(E) or Q(F); !(G = H) or Q(G)";
        let kb = KnowledgeBase::parse(src).unwrap();
        let spec = SymmetrySpec::detect(kb.vocab(), &kb.as_formula()).unwrap();
        assert_eq!((spec.consts, spec.cells()), (8, 4));
        for n in [2, 3] {
            let opts = CountOptions::default();
            let out = spec.count(n, &tol(), &opts);
            assert_eq!(out, spec.reference_count(n, &tol(), &opts), "N={n}");
            let tables = spec
                .tables
                .get()
                .expect("the default budget holds the tables");
            for (blocks, rows) in tables.blocks.iter().enumerate() {
                assert_eq!(
                    rows.get().is_some(),
                    (1..=n).contains(&blocks),
                    "N={n}: rows for {blocks} blocks"
                );
            }
        }
    }

    #[test]
    fn overflowing_counts_fail_as_the_reference_does() {
        // Two cells past the Pascal rows: `C(n, c0)` times the falling
        // factorials and σ outgrows `u128` in the middle chunks only.
        let src = "||P(x)||_x <= 1; P(A) => Likes(A, B); Likes(B, A) or Likes(A, A) or !P(B)";
        let kb = KnowledgeBase::parse(src).unwrap();
        let spec = SymmetrySpec::detect(kb.vocab(), &kb.as_formula()).unwrap();
        let mut overflowed = 0;
        for n in [60usize, 64, 100, 124, 126, 128, 130, 132, 140] {
            for threads in [1usize, 2, 4] {
                let opts = budget(crate::count::DEFAULT_MAX_VISITED, threads);
                let expected = spec.reference_count(n, &tol(), &opts);
                overflowed += usize::from(expected == Err(CountError::Overflow));
                assert_eq!(
                    spec.count(n, &tol(), &opts),
                    expected,
                    "N={n}, {threads} threads"
                );
            }
        }
        assert!(overflowed > 0, "no size overflowed");
        assert!(spec.tables.get().is_some());
    }
}
