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
//! # Parallelism and determinism
//!
//! Counting shards representatives into `N + 1` **chunks** by the size of
//! the first atom cell, runs them on the shared [`rw_util::par`] pool
//! with a fixed per-chunk budget share and merges results in chunk order,
//! so the count, its representative totals and its failure mode are
//! bit-identical at any thread count.

use crate::compile::{arith, compare, Arith, Frac};
use crate::count::{CountError, CountOptions};
use crate::eval::tolerance;
use rw_logic::ast::{CmpOp, Formula, PropExpr, Term};
use rw_logic::{Tolerances, VarId, Vocabulary};
use rw_util::comb::binomial_checked;
use rw_util::{par, Rat};
use std::collections::BTreeSet;

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
}

/// One coincidence partition of the constants with its derived data.
struct Partition {
    /// Block of each constant (restricted-growth string).
    block_of: Vec<usize>,
    /// Number of blocks.
    blocks: usize,
    /// Named-bit index of each mentioned atom under this partition
    /// (atoms colliding after block substitution share a bit).
    atom_bit: Vec<usize>,
    /// Number of distinct named bits.
    named_bits: usize,
    /// Free predicate bits: `N·free_unary + Σ N^arity − named_bits`.
    exp2: u64,
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
        })
    }

    /// Number of atom cells (`2^k` over the tracked unary predicates).
    pub fn cells(&self) -> usize {
        1 << self.tracked.len()
    }

    /// Counts the models of the lowered formula over `W_n(Φ)` by
    /// weighted orbit-representative enumeration.
    ///
    /// Deterministic at any [`CountOptions::threads`] value: the count,
    /// the [`SymmetryOutcome::reps`] total and the failure mode are
    /// identical across thread counts for fixed `(spec, n, budget)`.
    pub fn count(
        &self,
        n: usize,
        tol: &Tolerances,
        opts: &CountOptions,
    ) -> Result<SymmetryOutcome, CountError> {
        assert!(n >= 1, "domain size must be positive");
        let partitions = self.partitions(n)?;
        let taus: Vec<Rat> = self.stats.iter().map(|s| tolerance(s.op, tol)).collect();
        let chunks = n + 1;
        let chunk_budget = (opts.max_visited / chunks as u64).max(1);

        let results = par::try_map(chunks, opts.threads, |c0| {
            self.run_chunk(&partitions, n, c0, &taus, chunk_budget)
        })?;

        let mut count = ScaledCount::ZERO;
        let mut reps = 0u64;
        for (sum, chunk_reps) in results {
            count.add(sum)?;
            reps += chunk_reps;
        }
        Ok(SymmetryOutcome { count, reps })
    }

    /// Enumerates the coincidence partitions with their per-partition
    /// named-bit tables and free-bit exponents at domain size `n`.
    fn partitions(&self, n: usize) -> Result<Vec<Partition>, CountError> {
        let mut wide_bits = 0u64;
        for &arity in &self.wide_arities {
            let bits = (n as u64).checked_pow(arity).ok_or(CountError::Overflow)?;
            wide_bits = wide_bits.checked_add(bits).ok_or(CountError::Overflow)?;
        }
        let base = (self.free_unary)
            .checked_mul(n as u64)
            .and_then(|u| u.checked_add(wide_bits))
            .ok_or(CountError::Overflow)?;

        let mut out = Vec::new();
        let mut block_of = Vec::with_capacity(self.consts);
        self.partitions_rec(&mut block_of, 0, n, base, &mut out)?;
        Ok(out)
    }

    fn partitions_rec(
        &self,
        block_of: &mut Vec<usize>,
        blocks: usize,
        n: usize,
        base_exp: u64,
        out: &mut Vec<Partition>,
    ) -> Result<(), CountError> {
        if block_of.len() == self.consts {
            // More blocks than elements cannot be realized (the falling
            // factorial would vanish for every profile).
            if blocks > n {
                return Ok(());
            }
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
            let named_bits = bit_tuples.len();
            let exp2 = base_exp
                .checked_sub(named_bits as u64)
                .ok_or(CountError::Overflow)?;
            out.push(Partition {
                block_of: block_of.clone(),
                blocks,
                atom_bit,
                named_bits,
                exp2,
            });
            return Ok(());
        }
        // Restricted growth: the next constant joins an existing block or
        // opens the next fresh one.
        for b in 0..=blocks {
            block_of.push(b);
            self.partitions_rec(block_of, blocks.max(b + 1), n, base_exp, out)?;
            block_of.pop();
        }
        Ok(())
    }

    /// Counts the representatives whose first atom cell has exactly `c0`
    /// elements — one deterministic chunk of the full enumeration.
    fn run_chunk(
        &self,
        partitions: &[Partition],
        n: usize,
        c0: usize,
        taus: &[Rat],
        budget: u64,
    ) -> Result<(ScaledCount, u64), CountError> {
        let cells = self.cells();
        let mut sum = ScaledCount::ZERO;
        let mut reps = 0u64;
        let mut occ_buf = [0u64; MAX_CELLS];
        let mut counts_buf = [0u64; MAX_CELLS];
        let (occ, counts) = (&mut occ_buf[..cells], &mut counts_buf[..cells]);
        for part in partitions {
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
                            sum.accumulate(coeff, part.exp2)?;
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
        for (src, n, most_bits) in [
            ("Likes(A, B); !Likes(B, B)", 3, 2),
            ("Likes(A, B) or Knows(B, A); A = B => P(A)", 3, 2),
            // Nine named bits with distinct constants: eight words per
            // sweep, fewer as constants coincide.
            (
                "(Likes(A, B) or Likes(B, C)) & !Likes(C, A); \
                 Likes(A, A) <=> (P(B) or Likes(B, B)); Likes(C, C) => Likes(B, A); \
                 Likes(A, C) or !Likes(C, B) or B = C",
                3,
                9,
            ),
        ] {
            let kb = KnowledgeBase::parse(src).unwrap();
            let spec = SymmetrySpec::detect(kb.vocab(), &kb.as_formula()).unwrap();
            let cells = spec.cells();
            let mut widest = 0;
            for part in spec.partitions(n).unwrap() {
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
}
