//! Atoms over unary predicates and sets of atoms.
//!
//! With predicates `P₀..P_{k-1}`, atom `a ∈ {0 .. 2^k - 1}` is the complete
//! conjunction whose `i`-th literal is `P_i` if bit `i` of `a` is set and
//! `¬P_i` otherwise (paper §6). A quantifier-free unary formula over one
//! variable denotes a *set* of atoms; [`compile_atom_set`] computes it.

use rw_logic::ast::{Formula, Term};
use rw_logic::{VarId, Vocabulary};

/// Number of atoms for a unary vocabulary (`2^k` for `k` predicates).
pub fn atom_count(vocab: &Vocabulary) -> usize {
    1usize
        .checked_shl(vocab.pred_count() as u32)
        .expect("too many predicates for atom enumeration")
}

/// A set of atoms, stored as a bitset.
#[derive(Clone, PartialEq, Eq, Hash)]
pub struct AtomSet {
    len: usize,
    words: Vec<u64>,
}

impl AtomSet {
    pub fn empty(len: usize) -> AtomSet {
        AtomSet {
            len,
            words: vec![0; len.div_ceil(64)],
        }
    }

    pub fn full(len: usize) -> AtomSet {
        AtomSet::from_words(len, |_| !0)
    }

    /// The set whose `w`-th word is `word(w)`, with the bits past `len`
    /// cleared.
    fn from_words(len: usize, word: impl Fn(usize) -> u64) -> AtomSet {
        let mut words: Vec<u64> = (0..len.div_ceil(64)).map(word).collect();
        if !len.is_multiple_of(64) {
            if let Some(last) = words.last_mut() {
                *last &= (1 << (len % 64)) - 1;
            }
        }
        AtomSet { len, words }
    }

    /// The atoms that satisfy the predicate with index `pred_index`:
    /// bit `p < 6` of an atom is bit `p` of its position in its word,
    /// higher bits select whole words.
    fn satisfying(len: usize, pred_index: usize) -> AtomSet {
        const PATTERNS: [u64; 6] = [
            0xAAAA_AAAA_AAAA_AAAA,
            0xCCCC_CCCC_CCCC_CCCC,
            0xF0F0_F0F0_F0F0_F0F0,
            0xFF00_FF00_FF00_FF00,
            0xFFFF_0000_FFFF_0000,
            0xFFFF_FFFF_0000_0000,
        ];
        AtomSet::from_words(len, |w| match pred_index {
            p if p < 6 => PATTERNS[p],
            p if (w >> (p - 6)) & 1 == 1 => !0,
            _ => 0,
        })
    }

    // `is_empty_set` below tests set membership; `len` is the universe
    // size, so a `len == 0`-style `is_empty` would be misleading.
    #[allow(clippy::len_without_is_empty)]
    pub fn len(&self) -> usize {
        self.len
    }

    pub fn is_empty_set(&self) -> bool {
        self.words.iter().all(|&w| w == 0)
    }

    pub fn insert(&mut self, atom: usize) {
        self.words[atom / 64] |= 1 << (atom % 64);
    }

    pub fn contains(&self, atom: usize) -> bool {
        (self.words[atom / 64] >> (atom % 64)) & 1 == 1
    }

    pub fn complement(&self) -> AtomSet {
        AtomSet::from_words(self.len, |w| !self.words[w])
    }

    pub fn intersect(&self, other: &AtomSet) -> AtomSet {
        debug_assert_eq!(self.len, other.len);
        AtomSet {
            len: self.len,
            words: self
                .words
                .iter()
                .zip(&other.words)
                .map(|(a, b)| a & b)
                .collect(),
        }
    }

    pub fn union(&self, other: &AtomSet) -> AtomSet {
        debug_assert_eq!(self.len, other.len);
        AtomSet {
            len: self.len,
            words: self
                .words
                .iter()
                .zip(&other.words)
                .map(|(a, b)| a | b)
                .collect(),
        }
    }

    /// True when `self ⊆ other`.
    pub fn subset_of(&self, other: &AtomSet) -> bool {
        self.words
            .iter()
            .zip(&other.words)
            .all(|(a, b)| a & !b == 0)
    }

    pub fn is_disjoint(&self, other: &AtomSet) -> bool {
        self.words.iter().zip(&other.words).all(|(a, b)| a & b == 0)
    }

    pub fn iter(&self) -> impl Iterator<Item = usize> + '_ {
        (0..self.len).filter(move |&a| self.contains(a))
    }

    pub fn count(&self) -> usize {
        self.words.iter().map(|w| w.count_ones() as usize).sum()
    }
}

impl std::fmt::Debug for AtomSet {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "AtomSet{{")?;
        for (i, a) in self.iter().enumerate() {
            if i > 0 {
                write!(f, ",")?;
            }
            write!(f, "{a}")?;
        }
        write!(f, "}}")
    }
}

/// Does atom `a` satisfy predicate `p`?
pub fn atom_satisfies(atom: usize, pred_index: usize) -> bool {
    (atom >> pred_index) & 1 == 1
}

/// Compiles a quantifier-free unary formula over the single variable `v`
/// into the set of atoms satisfying it. Returns `None` if the formula
/// leaves the fragment (other variables, constants, quantifiers,
/// proportions, equality).
pub fn compile_atom_set(f: &Formula, v: VarId, vocab: &Vocabulary) -> Option<AtomSet> {
    let len = atom_count(vocab);
    match f {
        Formula::True => Some(AtomSet::full(len)),
        Formula::False => Some(AtomSet::empty(len)),
        Formula::Pred(p, args) => {
            if args.len() != 1 || args[0] != Term::Var(v) {
                return None;
            }
            Some(AtomSet::satisfying(len, p.index()))
        }
        Formula::Not(g) => Some(compile_atom_set(g, v, vocab)?.complement()),
        Formula::And(parts) => parts.iter().try_fold(AtomSet::full(len), |acc, g| {
            Some(acc.intersect(&compile_atom_set(g, v, vocab)?))
        }),
        Formula::Or(parts) => parts.iter().try_fold(AtomSet::empty(len), |acc, g| {
            Some(acc.union(&compile_atom_set(g, v, vocab)?))
        }),
        Formula::Implies(a, b) => Some(
            compile_atom_set(a, v, vocab)?
                .complement()
                .union(&compile_atom_set(b, v, vocab)?),
        ),
        Formula::Iff(a, b) => {
            let sa = compile_atom_set(a, v, vocab)?;
            let sb = compile_atom_set(b, v, vocab)?;
            Some(
                sa.intersect(&sb)
                    .union(&sa.complement().intersect(&sb.complement())),
            )
        }
        _ => None,
    }
}

/// As [`compile_atom_set`] but over a constant: the set of atoms the
/// constant's denotation may inhabit for the formula to hold.
pub fn compile_atom_set_const(
    f: &Formula,
    c: rw_logic::ConstId,
    vocab: &Vocabulary,
) -> Option<AtomSet> {
    // Reuse the variable compiler by generalizing the constant. We use a
    // synthetic VarId beyond the vocabulary's range; compile only inspects
    // term equality with `Term::Var(v)`, so no interning is needed.
    let v = VarId(u32::MAX - 1);
    let g = rw_logic::analysis::generalize_const(f, c, v);
    compile_atom_set(&g, v, vocab)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rw_logic::parse_formula;

    #[test]
    fn word_wise_sets_match_the_atom_by_atom_definitions() {
        for len in [1usize, 2, 8, 64, 70, 128, 256, 1024] {
            let full = AtomSet::full(len);
            assert_eq!(full.count(), len);
            for p in 0..len.trailing_zeros() as usize + 2 {
                let s = AtomSet::satisfying(len, p);
                for a in 0..len {
                    assert_eq!(s.contains(a), atom_satisfies(a, p), "len {len} p {p} a {a}");
                }
                let c = s.complement();
                assert_eq!(s.count() + c.count(), len);
                assert!(s.is_disjoint(&c));
                assert_eq!(s.union(&c), full);
            }
        }
    }

    #[test]
    fn atom_set_operations() {
        let mut a = AtomSet::empty(70);
        a.insert(0);
        a.insert(65);
        assert!(a.contains(65));
        assert!(!a.contains(64));
        assert_eq!(a.count(), 2);
        let b = a.complement();
        assert_eq!(b.count(), 68);
        assert!(a.is_disjoint(&b));
        assert!(a.subset_of(&a.union(&b)));
        assert_eq!(a.intersect(&b).count(), 0);
    }

    #[test]
    fn compile_simple_predicates() {
        let mut v = Vocabulary::new();
        let f = parse_formula(&mut v, "Bird(x) & !Fly(x)").unwrap();
        // Bird = bit 0, Fly = bit 1 → atoms with bit0=1, bit1=0 → atom 1.
        let x = v.var("x");
        let s = compile_atom_set(&f, x, &v).unwrap();
        assert_eq!(s.iter().collect::<Vec<_>>(), vec![1]);
    }

    #[test]
    fn compile_connectives() {
        let mut v = Vocabulary::new();
        let f = parse_formula(&mut v, "P(x) => Q(x)").unwrap();
        let x = v.var("x");
        let s = compile_atom_set(&f, x, &v).unwrap();
        // Atoms: 0 (¬P¬Q), 1 (P¬Q), 2 (¬PQ), 3 (PQ). Implication excludes 1.
        assert_eq!(s.iter().collect::<Vec<_>>(), vec![0, 2, 3]);

        let g = parse_formula(&mut v, "P(x) <=> Q(x)").unwrap();
        let sg = compile_atom_set(&g, x, &v).unwrap();
        assert_eq!(sg.iter().collect::<Vec<_>>(), vec![0, 3]);
    }

    #[test]
    fn compile_rejects_non_fragment() {
        let mut v = Vocabulary::new();
        let x = v.var("x");
        for src in [
            "Likes(x, y)",
            "forall y (P(y))",
            "x = Eric",
            "||P(y)||_y ~=_1 1",
        ] {
            let f = parse_formula(&mut v, src).unwrap();
            assert!(compile_atom_set(&f, x, &v).is_none(), "{src}");
        }
    }

    #[test]
    fn compile_over_constant() {
        let mut v = Vocabulary::new();
        let f = parse_formula(&mut v, "Jaun(Eric) & !Hep(Eric)").unwrap();
        let eric = v.lookup_const("Eric").unwrap();
        let s = compile_atom_set_const(&f, eric, &v).unwrap();
        assert_eq!(s.iter().collect::<Vec<_>>(), vec![1]); // Jaun=bit0, Hep=bit1
    }
}
