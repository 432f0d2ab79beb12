//! Knowledge bases: a vocabulary plus a list of asserted formulas.
//!
//! The random-worlds method conditions on the *conjunction* of everything the
//! agent knows (the paper's standing assumption is that `KB` captures all of
//! it). We keep the conjuncts separate rather than pre-conjoined because the
//! theorem engine classifies them individually (statistical statements,
//! universal statements, facts about constants, ...).
//!
//! The conjunct list is shared behind an [`Arc`]: cloning a KB, or
//! re-pairing its conjuncts with a query's extension of the vocabulary
//! ([`KnowledgeBase::with_vocab`]), copies no formula. Edits copy the list
//! on write, so they never reach other holders of the same list.

use crate::analysis;
use crate::ast::Formula;
use crate::parser::{parse_formula, parse_kb, ParseError};
use crate::print::Pretty;
use crate::vocab::{ConstId, Vocabulary};
use std::fmt;
use std::sync::Arc;

/// A knowledge base: closed formulas of `L≈` over a shared vocabulary.
#[derive(Clone, Default)]
pub struct KnowledgeBase {
    vocab: Vocabulary,
    conjuncts: Arc<Vec<Formula>>,
}

impl KnowledgeBase {
    pub fn new() -> KnowledgeBase {
        KnowledgeBase::default()
    }

    /// Builds a knowledge base from an existing vocabulary and conjuncts
    /// (used when splitting a KB into independent components, Thm 5.27).
    pub fn from_parts(vocab: Vocabulary, conjuncts: Vec<Formula>) -> KnowledgeBase {
        KnowledgeBase {
            vocab,
            conjuncts: Arc::new(conjuncts),
        }
    }

    /// The same conjuncts over `vocab`, which must extend this KB's
    /// vocabulary (every symbol the conjuncts use keeps its id) — e.g. a
    /// clone of [`Self::vocab`] that a query was parsed into. The
    /// conjunct list is shared, not copied.
    pub fn with_vocab(&self, vocab: Vocabulary) -> KnowledgeBase {
        KnowledgeBase {
            vocab,
            conjuncts: Arc::clone(&self.conjuncts),
        }
    }

    /// True when both KBs hold the very same conjunct list (one was
    /// cloned or re-vocabularied from the other and neither was edited
    /// since).
    pub fn shares_conjuncts_with(&self, other: &KnowledgeBase) -> bool {
        Arc::ptr_eq(&self.conjuncts, &other.conjuncts)
    }

    /// The shared conjunct list itself, for analyses that outlive a
    /// borrow of the KB but must not copy its formulas.
    pub fn shared_conjuncts(&self) -> &Arc<Vec<Formula>> {
        &self.conjuncts
    }

    /// Parses a `;`-separated list of formulas into a knowledge base.
    ///
    /// ```
    /// use rw_logic::KnowledgeBase;
    /// let kb = KnowledgeBase::parse(
    ///     "Bird(x) ->_1 Fly(x); Penguin(x) ->_2 !Fly(x); \
    ///      forall x (Penguin(x) => Bird(x)); Penguin(Tweety)",
    /// ).unwrap();
    /// assert_eq!(kb.conjuncts().len(), 4);
    /// ```
    pub fn parse(src: &str) -> Result<KnowledgeBase, ParseError> {
        let mut vocab = Vocabulary::new();
        let conjuncts = parse_kb(&mut vocab, src)?;
        for f in &conjuncts {
            check_closed(&vocab, f)?;
        }
        Ok(KnowledgeBase::from_parts(vocab, conjuncts))
    }

    /// Adds one more conjunct, parsed in this KB's vocabulary. Only the
    /// new conjunct is checked for free variables (the others were when
    /// they were added), so loading a KB statement by statement stays
    /// linear; an open formula is rejected and not added.
    pub fn assert(&mut self, src: &str) -> Result<(), ParseError> {
        let f = parse_formula(&mut self.vocab, src)?;
        check_closed(&self.vocab, &f)?;
        Arc::make_mut(&mut self.conjuncts).push(f);
        Ok(())
    }

    /// Adds an already-built formula (must use this KB's vocabulary).
    pub fn assert_formula(&mut self, f: Formula) {
        Arc::make_mut(&mut self.conjuncts).push(f);
    }

    /// Parses a formula against this KB's vocabulary *without* asserting it
    /// (new symbols are interned — degrees of belief are invariant under
    /// vocabulary expansion, paper footnote 8).
    pub fn parse_query(&mut self, src: &str) -> Result<Formula, ParseError> {
        parse_formula(&mut self.vocab, src)
    }

    pub fn vocab(&self) -> &Vocabulary {
        &self.vocab
    }

    pub fn vocab_mut(&mut self) -> &mut Vocabulary {
        &mut self.vocab
    }

    pub fn conjuncts(&self) -> &[Formula] {
        &self.conjuncts
    }

    pub fn is_empty(&self) -> bool {
        self.conjuncts.is_empty()
    }

    /// The KB as a single conjunction (`true` when empty).
    pub fn as_formula(&self) -> Formula {
        Formula::conjoin(self.conjuncts.iter().cloned())
    }

    /// All constants mentioned anywhere in the KB.
    pub fn mentioned_constants(&self) -> Vec<ConstId> {
        let mut set = std::collections::BTreeSet::new();
        for f in self.conjuncts.iter() {
            set.extend(analysis::constants(f));
        }
        set.into_iter().collect()
    }

    /// A copy of this KB with one conjunct replaced (used by the theorem
    /// engine when rewriting via Proposition 5.2).
    pub fn with_conjunct_replaced(&self, idx: usize, f: Formula) -> KnowledgeBase {
        let mut kb = self.clone();
        Arc::make_mut(&mut kb.conjuncts)[idx] = f;
        kb
    }

    /// A copy of this KB without the conjunct at `idx`.
    pub fn without_conjunct(&self, idx: usize) -> KnowledgeBase {
        let mut kb = self.clone();
        Arc::make_mut(&mut kb.conjuncts).remove(idx);
        kb
    }
}

fn check_closed(vocab: &Vocabulary, f: &Formula) -> Result<(), ParseError> {
    match analysis::free_vars(f).into_iter().next() {
        Some(v) => Err(ParseError {
            pos: 0,
            message: format!(
                "knowledge base formulas must be closed; `{}` has free variable `{}`",
                Pretty::new(vocab, f),
                vocab.var_name(v)
            ),
        }),
        None => Ok(()),
    }
}

impl fmt::Display for KnowledgeBase {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for (i, c) in self.conjuncts.iter().enumerate() {
            if i > 0 {
                writeln!(f, ";")?;
            }
            write!(f, "{}", Pretty::new(&self.vocab, c))?;
        }
        Ok(())
    }
}

impl fmt::Debug for KnowledgeBase {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "KnowledgeBase({self})")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_and_display_roundtrip() {
        let kb = KnowledgeBase::parse("||Hep(x) | Jaun(x)||_x ~=_1 0.8; Jaun(Eric)").unwrap();
        let printed = kb.to_string();
        let kb2 = KnowledgeBase::parse(&printed).unwrap();
        assert_eq!(kb.conjuncts(), kb2.conjuncts());
    }

    #[test]
    fn open_formulas_rejected() {
        assert!(KnowledgeBase::parse("Hep(x)").is_err());
        let mut kb = KnowledgeBase::parse("Jaun(Eric)").unwrap();
        assert!(kb.assert("Fever(y)").is_err());
        // The rejected formula is not kept, so later asserts still work.
        assert_eq!(kb.conjuncts().len(), 1);
        kb.assert("Fever(Eric)").unwrap();
    }

    #[test]
    fn queries_extend_vocabulary() {
        let mut kb = KnowledgeBase::parse("Jaun(Eric)").unwrap();
        let q = kb.parse_query("Hep(Eric)").unwrap();
        assert!(matches!(q, Formula::Pred(..)));
        assert!(kb.vocab().lookup_pred("Hep").is_some());
    }

    #[test]
    fn mentioned_constants_are_sorted_unique() {
        let kb = KnowledgeBase::parse("Jaun(Eric); Hep(Tom); Fever(Eric)").unwrap();
        let cs = kb.mentioned_constants();
        assert_eq!(cs.len(), 2);
    }

    #[test]
    fn conjunct_surgery() {
        let kb = KnowledgeBase::parse("P(A); Q(A); R(A)").unwrap();
        assert_eq!(kb.without_conjunct(1).conjuncts().len(), 2);
        let f = kb.conjuncts()[0].clone();
        let kb2 = kb.with_conjunct_replaced(2, f.clone());
        assert_eq!(kb2.conjuncts()[2], f);
    }

    #[test]
    fn edits_on_a_clone_leave_the_source_untouched() {
        let kb = KnowledgeBase::parse("P(A); Q(A); R(A)").unwrap();
        let original: Vec<Formula> = kb.conjuncts().to_vec();
        let clone = kb.clone();
        assert!(clone.shares_conjuncts_with(&kb));
        assert!(clone.vocab().shares_tables_with(kb.vocab()));

        let mut asserted = kb.clone();
        asserted.assert("S(B)").unwrap();
        assert!(!asserted.shares_conjuncts_with(&kb));
        assert_eq!(asserted.conjuncts().len(), 4);

        let replaced = kb.with_conjunct_replaced(0, Formula::True);
        let removed = kb.without_conjunct(1);
        assert_eq!(replaced.conjuncts()[0], Formula::True);
        assert_eq!(removed.conjuncts().len(), 2);
        assert!(!replaced.shares_conjuncts_with(&kb));
        assert!(!removed.shares_conjuncts_with(&kb));

        assert_eq!(kb.conjuncts(), original.as_slice());
        assert_eq!(clone.conjuncts(), original.as_slice());
        assert_eq!(kb.vocab().pred_count(), 3);
        assert_eq!(kb.vocab().lookup_pred("S"), None);
        assert!(clone.shares_conjuncts_with(&kb));
    }

    #[test]
    fn with_vocab_shares_conjuncts_under_an_extended_vocabulary() {
        let kb = KnowledgeBase::parse("Jaun(Eric)").unwrap();
        let mut vocab = kb.vocab().clone();
        let q = parse_formula(&mut vocab, "Hep(Tom)").unwrap();
        let local = kb.with_vocab(vocab);
        assert!(local.shares_conjuncts_with(&kb));
        assert_eq!(local.vocab().pred_count(), 2);
        assert_eq!(kb.vocab().pred_count(), 1);
        assert!(matches!(q, Formula::Pred(..)));
    }
}
