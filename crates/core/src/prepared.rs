//! Prepared knowledge bases: the per-KB analysis a resident KB needs,
//! done once instead of once per query.
//!
//! A serving loop answers many queries against one unchanging KB. A
//! [`PreparedKb`] carries that KB together with what every query against
//! it would otherwise recompute:
//!
//! * its canonical fingerprint ([`rw_logic::canon::kb_fingerprint`]), the
//!   KB half of every answer-cache key;
//! * the theorem stage's analysis ([`Classified`]): the conjuncts
//!   classified into statistics, universals and `∃!` statements, and
//!   indexed by constant, predicate and function so each matcher visits
//!   only the conjuncts that mention the query's symbols.
//!
//! Both are built lazily, on first use, and then shared by every query
//! (and every thread) answering against the KB. A query is parsed into a
//! clone of the KB's vocabulary, which is O(1) (copy-on-write tables),
//! and [`PreparedKb::extended`] pairs that vocabulary with the KB's
//! shared conjunct list, copying nothing. The analysis depends on the
//! vocabulary's predicates and functions (the 16-predicate taxonomy gate
//! and atom-set compilation read them), so it is reused only when the
//! query added neither; a query that adds one is analysed against its
//! own extended KB, from scratch.

use crate::patterns::{classify, Classified};
use rw_logic::ast::Formula;
use rw_logic::{canon, KnowledgeBase, Vocabulary};
use std::fmt;
use std::sync::{Arc, OnceLock};

/// A knowledge base with its fingerprint and theorem-stage analysis,
/// each computed at most once.
///
/// ```
/// use rw_core::{PreparedKb, RandomWorlds};
/// use rw_logic::KnowledgeBase;
///
/// let kb = KnowledgeBase::parse("||Hep(x) | Jaun(x)||_x ~=_1 0.8; Jaun(Eric); Jaun(Tom)")
///     .unwrap();
/// let prepared = PreparedKb::new(kb);
/// let engine = RandomWorlds::new();
/// // Both queries share one analysis of the KB.
/// for who in ["Eric", "Tom"] {
///     let r = engine.answer_prepared(&prepared, &format!("Hep({who})")).unwrap();
///     assert_eq!(r.belief.as_point(), Some(0.8));
/// }
/// ```
pub struct PreparedKb {
    kb: KnowledgeBase,
    fingerprint: OnceLock<u64>,
    /// Shared with every [`Self::extended`] view whose vocabulary has
    /// the same predicates and functions. Boxed so a KB never analysed
    /// (every query a cache hit, or no query yet) costs one small
    /// allocation, not a whole empty analysis.
    analysis: Arc<OnceLock<Box<Classified>>>,
}

impl PreparedKb {
    /// Wraps `kb`; nothing is computed until first asked for.
    pub fn new(kb: KnowledgeBase) -> PreparedKb {
        PreparedKb {
            kb,
            fingerprint: OnceLock::new(),
            analysis: Arc::default(),
        }
    }

    /// The knowledge base.
    pub fn kb(&self) -> &KnowledgeBase {
        &self.kb
    }

    /// The KB's vocabulary.
    pub fn vocab(&self) -> &Vocabulary {
        self.kb.vocab()
    }

    /// The KB's conjuncts.
    pub fn conjuncts(&self) -> &[Formula] {
        self.kb.conjuncts()
    }

    /// [`rw_logic::canon::kb_fingerprint`] of the KB, computed on first
    /// call.
    pub fn fingerprint(&self) -> u64 {
        *self
            .fingerprint
            .get_or_init(|| canon::kb_fingerprint(&self.kb))
    }

    /// The theorem stage's analysis of the KB, built on first call.
    pub fn analysis(&self) -> &Classified {
        self.analysis.get_or_init(|| Box::new(classify(&self.kb)))
    }

    /// This KB over `vocab`, an extension of [`Self::vocab`] that a query
    /// was parsed into. The conjunct list is shared; so is the analysis,
    /// when `vocab` adds no predicate and no function symbol. The
    /// fingerprint carries over (it ignores vocabulary-only differences).
    pub fn extended(&self, vocab: Vocabulary) -> PreparedKb {
        let base = self.vocab();
        let same_signature =
            vocab.pred_count() == base.pred_count() && vocab.func_count() == base.func_count();
        PreparedKb {
            kb: self.kb.with_vocab(vocab),
            fingerprint: self.fingerprint.clone(),
            analysis: if same_signature {
                Arc::clone(&self.analysis)
            } else {
                Arc::default()
            },
        }
    }

    /// True when the theorem-stage analysis has been built (by this KB
    /// or by a view sharing it).
    pub fn is_analysed(&self) -> bool {
        self.analysis.get().is_some()
    }
}

impl fmt::Debug for PreparedKb {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("PreparedKb")
            .field("kb", &self.kb)
            .field("fingerprint", &self.fingerprint.get())
            .field("analysed", &self.is_analysed())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parsed(kb: &PreparedKb, query: &str) -> (Vocabulary, Formula) {
        let mut vocab = kb.vocab().clone();
        let q = rw_logic::parse_formula(&mut vocab, query).unwrap();
        (vocab, q)
    }

    #[test]
    fn nothing_is_computed_until_asked() {
        let kb = PreparedKb::new(KnowledgeBase::parse("Jaun(Eric)").unwrap());
        assert!(!kb.is_analysed());
        assert_eq!(kb.fingerprint.get(), None);
        let fp = kb.fingerprint();
        assert_eq!(fp, canon::kb_fingerprint(kb.kb()));
        kb.analysis();
        assert!(kb.is_analysed());
    }

    #[test]
    fn constant_only_extensions_share_the_analysis() {
        let kb = PreparedKb::new(
            KnowledgeBase::parse("||Hep(x) | Jaun(x)||_x ~=_1 0.8; Jaun(Eric)").unwrap(),
        );
        let fp = kb.fingerprint();
        let (vocab, _) = parsed(&kb, "Hep(Tom)");
        let local = kb.extended(vocab);
        assert!(local.kb().shares_conjuncts_with(kb.kb()));
        assert_eq!(local.fingerprint.get(), Some(&fp));
        // Analysing through the view fills the base's analysis too.
        local.analysis();
        assert!(kb.is_analysed());
        assert!(std::ptr::eq(local.analysis(), kb.analysis()));
    }

    #[test]
    fn predicate_extensions_are_analysed_afresh() {
        let kb = PreparedKb::new(KnowledgeBase::parse("Jaun(Eric)").unwrap());
        kb.analysis();
        let (vocab, _) = parsed(&kb, "Hep(Eric)");
        let local = kb.extended(vocab);
        assert!(local.kb().shares_conjuncts_with(kb.kb()));
        assert!(!local.is_analysed());
        assert!(!std::ptr::eq(local.analysis(), kb.analysis()));
    }
}
