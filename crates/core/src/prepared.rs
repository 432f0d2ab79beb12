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
//!
//! Each prepared KB also has a process-unique [`PreparedKb::id`], shared
//! by its extended views. The Monte-Carlo stage keys the draws it keeps
//! for later queries by it ([`crate::DrawCache`]), so a KB's draws are
//! reused only by queries against that very KB, and only by those that
//! add no symbol: a new predicate, function or constant changes the
//! slot layout and with it the random stream.

use crate::patterns::{classify, Classified};
use rw_logic::ast::Formula;
use rw_logic::{canon, KnowledgeBase, Vocabulary};
use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};

/// The next [`PreparedKb::id`].
static NEXT_ID: AtomicU64 = AtomicU64::new(1);

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
    /// Assigned by [`Self::new`], carried over by [`Self::extended`].
    id: u64,
    /// Whether Monte-Carlo draws against this KB may be kept for later
    /// queries: not for a KB prepared for a single query, nor for a view
    /// whose vocabulary adds a symbol.
    keeps_draws: bool,
}

impl PreparedKb {
    /// Wraps `kb`; nothing is computed until first asked for.
    pub fn new(kb: KnowledgeBase) -> PreparedKb {
        PreparedKb {
            kb,
            fingerprint: OnceLock::new(),
            analysis: Arc::default(),
            id: NEXT_ID.fetch_add(1, Ordering::Relaxed),
            keeps_draws: true,
        }
    }

    /// [`Self::new`] for a KB that answers one query and is dropped: its
    /// Monte-Carlo draws are not kept, since nothing could replay them.
    pub(crate) fn single_use(kb: KnowledgeBase) -> PreparedKb {
        PreparedKb {
            keeps_draws: false,
            ..PreparedKb::new(kb)
        }
    }

    /// A process-unique id, shared by every [`Self::extended`] view.
    pub fn id(&self) -> u64 {
        self.id
    }

    /// The id under which Monte-Carlo draws against this KB are kept for
    /// later queries, or `None` when they are not: a single-use KB, or a
    /// view whose vocabulary adds a predicate, function or constant.
    pub fn draw_id(&self) -> Option<u64> {
        self.keeps_draws.then_some(self.id)
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
    /// fingerprint and the id carry over (the fingerprint ignores
    /// vocabulary-only differences); draws are kept only when `vocab`
    /// adds no constant either.
    pub fn extended(&self, vocab: Vocabulary) -> PreparedKb {
        let base = self.vocab();
        let same_signature =
            vocab.pred_count() == base.pred_count() && vocab.func_count() == base.func_count();
        let same_symbols = same_signature && vocab.const_count() == base.const_count();
        PreparedKb {
            kb: self.kb.with_vocab(vocab),
            fingerprint: self.fingerprint.clone(),
            analysis: if same_signature {
                Arc::clone(&self.analysis)
            } else {
                Arc::default()
            },
            id: self.id,
            keeps_draws: self.keeps_draws && same_symbols,
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
            .field("id", &self.id)
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
    fn views_share_the_id_and_keep_draws_only_without_new_symbols() {
        let kb = PreparedKb::new(KnowledgeBase::parse("Jaun(Eric)").unwrap());
        assert_ne!(kb.id(), PreparedKb::new(kb.kb().clone()).id());
        assert_eq!(kb.draw_id(), Some(kb.id()));
        // A new variable is no symbol: the stream is unchanged.
        let (vocab, _) = parsed(&kb, "exists y (Jaun(y))");
        assert_eq!(kb.extended(vocab).draw_id(), Some(kb.id()));
        for query in ["Jaun(Tom)", "Hep(Eric)"] {
            let (vocab, _) = parsed(&kb, query);
            let local = kb.extended(vocab);
            assert_eq!(local.id(), kb.id(), "{query}");
            assert_eq!(local.draw_id(), None, "{query}");
            // A view of a view that added a symbol still keeps none.
            let (vocab, _) = parsed(&local, "Jaun(Eric)");
            assert_eq!(local.extended(vocab).draw_id(), None, "{query}");
        }
        assert_eq!(PreparedKb::single_use(kb.kb().clone()).draw_id(), None);
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
