//! The prepared-KB contract: answering through a [`PreparedKb`] — whose
//! theorem-stage analysis is built once and reused by every query that
//! adds no predicate or function symbol — gives exactly what the theorem
//! matchers give on a KB classified from scratch for that one query.
//!
//! KBs are theorem-shaped: statistics (point, interval, conjunctive and
//! negated classes, two-variable), taxonomy universals, `exists!`
//! statements, unary and binary facts over several constants, and
//! constant equalities. Queries mention known constants, a fresh
//! constant, or a fresh predicate, with `!!` and parenthesised variants.
//!
//! The split answer path is checked here too: [`RandomWorlds::probe`]
//! followed by [`RandomWorlds::finish`] must give what the single-call
//! flow gives — parse, look the canonical form up, else run the pipeline
//! and remember the answer — with and without a cache installed.

use proptest::prelude::*;
use rw_core::solvers::TheoremSolver;
use rw_core::theorems;
use rw_core::{
    AnswerCache, Belief, EngineError, PreparedKb, Probe, Provenance, RandomWorlds, Response, Stage,
    StageStatus,
};
use rw_logic::ast::Formula;
use rw_logic::{canon, KnowledgeBase};
use std::collections::HashMap;
use std::sync::Arc;

const PREDS: [&str; 6] = ["Bird", "Fly", "Penguin", "Jaun", "Hep", "Child"];
const CONSTS: [&str; 3] = ["Tweety", "Eric", "Nixon"];
const VALUES: [&str; 6] = ["0", "0.2", "0.5", "0.8", "0.9", "1"];

fn pred() -> std::ops::Range<usize> {
    0..PREDS.len()
}

fn constant() -> std::ops::Range<usize> {
    0..CONSTS.len()
}

fn statement() -> impl Strategy<Value = String> {
    prop_oneof![
        (pred(), pred(), 1u32..4, 0..VALUES.len()).prop_map(|(p, q, t, v)| format!(
            "||{}(x) | {}(x)||_x ~=_{t} {}",
            PREDS[p], PREDS[q], VALUES[v]
        )),
        (pred(), pred(), pred(), 1u32..4, 0..VALUES.len()).prop_map(|(p, q, r, t, v)| format!(
            "||{}(x) | {}(x) & {}(x)||_x ~=_{t} {}",
            PREDS[p], PREDS[q], PREDS[r], VALUES[v]
        )),
        (pred(), pred(), 1u32..4, 0..VALUES.len()).prop_map(|(p, q, t, v)| format!(
            "||!{}(x) | {}(x)||_x ~=_{t} {}",
            PREDS[p], PREDS[q], VALUES[v]
        )),
        (pred(), pred(), 0usize..3, 3usize..6).prop_map(|(p, q, lo, hi)| format!(
            "{} <~_1 ||{}(x) | {}(x)||_x <~_2 {}",
            VALUES[lo], PREDS[p], PREDS[q], VALUES[hi]
        )),
        (pred(), 0..VALUES.len())
            .prop_map(|(p, v)| format!("||{}(x)||_x ~=_3 {}", PREDS[p], VALUES[v])),
        (pred(), pred(), 0..VALUES.len()).prop_map(|(p, q, v)| format!(
            "||Likes(x, y) | {}(x) & {}(y)||_{{x,y}} ~=_1 {}",
            PREDS[p], PREDS[q], VALUES[v]
        )),
        (pred(), pred())
            .prop_map(|(p, q)| format!("forall x ({}(x) => {}(x))", PREDS[p], PREDS[q])),
        (pred(), pred())
            .prop_map(|(p, q)| format!("exists! x ({}(x) & {}(x))", PREDS[p], PREDS[q])),
        (pred(), constant()).prop_map(|(p, c)| format!("{}({})", PREDS[p], CONSTS[c])),
        (pred(), constant()).prop_map(|(p, c)| format!("!{}({})", PREDS[p], CONSTS[c])),
        (pred(), constant()).prop_map(|(p, c)| format!("{}({})", PREDS[p], CONSTS[c])),
        (constant(), constant()).prop_map(|(c, d)| format!("Likes({}, {})", CONSTS[c], CONSTS[d])),
        (constant(), constant()).prop_map(|(c, d)| format!("{} = {}", CONSTS[c], CONSTS[d])),
    ]
}

fn query() -> impl Strategy<Value = String> {
    let atom = (pred(), constant()).prop_map(|(p, c)| format!("{}({})", PREDS[p], CONSTS[c]));
    prop_oneof![
        atom.clone(),
        atom.clone().prop_map(|a| format!("!{a}")),
        atom.clone().prop_map(|a| format!("({a})")),
        atom.clone().prop_map(|a| format!("!!{a}")),
        atom.clone().prop_map(|a| format!("!!({a})")),
        // A fresh constant, then a fresh predicate: the first reuses the
        // prepared analysis, the second must not.
        pred().prop_map(|p| format!("{}(Opus)", PREDS[p])),
        constant().prop_map(|c| format!("Fresh({})", CONSTS[c])),
        (atom.clone(), constant()).prop_map(|(a, c)| format!("{a} & Fresh({})", CONSTS[c])),
        (atom.clone(), atom).prop_map(|(a, b)| format!("{a} & {b}")),
        (constant(), constant()).prop_map(|(c, d)| format!("{} = {}", CONSTS[c], CONSTS[d])),
        (constant(), constant()).prop_map(|(c, d)| format!("!({} = {})", CONSTS[c], CONSTS[d])),
        (constant(), constant()).prop_map(|(c, d)| format!("Likes({}, {})", CONSTS[c], CONSTS[d])),
    ]
}

type Answer = Option<(Belief, Provenance)>;

/// The theorem matchers on a KB classified from scratch, recursing the
/// same way.
fn ad_hoc(kb: &KnowledgeBase, query: &Formula) -> Answer {
    theorems::try_all(kb, query, &ad_hoc)
}

fn theorems_only() -> RandomWorlds {
    RandomWorlds::new().with_solvers(vec![Stage::new(Box::new(TheoremSolver))])
}

/// The theorem stage's answer through the prepared path.
fn prepared_answer(engine: &RandomWorlds, kb: &PreparedKb, query: &str) -> Answer {
    match engine.answer_prepared(kb, query) {
        Ok(r) => Some((r.belief, r.provenance)),
        Err(EngineError::OutOfReach { .. }) => None,
        Err(e) => panic!("`{query}`: {e}"),
    }
}

fn from_scratch(kb: &KnowledgeBase, query: &str) -> Answer {
    let mut local = kb.clone();
    let q = local.parse_query(query).unwrap();
    ad_hoc(&local, &q)
}

/// Queries that fail to parse, answered with the parser's error text.
fn malformed() -> impl Strategy<Value = String> {
    prop_oneof![
        Just("Hep(".to_string()),
        Just("Hep(Eric) &".to_string()),
        Just("Likes(Eric)".to_string()),
        Just("||Hep(x)||_x".to_string()),
    ]
}

/// What a caller sees of one answer, recorded wall times aside.
#[derive(Debug, PartialEq)]
enum Seen {
    Answer {
        belief: Belief,
        provenance: Provenance,
        cached: bool,
        steps: Vec<(String, StageStatus)>,
    },
    Error(String),
}

fn seen(result: Result<Response, EngineError>) -> Seen {
    match result {
        Ok(r) => Seen::Answer {
            steps: r
                .trace
                .steps()
                .iter()
                .map(|s| (s.stage.clone(), s.status.clone()))
                .collect(),
            belief: r.belief,
            provenance: r.provenance,
            cached: r.cached,
        },
        Err(e) => Seen::Error(e.to_string()),
    }
}

/// The single-call flow, modelled: parse into a clone of the KB's
/// vocabulary; with a memo (one KB and one engine, so the canonical form
/// alone is the key), answer a remembered canonical form as a one-step
/// `cache` trace, else run the uncached `pipeline` and remember its
/// belief and provenance.
fn single_call(
    pipeline: &RandomWorlds,
    memo: Option<&mut HashMap<String, (Belief, Provenance)>>,
    kb: &KnowledgeBase,
    query: &str,
) -> Seen {
    let mut vocab = kb.vocab().clone();
    let q = match rw_logic::parse_formula(&mut vocab, query) {
        Ok(q) => q,
        Err(e) => return Seen::Error(EngineError::Parse(e).to_string()),
    };
    let Some(memo) = memo else {
        return seen(pipeline.answer(kb, query));
    };
    let key = canon::canonical_formula(&vocab, &q);
    if let Some((belief, provenance)) = memo.get(&key) {
        return Seen::Answer {
            belief: belief.clone(),
            provenance: provenance.clone(),
            cached: true,
            steps: vec![("cache".to_string(), StageStatus::Answered)],
        };
    }
    let result = pipeline.answer(kb, query);
    if let Ok(r) = &result {
        memo.insert(key, (r.belief.clone(), r.provenance.clone()));
    }
    seen(result)
}

/// The split flow: [`RandomWorlds::probe`], then [`RandomWorlds::finish`]
/// on a miss.
fn probed(engine: &RandomWorlds, kb: &PreparedKb, query: &str) -> Seen {
    match engine.probe(kb, query) {
        Ok(Probe::Hit(r)) => {
            assert!(r.cached, "`{query}`: a hit must be marked cached");
            seen(Ok(r))
        }
        Ok(Probe::Miss(pending)) => seen(engine.finish(pending)),
        Err(e) => Seen::Error(e.to_string()),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(400))]

    #[test]
    fn probe_then_finish_matches_the_single_call_flow(
        statements in prop::collection::vec(statement(), 1..9),
        queries in prop::collection::vec(prop_oneof![query(), query(), malformed()], 1..7),
    ) {
        let src = statements.join("; ");
        let kb = KnowledgeBase::parse(&src).unwrap();
        let pipeline = theorems_only();
        let cached = theorems_only().with_cache(Arc::new(AnswerCache::new()));
        let prepared = PreparedKb::new(kb.clone());
        let mut memo = HashMap::new();
        // Twice through: the second pass hits what the first computed.
        for q in queries.iter().chain(&queries) {
            let want = single_call(&pipeline, Some(&mut memo), &kb, q);
            prop_assert_eq!(probed(&cached, &prepared, q), want, "KB `{}` ⊢ `{}`", src, q);
            // Without a cache every probe that parses is a miss, and
            // finishing it is the pipeline's answer.
            let plain = pipeline.probe(&prepared, q);
            prop_assert!(!matches!(plain, Ok(Probe::Hit(_))), "uncached hit for `{}`", q);
            prop_assert_eq!(
                probed(&pipeline, &prepared, q),
                single_call(&pipeline, None, &kb, q),
                "uncached: KB `{}` ⊢ `{}`", src, q
            );
        }
    }

    #[test]
    fn prepared_answers_match_the_ad_hoc_theorem_stage(
        statements in prop::collection::vec(statement(), 1..9),
        queries in prop::collection::vec(query(), 1..7),
    ) {
        let src = statements.join("; ");
        let kb = KnowledgeBase::parse(&src).unwrap();
        let engine = theorems_only();
        // One prepared KB answers the whole sequence, so later queries
        // run on the analysis an earlier one built.
        let prepared = PreparedKb::new(kb.clone());
        for q in &queries {
            let got = prepared_answer(&engine, &prepared, q);
            let want = from_scratch(&kb, q);
            prop_assert_eq!(got, want, "KB `{}` ⊢ `{}`", src, q);
        }
    }
}

/// `(s) & (s)` or `(s) or (s)` for `op` 1 or 2, `s` itself for 0.
fn doubled(s: &str, op: u8) -> String {
    match op {
        1 => format!("({s}) & ({s})"),
        2 => format!("({s}) or ({s})"),
        _ => s.to_string(),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// `φ ∧ φ` and `φ ∨ φ` are `φ`: doubling KB statements or queries
    /// changes no answer on the default cascade. The whole response is
    /// compared — belief, provenance with its counters, each stage's
    /// outcome and reason — which is everything the serving JSON prints
    /// but the times.
    #[test]
    fn doubled_statements_and_queries_answer_like_the_plain_ones(
        statements in prop::collection::vec(statement(), 1..7),
        kb_ops in prop::collection::vec(0u8..3, 7..8),
        queries in prop::collection::vec((query(), 1u8..3), 1..4),
    ) {
        let src = statements.join("; ");
        let twice: Vec<String> = statements.iter().zip(&kb_ops).map(|(s, &op)| doubled(s, op)).collect();
        let twice = twice.join("; ");
        let kb = KnowledgeBase::parse(&src).unwrap();
        let kb2 = KnowledgeBase::parse(&twice).unwrap();
        let engine = RandomWorlds::from(rw_core::EngineConfig {
            enum_max_worlds: 1 << 13,
            ..rw_core::EngineConfig::default()
        });
        for (q, op) in &queries {
            let want = seen(engine.answer(&kb, q));
            prop_assert_eq!(&seen(engine.answer(&kb2, q)), &want, "KB `{}` ⊢ `{}`", twice, q);
            let q2 = doubled(q, *op);
            prop_assert_eq!(&seen(engine.answer(&kb, &q2)), &want, "KB `{}` ⊢ `{}`", src, q2);
        }
    }
}

#[test]
fn a_seventeenth_predicate_re_prepares_the_analysis() {
    // Exactly 16 predicates: the taxonomy (and with it the minimal
    // reference class) is in reach.
    let mut statements = vec![
        "||Fly(x) | Bird(x)||_x ~=_1 0.9".to_string(),
        "||Fly(x) | Penguin(x)||_x ~=_2 0".to_string(),
        "forall x (Penguin(x) => Bird(x))".to_string(),
        "Penguin(Tweety)".to_string(),
        "Yellow(Tweety)".to_string(),
    ];
    statements.extend((0..12).map(|i| format!("Filler{i}(Other)")));
    let kb = KnowledgeBase::parse(&statements.join("; ")).unwrap();
    assert_eq!(kb.vocab().pred_count(), 16);
    let prepared = PreparedKb::new(kb.clone());
    let engine = theorems_only();

    let base = prepared_answer(&engine, &prepared, "Fly(Tweety)");
    assert_eq!(base, from_scratch(&kb, "Fly(Tweety)"));
    assert_eq!(
        base,
        Some((Belief::Point(0.0), Provenance::MinimalReferenceClass))
    );
    assert!(prepared.analysis().taxonomy.is_some());

    // A 17th predicate: the query's own KB is analysed afresh (no
    // taxonomy above 16 predicates) and answers like the ad-hoc stage.
    let query = "Fly(Tweety) & Extra(Tweety)";
    let mut vocab = prepared.vocab().clone();
    rw_logic::parse_formula(&mut vocab, query).unwrap();
    assert_eq!(vocab.pred_count(), 17);
    let local = prepared.extended(vocab);
    assert!(!local.is_analysed());
    assert!(local.analysis().taxonomy.is_none());
    assert!(!std::ptr::eq(local.analysis(), prepared.analysis()));
    for q in [query, "Extra(Tweety)", "!Extra(Tweety)", "Fly(Tweety)"] {
        assert_eq!(
            prepared_answer(&engine, &prepared, q),
            from_scratch(&kb, q),
            "{q}"
        );
    }
    // The 16-predicate analysis is still the one constant-only queries use.
    assert!(prepared.analysis().taxonomy.is_some());
}

#[test]
fn probe_then_finish_matches_the_single_call_flow_on_the_default_cascade() {
    // Stages past theorems: maxent answers the first query after the
    // theorem stage declines, and the binary KB is counted by the
    // enumeration stage (its budget kept small for debug builds), so the
    // compared traces have several steps.
    for (src, queries) in [
        (
            "||Black(x) | Bird(x)||_x ~=_1 0.2; ||Bird(x)||_x ~=_2 0.1",
            &["Black(Clyde)", "!!Black(Clyde)", "Black(", "Fresh(Clyde)"][..],
        ),
        (
            "Likes(A, B)",
            &["Likes(B, A)", "(Likes(B, A))", "Likes(B)"][..],
        ),
    ] {
        let kb = KnowledgeBase::parse(src).unwrap();
        let config = rw_core::EngineConfig {
            enum_max_worlds: 1 << 13,
            ..rw_core::EngineConfig::default()
        };
        let pipeline = RandomWorlds::from(config.clone());
        let cached = RandomWorlds::from(config).with_cache(Arc::new(AnswerCache::new()));
        let prepared = PreparedKb::new(kb.clone());
        let mut memo = HashMap::new();
        let mut hits = 0;
        for q in queries.iter().chain(queries) {
            let want = single_call(&pipeline, Some(&mut memo), &kb, q);
            hits += matches!(want, Seen::Answer { cached: true, .. }) as u64;
            assert_eq!(probed(&cached, &prepared, q), want, "{src} ⊢ {q}");
        }
        // Every query that parsed hit on the second pass at the latest.
        assert!(hits >= queries.len() as u64 - 1, "{src}");
        assert_eq!(cached.cache().unwrap().hits(), hits, "{src}");
    }
}
