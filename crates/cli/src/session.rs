//! Query sessions: a loaded knowledge base plus answer formatting.
//!
//! The session wraps the [`rw_core::RandomWorlds`] solver pipeline (or a
//! [`rw_propensity::PropensityEngine`] when a non-uniform prior is chosen)
//! and renders results as the stable, line-oriented text the `rwq` binary
//! prints — kept in the library so integration tests can assert on it.
//! Each session holds one engine. `rwq batch` answers through
//! [`Session::batch`] (streamed, a query at a time) or
//! [`Session::answer_batch_report`] (collected, on `--threads` workers):
//! one loaded KB, one solver pipeline, one JSON object per query, and
//! one fold of the answers into the closing summary.

use rw_core::{
    AnswerCache, ApproxParams, Batch, BatchReport, EngineConfig, EngineError, PreparedKb,
    RandomWorlds, ScanParams,
};
use rw_logic::{KnowledgeBase, Pretty, Tolerances};
use rw_propensity::{Prior, PropensityEngine};
use rw_unary::UnaryError;
use rw_util::Rat;
use std::fmt;
use std::sync::Arc;

/// Options shared by every query in a session.
#[derive(Clone, Debug, PartialEq)]
pub struct SessionOptions {
    /// `None` = the random-worlds uniform prior; `Some` = a propensity
    /// prior evaluated by finite-`N` sweeps.
    pub prior: Option<Prior>,
    /// Tolerance used for finite-`N` trend output and propensity sweeps.
    pub tau: Rat,
    /// Domain sizes for trend output (empty = no trend lines).
    pub trend: Vec<usize>,
    /// Include provenance detail in answers.
    pub explain: bool,
    /// Worker threads for `batch` (`0` = one per core, `1` = stream
    /// sequentially); with `--approx` on `query`/`repl` the same count
    /// drives the sampler's worker pool (never the answers — sampling is
    /// thread-count deterministic).
    pub threads: usize,
    /// Install a canonical-query [`AnswerCache`] shared by every query in
    /// the session.
    pub cache: bool,
    /// `--approx` with `--samples`/`--mc-seed`/`--ci`: `Some` enables
    /// the Monte-Carlo approximate-inference stage.
    pub approx: Option<ApproxParams>,
    /// `--symmetry` and the `--min-n`/`--max-n` window of the exact
    /// enumeration stage's scan.
    pub scan: ScanParams,
}

impl Default for SessionOptions {
    fn default() -> SessionOptions {
        SessionOptions {
            prior: None,
            tau: Rat::new(1, 10),
            trend: Vec::new(),
            explain: true,
            threads: 1,
            cache: false,
            approx: None,
            scan: ScanParams::default(),
        }
    }
}

/// Session-level failures.
#[derive(Debug)]
pub enum SessionError {
    /// The random-worlds engine failed (parse error or out of reach).
    Engine(EngineError),
    /// A finite-`N` sweep failed (non-unary KB or budget exceeded).
    Unary(UnaryError),
    /// A propensity query needs at least one trend point.
    NoTrendPoints,
}

impl fmt::Display for SessionError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SessionError::Engine(e) => write!(f, "{e}"),
            SessionError::Unary(e) => write!(f, "{e}"),
            SessionError::NoTrendPoints => {
                write!(f, "propensity queries need --trend domain sizes")
            }
        }
    }
}

impl std::error::Error for SessionError {}

impl From<EngineError> for SessionError {
    fn from(e: EngineError) -> SessionError {
        SessionError::Engine(e)
    }
}

impl From<UnaryError> for SessionError {
    fn from(e: UnaryError) -> SessionError {
        SessionError::Unary(e)
    }
}

/// A loaded knowledge base ready to answer queries.
pub struct Session {
    /// The loaded KB, prepared once: its fingerprint (computed when the
    /// session caches) and theorem-stage analysis serve every query.
    kb: PreparedKb,
    options: SessionOptions,
    engine: RandomWorlds,
}

impl Session {
    /// A session over a loaded knowledge base whose sampler (with
    /// `--approx`) and exact counting workers run on `--threads` threads.
    pub fn new(kb: KnowledgeBase, options: SessionOptions) -> Session {
        let threads = options.threads;
        Session::build(kb, options, threads)
    }

    /// A session for `rwq batch`. Its `--threads` workers answer queries
    /// side by side, so each query's sampler and counting pools run on
    /// one thread: nesting `threads`-wide pools inside them would
    /// oversubscribe the cores. Both pools are thread-count
    /// deterministic, so this changes per-query wall time, never an
    /// answer.
    pub fn for_batch(kb: KnowledgeBase, options: SessionOptions) -> Session {
        Session::build(kb, options, 1)
    }

    fn build(kb: KnowledgeBase, options: SessionOptions, pool_threads: usize) -> Session {
        let mut engine = RandomWorlds::from(EngineConfig::with_options(
            options.approx.as_ref(),
            options.scan,
            pool_threads,
        ));
        if options.cache {
            engine = engine.with_cache(Arc::new(AnswerCache::new()));
        }
        Session {
            kb: PreparedKb::new(kb),
            options,
            engine,
        }
    }

    /// The loaded knowledge base.
    pub fn kb(&self) -> &KnowledgeBase {
        self.kb.kb()
    }

    /// Answers one textual query, returning the formatted output lines.
    pub fn answer(&self, query: &str) -> Result<String, SessionError> {
        match self.options.prior {
            None => self.answer_random_worlds(query),
            Some(prior) => self.answer_propensity(query, prior),
        }
    }

    /// Answers one query as a self-contained JSON object plus a success
    /// flag — the per-line unit of `rwq batch`. Always uses the
    /// random-worlds pipeline; a bad query yields an `"ok":false`
    /// object, never an `Err`.
    pub fn answer_json_line(&self, query: &str) -> (String, bool) {
        let result = self.engine.answer_prepared(&self.kb, query);
        (crate::json::result_line(query, &result), result.is_ok())
    }

    /// Begins a streamed batch on the session's engine and KB: each
    /// [`Batch::answer`] is folded into the report [`Batch::finish`]
    /// returns, the same report [`Self::answer_batch_report`] builds.
    pub fn batch(&self) -> Batch<'_> {
        Batch::new(&self.engine, &self.kb)
    }

    /// Answers a batch through the engine's executor
    /// ([`rw_core::RandomWorlds::answer_batch_report`]) on the session's
    /// `threads` workers. Returns one JSON line per query, in input
    /// order, plus the aggregate [`BatchReport`] behind `rwq batch`'s
    /// closing summary line.
    pub fn answer_batch_report(&self, queries: &[String]) -> (Vec<String>, BatchReport) {
        let run = self
            .engine
            .answer_batch_report(&self.kb, queries, self.options.threads);
        let lines = queries
            .iter()
            .zip(&run.results)
            .map(|(q, r)| crate::json::result_line(q, r))
            .collect();
        (lines, run.report)
    }

    fn answer_random_worlds(&self, query: &str) -> Result<String, SessionError> {
        let result = self.engine.answer_prepared(&self.kb, query)?;
        let mut out = if self.options.explain {
            format!("Pr∞({query} | KB) = {}", result)
        } else {
            format!("Pr∞({query} | KB) = {}", result.belief)
        };
        if !self.options.trend.is_empty() {
            out.push('\n');
            out.push_str(&self.trend_lines(query, None)?);
        }
        Ok(out)
    }

    fn answer_propensity(&self, query: &str, prior: Prior) -> Result<String, SessionError> {
        if self.options.trend.is_empty() {
            return Err(SessionError::NoTrendPoints);
        }
        let mut kb = self.kb().clone();
        let q = kb
            .parse_query(query)
            .map_err(|e| SessionError::Engine(EngineError::Parse(e)))?;
        let tol = Tolerances::uniform(self.options.tau);
        let engine = PropensityEngine::new(prior);
        let estimate = engine.limit_estimate(&kb, &q, &self.options.trend, &tol)?;
        let mut out = match estimate {
            Some(v) => format!("Pr({query} | KB) ≈ {v:.6} under {prior:?} (N-sweep limit)"),
            None => format!("Pr({query} | KB) undefined under {prior:?}: KB has probability 0"),
        };
        if self.options.explain {
            out.push('\n');
            out.push_str(&self.trend_lines(query, Some(prior))?);
        }
        Ok(out)
    }

    /// Finite-`N` trend lines, via the unary counting engine (uniform
    /// prior) or the propensity engine.
    fn trend_lines(&self, query: &str, prior: Option<Prior>) -> Result<String, SessionError> {
        let mut kb = self.kb().clone();
        let q = kb
            .parse_query(query)
            .map_err(|e| SessionError::Engine(EngineError::Parse(e)))?;
        let tol = Tolerances::uniform(self.options.tau);
        let mut lines = Vec::new();
        for &n in &self.options.trend {
            let v = match prior {
                None => rw_unary::degree_of_belief_at(&kb, &q, n, &tol),
                Some(p) => PropensityEngine::new(p).degree_of_belief_at(&kb, &q, n, &tol),
            };
            // Finite-N detail is best-effort decoration: a non-unary KB or
            // a blown profile budget should not void the main answer.
            let line = match v {
                Ok(Some(v)) => format!("  Pr_N(τ={}) at N={n}: {v:.6}", self.options.tau),
                Ok(None) => format!(
                    "  Pr_N(τ={}) at N={n}: no satisfying world",
                    self.options.tau
                ),
                Err(e) => format!("  Pr_N at N={n}: skipped ({e})"),
            };
            lines.push(line);
        }
        Ok(lines.join("\n"))
    }

    /// A human-readable description of the loaded KB (for `rwq check`).
    pub fn describe(&self) -> String {
        let vocab = self.kb.vocab();
        let mut out = String::new();
        out.push_str(&format!(
            "knowledge base: {} statement(s)\n",
            self.kb.conjuncts().len()
        ));
        out.push_str(&format!(
            "vocabulary: {} predicate(s), {} constant(s), {} function(s){}\n",
            vocab.pred_count(),
            vocab.const_count(),
            vocab.func_count(),
            if vocab.is_unary() {
                " [unary: the maxent engine applies]"
            } else {
                ""
            }
        ));
        for p in vocab.preds() {
            out.push_str(&format!(
                "  pred  {}/{}\n",
                vocab.pred_name(p),
                vocab.pred_arity(p)
            ));
        }
        for c in vocab.consts() {
            out.push_str(&format!("  const {}\n", vocab.const_name(c)));
        }
        out.push_str("statements:\n");
        for f in self.kb.conjuncts() {
            out.push_str(&format!("  {}\n", Pretty::new(vocab, f)));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::format::parse_kb;

    fn hepatitis() -> KnowledgeBase {
        parse_kb("||Hep(x) | Jaun(x)||_x ~=_1 0.8\nJaun(Eric)\n").unwrap()
    }

    #[test]
    fn random_worlds_answer_mentions_value_and_provenance() {
        let s = Session::new(hepatitis(), SessionOptions::default());
        let out = s.answer("Hep(Eric)").unwrap();
        assert!(out.contains("0.8"), "{out}");
        assert!(out.contains("direct inference"), "{out}");
    }

    #[test]
    fn explain_false_hides_provenance() {
        let s = Session::new(
            hepatitis(),
            SessionOptions {
                explain: false,
                ..SessionOptions::default()
            },
        );
        let out = s.answer("Hep(Eric)").unwrap();
        assert!(!out.contains("direct inference"), "{out}");
    }

    #[test]
    fn trend_lines_show_finite_n_values() {
        let s = Session::new(
            hepatitis(),
            SessionOptions {
                trend: vec![8, 16],
                ..SessionOptions::default()
            },
        );
        let out = s.answer("Hep(Eric)").unwrap();
        assert!(out.contains("N=8"), "{out}");
        assert!(out.contains("N=16"), "{out}");
    }

    #[test]
    fn oversized_trend_points_degrade_gracefully() {
        // An 8-atom KB at N=64 blows the profile budget; the main answer
        // must survive, with a skip note in the trend lines.
        let kb = parse_kb(
            "||Hep(x) | Jaun(x)||_x ~=_1 0.8\n||Hep(x)||_x <~_2 0.05\n\
             ||Hep(x) | Jaun(x) & Fever(x)||_x ~=_3 1\nJaun(Eric)\n",
        )
        .unwrap();
        let s = Session::new(
            kb,
            SessionOptions {
                trend: vec![64],
                ..SessionOptions::default()
            },
        );
        let out = s.answer("Hep(Eric)").unwrap();
        assert!(out.contains("Pr∞"), "{out}");
        assert!(out.contains("skipped"), "{out}");
    }

    #[test]
    fn non_unary_kb_trend_degrades_gracefully() {
        let kb = parse_kb("||Likes(x, y) | Elephant(x) & Zookeeper(y)||_{x,y} ~=_1 1\nElephant(Clyde)\nZookeeper(Eric)\n").unwrap();
        let s = Session::new(
            kb,
            SessionOptions {
                trend: vec![8],
                ..SessionOptions::default()
            },
        );
        let out = s.answer("Likes(Clyde, Eric)").unwrap();
        assert!(out.contains("Pr∞"), "{out}");
        assert!(out.contains("skipped"), "{out}");
    }

    #[test]
    fn propensity_answers_require_trend_points() {
        let s = Session::new(
            hepatitis(),
            SessionOptions {
                prior: Some(Prior::PerPredicate),
                ..SessionOptions::default()
            },
        );
        assert!(matches!(
            s.answer("Hep(Eric)"),
            Err(SessionError::NoTrendPoints)
        ));
    }

    #[test]
    fn propensity_answer_reports_sweep_limit() {
        let kb = parse_kb("P(C1); P(C2); !P(C3)\n").unwrap();
        let s = Session::new(
            kb,
            SessionOptions {
                prior: Some(Prior::CarnapStar),
                trend: vec![16, 32, 64],
                explain: false,
                ..SessionOptions::default()
            },
        );
        let out = s.answer("P(Fresh)").unwrap();
        assert!(out.contains("CarnapStar"), "{out}");
        // Laplace: (2+1)/(3+2) = 0.6.
        let v: f64 = out
            .split("≈ ")
            .nth(1)
            .unwrap()
            .split_whitespace()
            .next()
            .unwrap()
            .parse()
            .unwrap();
        assert!((v - 0.6).abs() < 0.03, "{out}");
    }

    #[test]
    fn describe_lists_vocabulary_and_statements() {
        let s = Session::new(hepatitis(), SessionOptions::default());
        let d = s.describe();
        assert!(d.contains("2 statement(s)"), "{d}");
        assert!(d.contains("pred  Hep/1"), "{d}");
        assert!(d.contains("const Eric"), "{d}");
        assert!(d.contains("[unary:"), "{d}");
    }

    #[test]
    fn parse_errors_in_queries_surface() {
        let s = Session::new(hepatitis(), SessionOptions::default());
        assert!(s.answer("Hep(").is_err());
    }

    #[test]
    fn batch_jsonl_answers_each_query_once() {
        let s = Session::new(hepatitis(), SessionOptions::default());
        let queries = vec!["Hep(Eric)".to_string(), "!Hep(Eric)".to_string()];
        let (lines, report) = s.answer_batch_report(&queries);
        assert_eq!(report.failed, 0);
        assert_eq!(lines.len(), 2);
        assert!(lines[0].contains(r#""query":"Hep(Eric)""#), "{}", lines[0]);
        assert!(lines[0].contains(r#""ok":true"#), "{}", lines[0]);
        assert!(lines[0].contains(r#""value":0.8"#), "{}", lines[0]);
        assert!(
            lines[0].contains(r#""trace":[{"stage":"theorems","outcome":"answered""#),
            "{}",
            lines[0]
        );
        assert!(lines[1].contains("0.2"), "{}", lines[1]);
    }

    #[test]
    fn approx_sessions_answer_trap_queries_by_sampling() {
        // A conjunction over individuals sharing statistics: no theorem
        // pattern, so an exact session answers it from the maxent stage.
        // The approx session answers from the sampler with a CI.
        let kb = parse_kb("||Hep(x) | Jaun(x)||_x ~=_1 0.8\nJaun(Eric)\nJaun(Tom)\n").unwrap();
        let s = Session::new(
            kb,
            SessionOptions {
                approx: Some(ApproxParams {
                    seed: Some(42),
                    ..ApproxParams::default()
                }),
                ..SessionOptions::default()
            },
        );
        let (line, ok) = s.answer_json_line("Hep(Eric) & Hep(Tom)");
        assert!(ok, "{line}");
        assert!(line.contains(r#""type":"approximate""#), "{line}");
        assert!(line.contains(r#""ci_half_width":"#), "{line}");
        assert!(line.contains(r#""mc":{"drawn":"#), "{line}");
        assert!(
            line.contains(r#""stage":"montecarlo","outcome":"answered""#),
            "{line}"
        );
        // Human-readable output carries the CI and the sampler counts.
        let text = s.answer("Hep(Eric) & Hep(Tom)").unwrap();
        assert!(text.contains("±"), "{text}");
        assert!(text.contains("Monte-Carlo"), "{text}");
    }

    #[test]
    fn approx_answers_are_identical_across_thread_counts() {
        let kb_src = "||Hep(x) | Jaun(x)||_x ~=_1 0.8\nJaun(Eric)\nJaun(Tom)\n";
        let mask = crate::json::mask_times;
        let line_at = |threads: usize| {
            let s = Session::new(
                parse_kb(kb_src).unwrap(),
                SessionOptions {
                    approx: Some(ApproxParams {
                        seed: Some(7),
                        ..ApproxParams::default()
                    }),
                    threads,
                    ..SessionOptions::default()
                },
            );
            mask(&s.answer_json_line("Hep(Eric) & Hep(Tom)").0)
        };
        let reference = line_at(1);
        assert_eq!(reference, line_at(2));
        assert_eq!(reference, line_at(4));
    }

    #[test]
    fn symmetry_sessions_scan_deeper_domains() {
        // A proportion-plus-binary KB outside every closed form: exact
        // enumeration answers it, and with --symmetry the scan runs to
        // the requested window with orbit counters in the provenance.
        let kb = parse_kb("||P(x)||_x ~=_1 1\nLikes(A, B)\n").unwrap();
        let s = Session::new(
            kb,
            SessionOptions {
                scan: ScanParams {
                    symmetry: true,
                    max_n: Some(24),
                    ..ScanParams::default()
                },
                ..SessionOptions::default()
            },
        );
        let (line, ok) = s.answer_json_line("Likes(B, A)");
        assert!(ok, "{line}");
        assert!(line.contains(r#""orbits":"#), "{line}");
        assert!(line.contains(r#""max_n":24"#), "{line}");
    }

    #[test]
    fn sessions_and_served_kbs_agree_under_the_same_options() {
        // Both surfaces build their engine from the same per-KB options,
        // so a query that misses every theorem (and so runs the option-
        // dependent stages) serialises to the same bytes on each.
        let cases = [
            (
                "||P(x)||_x ~=_1 1\nLikes(A, B)\n",
                "Likes(B, A)",
                r#""max_n":12"#,
                None,
                ScanParams {
                    symmetry: true,
                    min_n: Some(3),
                    max_n: Some(12),
                },
            ),
            (
                "||Hep(x) | Jaun(x)||_x ~=_1 0.8\nJaun(Eric)\nJaun(Tom)\n",
                "Hep(Eric) & Hep(Tom)",
                r#""stage":"montecarlo","outcome":"answered""#,
                Some(ApproxParams {
                    seed: Some(7),
                    samples: Some(4096),
                    ..ApproxParams::default()
                }),
                ScanParams::default(),
            ),
        ];
        let mask = crate::json::mask_times;
        for (src, query, answered_by, approx, scan) in cases {
            let session = Session::new(
                parse_kb(src).unwrap(),
                SessionOptions {
                    approx: approx.clone(),
                    scan,
                    ..SessionOptions::default()
                },
            );
            let served = rw_server::LoadedKb::new(
                "kb".to_string(),
                parse_kb(src).unwrap(),
                None,
                approx.as_ref(),
                scan,
                Arc::new(AnswerCache::new()),
                Arc::new(rw_core::DenomCache::new()),
            );
            let (line, ok) = session.answer_json_line(query);
            assert!(ok, "{line}");
            assert!(line.contains(answered_by), "{line}");
            assert_eq!(
                mask(&line),
                mask(&served.answer_json_line(query).0),
                "{src}"
            );
        }
    }

    #[test]
    fn batch_jsonl_isolates_bad_lines() {
        let s = Session::new(hepatitis(), SessionOptions::default());
        let queries = vec!["Hep(".to_string(), "Hep(Eric)".to_string()];
        let (lines, report) = s.answer_batch_report(&queries);
        assert_eq!(report.failed, 1);
        assert!(lines[0].contains(r#""ok":false"#), "{}", lines[0]);
        assert!(lines[0].contains(r#""error""#), "{}", lines[0]);
        assert!(lines[1].contains(r#""ok":true"#), "{}", lines[1]);
    }
}
