//! Minimal JSON emission for the JSONL serving surface.
//!
//! The workspace has no external dependencies, so this module hand-rolls
//! the (tiny) JSON surface the serving paths need: string escaping and
//! the rendering of a [`rw_core::Response`] or error into one
//! self-contained object per line. It is the *single* renderer behind
//! `rwq query`'s JSON mode, `rwq batch` and the `rw-server` query
//! responses — one implementation is what makes the three paths
//! byte-identical on the golden corpus.

use rw_core::{BatchReport, Belief, EngineError, Response, StageStatus};
use std::fmt::Write as _;

/// Escapes `s` as the *contents* of a JSON string literal (the
/// workspace's one escaper, kept in rw-obs).
pub use rw_obs::escape;

/// A finite JSON number (JSON has no NaN/∞; those become `null`).
fn number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".to_string()
    }
}

/// The belief as a tagged JSON object.
pub fn belief_json(b: &Belief) -> String {
    match b {
        Belief::Point(v) => format!(r#"{{"type":"point","value":{}}}"#, number(*v)),
        Belief::Interval(lo, hi) => format!(
            r#"{{"type":"interval","lo":{},"hi":{}}}"#,
            number(*lo),
            number(*hi)
        ),
        Belief::NonRobust(vs) => {
            let candidates: Vec<String> = vs.iter().map(|v| number(*v)).collect();
            format!(
                r#"{{"type":"non-robust","candidates":[{}]}}"#,
                candidates.join(",")
            )
        }
        Belief::Approximate {
            value,
            ci_half_width,
        } => format!(
            r#"{{"type":"approximate","value":{},"ci_half_width":{}}}"#,
            number(*value),
            number(*ci_half_width)
        ),
        Belief::Undefined => r#"{"type":"undefined"}"#.to_string(),
    }
}

/// One successful JSONL result line (no trailing newline). `cache_hit`
/// mirrors [`Response::cached`]; `elapsed_us` is the total recorded stage
/// time (a cache hit's is the lookup alone).
pub fn response_line(query: &str, response: &Response) -> String {
    let mut trace = String::from("[");
    let mut total_us: u128 = 0;
    for (i, s) in response.trace.steps().iter().enumerate() {
        if i > 0 {
            trace.push(',');
        }
        let _ = write!(
            trace,
            r#"{{"stage":"{}","outcome":"{}""#,
            escape(&s.stage),
            s.status.keyword()
        );
        if let StageStatus::Declined(r) | StageStatus::BudgetExhausted(r) = &s.status {
            let _ = write!(trace, r#","reason":"{}""#, escape(r));
        }
        let _ = write!(trace, r#","elapsed_us":{}}}"#, s.elapsed.as_micros());
        total_us += s.elapsed.as_micros();
    }
    trace.push(']');
    let mc = counters_json(&response.provenance);
    format!(
        r#"{{"query":"{}","ok":true,"cache_hit":{},"elapsed_us":{},"belief":{}{},"provenance":"{}","trace":{}}}"#,
        escape(query),
        response.cached,
        total_us,
        belief_json(&response.belief),
        mc,
        escape(&response.provenance.to_string()),
        trace
    )
}

/// The provenance's effort counters as a `,"mc":{…}` / `,"enum":{…}`
/// JSON fragment (leading comma included), or the empty string when the
/// provenance carries none. Monte-Carlo answers report their sampler
/// counts; compiled branch-and-count answers report the numerator-side
/// visited/branched node counts, which are deterministic at any thread
/// count — oracle-mode enumeration reports no counts and gets no object.
pub fn counters_json(provenance: &rw_core::Provenance) -> String {
    match provenance {
        rw_core::Provenance::MonteCarlo {
            drawn,
            accepted,
            n_points,
        } => format!(r#","mc":{{"drawn":{drawn},"accepted":{accepted},"n_points":{n_points}}}"#),
        rw_core::Provenance::Enumeration {
            max_n,
            visited,
            branched,
            orbits,
        } if *visited > 0 || *orbits > 0 => {
            // `orbits` appears only in symmetry mode (and then visited is
            // 0), so default-mode lines keep their historical bytes.
            let orbits = if *orbits > 0 {
                format!(r#","orbits":{orbits}"#)
            } else {
                String::new()
            };
            format!(
                r#","enum":{{"max_n":{max_n},"visited":{visited},"branched":{branched}{orbits}}}"#
            )
        }
        _ => String::new(),
    }
}

/// One JSONL result line for either arm of a batch result.
pub fn result_line(query: &str, result: &Result<Response, EngineError>) -> String {
    match result {
        Ok(r) => response_line(query, r),
        Err(e) => error_line(query, &e.to_string()),
    }
}

/// The closing summary line of a `rwq batch` run: aggregate counts so a
/// consumer (or an operator reading the tail) sees `{answered, failed}`
/// without counting lines, plus cache/threading/timing detail and the
/// per-stage totals, at every thread count.
pub fn summary_line(report: &BatchReport) -> String {
    format!(
        r#"{{"summary":{{"queries":{},"answered":{},"failed":{},"cache_hits":{},"cache_misses":{},"denoms":{{"hits":{},"misses":{}}},"threads":{},"wall_us":{},"cpu_us":{},"stages":[{}]}}}}"#,
        report.queries,
        report.answered,
        report.failed,
        report.cache_hits,
        report.cache_misses,
        report.denom_hits,
        report.denom_misses,
        report.threads,
        report.wall.as_micros(),
        report.cpu.as_micros(),
        stage_totals_json(&report.stages)
    )
}

/// The body of a `"stages":[...]` array: one object per
/// [`rw_core::StageTotals`], in pipeline order.
pub fn stage_totals_json(stages: &[rw_core::StageTotals]) -> String {
    let mut out = String::new();
    for (i, s) in stages.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(
            out,
            r#"{{"stage":"{}","answered":{},"declined":{},"budget_exhausted":{},"elapsed_us":{}}}"#,
            escape(&s.stage),
            s.answered,
            s.declined,
            s.budget_exhausted,
            s.elapsed.as_micros()
        );
    }
    out
}

/// One failed JSONL result line (no trailing newline).
pub fn error_line(query: &str, error: &str) -> String {
    format!(
        r#"{{"query":"{}","ok":false,"error":"{}"}}"#,
        escape(query),
        escape(error)
    )
}

/// A batch-fatal JSONL line (no query context, e.g. the KB failed to
/// load) — keeps `rwq batch` stdout parseable as one JSON object per
/// line even on startup failure.
pub fn fatal_line(error: &str) -> String {
    format!(r#"{{"ok":false,"error":"{}"}}"#, escape(error))
}

/// Masks every `..._us":<digits>` wall-time value in a JSON line — the
/// only legitimately nondeterministic bytes in the serving output. Lets
/// callers (and the golden-corpus suite) compare runs for byte-identity
/// across thread counts, processes and reruns.
pub fn mask_times(s: &str) -> String {
    let mut out = String::new();
    let mut rest = s;
    while let Some(i) = rest.find("_us\":") {
        out.push_str(&rest[..i + 5]);
        rest = rest[i + 5..].trim_start_matches(|c: char| c.is_ascii_digit());
    }
    out.push_str(rest);
    out
}

/// Removes every `,"failover":true` annotation a [`crate::shard::Shard`]
/// front added to a response line, recovering the backend's exact
/// bytes. With [`mask_times`], this is the soak suite's equality lens:
/// sharded serving must be byte-identical to single-node serving modulo
/// wall times and the failover marker.
pub fn strip_failover(s: &str) -> String {
    s.replace(r#","failover":true"#, "")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn escaping_covers_quotes_backslashes_and_controls() {
        assert_eq!(escape(r#"a"b"#), r#"a\"b"#);
        assert_eq!(escape(r"a\b"), r"a\\b");
        assert_eq!(escape("a\nb\tc"), r"a\nb\tc");
        assert_eq!(escape("\u{1}"), "\\u0001");
        assert_eq!(escape("Pr∞"), "Pr∞");
    }

    #[test]
    fn belief_variants_serialize() {
        assert_eq!(
            belief_json(&Belief::Point(0.5)),
            r#"{"type":"point","value":0.5}"#
        );
        assert_eq!(
            belief_json(&Belief::Interval(0.25, 0.75)),
            r#"{"type":"interval","lo":0.25,"hi":0.75}"#
        );
        assert_eq!(
            belief_json(&Belief::NonRobust(vec![0.0, 1.0])),
            r#"{"type":"non-robust","candidates":[0,1]}"#
        );
        assert_eq!(belief_json(&Belief::Undefined), r#"{"type":"undefined"}"#);
        assert_eq!(
            belief_json(&Belief::Point(f64::NAN)),
            r#"{"type":"point","value":null}"#
        );
    }

    #[test]
    fn approximate_beliefs_serialize_with_ci_and_mc_counts() {
        assert_eq!(
            belief_json(&Belief::Approximate {
                value: 0.64,
                ci_half_width: 0.02
            }),
            r#"{"type":"approximate","value":0.64,"ci_half_width":0.02}"#
        );
        let response = Response {
            belief: Belief::Approximate {
                value: 0.64,
                ci_half_width: 0.02,
            },
            provenance: rw_core::Provenance::MonteCarlo {
                drawn: 8192,
                accepted: 1024,
                n_points: 3,
            },
            trace: rw_core::Trace::default(),
            cached: false,
        };
        let line = response_line("Q(C)", &response);
        assert!(
            line.contains(r#""mc":{"drawn":8192,"accepted":1024,"n_points":3}"#),
            "{line}"
        );
        assert!(line.contains(r#""type":"approximate""#), "{line}");
    }

    #[test]
    fn compiled_counting_answers_carry_their_search_effort() {
        let mut response = Response {
            belief: Belief::Point(0.5),
            provenance: rw_core::Provenance::Enumeration {
                max_n: 6,
                visited: 1234,
                branched: 321,
                orbits: 0,
            },
            trace: rw_core::Trace::default(),
            cached: false,
        };
        let line = response_line("Likes(B, A)", &response);
        assert!(
            line.contains(r#""enum":{"max_n":6,"visited":1234,"branched":321}"#),
            "{line}"
        );
        // Symmetry-mode answers report orbit representatives instead of
        // search nodes.
        response.provenance = rw_core::Provenance::Enumeration {
            max_n: 40,
            visited: 0,
            branched: 0,
            orbits: 777,
        };
        let line = response_line("Likes(B, A)", &response);
        assert!(
            line.contains(r#""enum":{"max_n":40,"visited":0,"branched":0,"orbits":777}"#),
            "{line}"
        );
        // Oracle-mode enumeration (no effort counts) keeps the
        // historical line shape.
        response.provenance = rw_core::Provenance::Enumeration {
            max_n: 4,
            visited: 0,
            branched: 0,
            orbits: 0,
        };
        let line = response_line("Likes(B, A)", &response);
        assert!(!line.contains(r#""enum""#), "{line}");
    }

    #[test]
    fn mask_times_strips_only_wall_time_digits() {
        let line = r#"{"elapsed_us":123,"belief":{"value":0.5},"trace":[{"elapsed_us":7}]}"#;
        assert_eq!(
            mask_times(line),
            r#"{"elapsed_us":,"belief":{"value":0.5},"trace":[{"elapsed_us":}]}"#
        );
        assert_eq!(mask_times("no times here"), "no times here");
    }

    #[test]
    fn error_lines_are_well_formed() {
        assert_eq!(
            error_line("P(", "unexpected end"),
            r#"{"query":"P(","ok":false,"error":"unexpected end"}"#
        );
    }

    #[test]
    fn summary_lines_carry_counts_and_stage_totals() {
        use rw_core::StageTotals;
        use std::time::Duration;
        let mut report = BatchReport {
            queries: 3,
            answered: 2,
            failed: 1,
            cache_hits: 1,
            cache_misses: 2,
            denom_hits: 5,
            denom_misses: 3,
            threads: 4,
            wall: Duration::from_micros(120),
            cpu: Duration::from_micros(400),
            stages: Vec::new(),
        };
        let line = summary_line(&report);
        assert!(line.starts_with(r#"{"summary":{"#), "{line}");
        assert!(line.contains(r#""answered":2,"failed":1"#), "{line}");
        assert!(
            line.contains(r#""cache_hits":1,"cache_misses":2,"denoms":{"hits":5,"misses":3}"#),
            "{line}"
        );
        assert!(line.ends_with(r#","stages":[]}}"#), "{line}");
        report.stages.push(StageTotals {
            stage: "theorems".to_string(),
            answered: 2,
            declined: 0,
            budget_exhausted: 0,
            elapsed: Duration::from_micros(90),
        });
        let line = summary_line(&report);
        assert!(
            line.contains(r#""stages":[{"stage":"theorems","answered":2"#),
            "{line}"
        );
    }
}
