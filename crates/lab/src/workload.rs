//! The `workloads/*.jsonl` task-set format.
//!
//! A workload file is JSONL: an optional header object (first line, keyed
//! by `"workload"`) followed by one task object per line. Blank lines and
//! `#`-prefixed comment lines are skipped, so workload files can carry
//! commentary like every other text format in this workspace.
//!
//! ```text
//! {"workload":"paper-examples","gates":{"max_trial_us":30000000}}
//! {"task":"hep-eric","kb":"||Hep(x) | Jaun(x)||_x ~=_1 0.8; Jaun(Eric)","query":"Hep(Eric)","expect":0.8}
//! ```
//!
//! Task fields:
//!
//! * `task` — unique id (required);
//! * `kb` — inline KB source, in any format [`rw_server::format::parse_kb`]
//!   accepts: plain `L≈`, `@temporal`, or `@defaults` (use `\n` escapes
//!   for multi-line directive sources); or `kb_path` — a path resolved
//!   against the workload file's directory;
//! * `query` — the `L≈` query (required);
//! * `expect` — optional expected point belief (the oracle tag); the
//!   reference engine's answer must match to 1e-9;
//! * `expect_kind` — optional expected belief shape: `point`,
//!   `interval`, `non-robust`, `approximate`, or `undefined`;
//! * `min_n` / `max_n` — optional rising-`N` scan window pins, applied
//!   to every exact engine so compiled and oracle extrapolate from the
//!   same diagonal points (bit-equality depends on it).
//!
//! Header gate fields (all optional):
//!
//! * `max_trial_us` — every successful trial must finish within this;
//! * `min_speedup` — `{"engine":…,"baseline":…,"value":…,"tasks":[…]}`:
//!   summed over the listed tasks (all tasks when the list is absent),
//!   `engine` must beat `baseline` by the given wall-clock factor.

use rw_core::ScanParams;
use rw_server::proto::Value;
use std::fmt;
use std::path::Path;

/// A parsed workload: name, gates, and tasks in file order.
#[derive(Clone, Debug)]
pub struct Workload {
    /// Workload name (header `workload` field, or `"workload"`).
    pub name: String,
    /// Human description from the header, possibly empty.
    pub description: String,
    /// Regression gates from the header.
    pub gates: Gates,
    /// The tasks, in file order.
    pub tasks: Vec<Task>,
}

/// Regression gates a run of the workload is judged against (beyond the
/// always-on cross-engine equality and determinism gates).
#[derive(Clone, Debug, Default)]
pub struct Gates {
    /// Ceiling on any successful trial's wall time, in microseconds.
    pub max_trial_us: Option<u64>,
    /// A cross-engine wall-clock floor.
    pub min_speedup: Option<SpeedupGate>,
}

/// `engine` must beat `baseline` by `value`× summed wall-clock over
/// `tasks` (every task when empty).
#[derive(Clone, Debug)]
pub struct SpeedupGate {
    /// The engine whose speed is being asserted.
    pub engine: String,
    /// The engine it is measured against.
    pub baseline: String,
    /// The required wall-clock ratio `baseline / engine`.
    pub value: f64,
    /// Task ids the gate sums over; empty = all tasks.
    pub tasks: Vec<String>,
}

/// One workload task: a KB, a query, and optional oracle/scan pins.
#[derive(Clone, Debug)]
pub struct Task {
    /// Unique task id.
    pub id: String,
    /// KB source text (inline or loaded from `kb_path`).
    pub kb_source: String,
    /// The query to answer.
    pub query: String,
    /// Expected point belief, checked against the reference engine.
    pub expect: Option<f64>,
    /// Expected belief shape keyword.
    pub expect_kind: Option<String>,
    /// Rising-`N` scan floor for exact engines.
    pub min_n: Option<usize>,
    /// Rising-`N` scan ceiling for exact engines.
    pub max_n: Option<usize>,
}

/// A workload-file parse error, tagged with its 1-based line.
#[derive(Clone, Debug)]
pub struct WorkloadError {
    /// 1-based line number in the workload file.
    pub line: usize,
    /// What went wrong.
    pub message: String,
}

impl fmt::Display for WorkloadError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "workload line {}: {}", self.line, self.message)
    }
}

impl std::error::Error for WorkloadError {}

fn err<T>(line: usize, message: impl Into<String>) -> Result<T, WorkloadError> {
    Err(WorkloadError {
        line,
        message: message.into(),
    })
}

fn as_usize(v: &Value) -> Option<usize> {
    v.as_u64().map(|u| u as usize)
}

fn string_list(v: &Value) -> Option<Vec<String>> {
    match v {
        Value::Arr(items) => items
            .iter()
            .map(|i| i.as_str().map(str::to_string))
            .collect(),
        _ => None,
    }
}

fn parse_gates(line: usize, v: &Value) -> Result<Gates, WorkloadError> {
    let mut gates = Gates::default();
    let Value::Obj(entries) = v else {
        return err(line, "`gates` must be an object");
    };
    for (key, val) in entries {
        match key.as_str() {
            "max_trial_us" => match val.as_u64() {
                Some(us) => gates.max_trial_us = Some(us),
                None => return err(line, "`max_trial_us` must be a non-negative integer"),
            },
            "min_speedup" => {
                let (Some(engine), Some(baseline), Some(value)) = (
                    val.get("engine").and_then(Value::as_str),
                    val.get("baseline").and_then(Value::as_str),
                    val.get("value").and_then(Value::as_f64),
                ) else {
                    return err(
                        line,
                        "`min_speedup` needs string `engine`/`baseline` and numeric `value`",
                    );
                };
                let tasks = match val.get("tasks") {
                    None => Vec::new(),
                    Some(t) => match string_list(t) {
                        Some(list) => list,
                        None => return err(line, "`min_speedup.tasks` must be a string array"),
                    },
                };
                gates.min_speedup = Some(SpeedupGate {
                    engine: engine.to_string(),
                    baseline: baseline.to_string(),
                    value,
                    tasks,
                });
            }
            other => return err(line, format!("unknown gate `{other}`")),
        }
    }
    Ok(gates)
}

fn parse_task(line: usize, v: &Value, base_dir: Option<&Path>) -> Result<Task, WorkloadError> {
    let Some(id) = v.get("task").and_then(Value::as_str) else {
        return err(line, "task lines need a string `task` id");
    };
    let kb_source = match (v.get("kb"), v.get("kb_path")) {
        (Some(kb), None) => match kb.as_str() {
            Some(s) => s.to_string(),
            None => return err(line, "`kb` must be a string"),
        },
        (None, Some(p)) => {
            let Some(rel) = p.as_str() else {
                return err(line, "`kb_path` must be a string");
            };
            let path = match base_dir {
                Some(dir) => dir.join(rel),
                None => Path::new(rel).to_path_buf(),
            };
            match std::fs::read_to_string(&path) {
                Ok(s) => s,
                Err(e) => return err(line, format!("cannot read `{}`: {e}", path.display())),
            }
        }
        (Some(_), Some(_)) => return err(line, "give `kb` or `kb_path`, not both"),
        (None, None) => return err(line, "task lines need `kb` or `kb_path`"),
    };
    let Some(query) = v.get("query").and_then(Value::as_str) else {
        return err(line, "task lines need a string `query`");
    };
    let expect = match v.get("expect") {
        None => None,
        Some(e) => match e.as_f64() {
            Some(x) => Some(x),
            None => return err(line, "`expect` must be a number"),
        },
    };
    let expect_kind =
        match v.get("expect_kind") {
            None => None,
            Some(k) => match k.as_str() {
                Some(s)
                    if matches!(
                        s,
                        "point" | "interval" | "non-robust" | "approximate" | "undefined"
                    ) =>
                {
                    Some(s.to_string())
                }
                _ => return err(
                    line,
                    "`expect_kind` must be point | interval | non-robust | approximate | undefined",
                ),
            },
        };
    let pin = |key: &str| -> Result<Option<usize>, WorkloadError> {
        match v.get(key) {
            None => Ok(None),
            Some(n) => match as_usize(n) {
                Some(u) => Ok(Some(u)),
                None => err(line, format!("`{key}` must be an unsigned integer")),
            },
        }
    };
    let scan = ScanParams {
        symmetry: false,
        min_n: pin("min_n")?,
        max_n: pin("max_n")?,
    };
    if let Err(e) = scan.validate() {
        return err(line, e);
    }
    Ok(Task {
        id: id.to_string(),
        kb_source,
        query: query.to_string(),
        expect,
        expect_kind,
        min_n: scan.min_n,
        max_n: scan.max_n,
    })
}

impl Workload {
    /// Parses workload JSONL source. `base_dir` resolves `kb_path`
    /// references (pass the workload file's directory).
    pub fn parse(src: &str, base_dir: Option<&Path>) -> Result<Workload, WorkloadError> {
        let mut name = String::from("workload");
        let mut description = String::new();
        let mut gates = Gates::default();
        let mut tasks: Vec<Task> = Vec::new();
        let mut saw_header = false;
        let mut saw_any = false;
        for (idx, raw) in src.lines().enumerate() {
            let line = raw.trim();
            if line.is_empty() || line.starts_with('#') {
                continue;
            }
            let n = idx + 1;
            let v = match Value::parse(line) {
                Ok(v) => v,
                Err(e) => return err(n, e.to_string()),
            };
            if v.get("workload").is_some() {
                if saw_header {
                    return err(n, "duplicate workload header");
                }
                if saw_any {
                    return err(n, "the workload header must be the first line");
                }
                saw_header = true;
                saw_any = true;
                name = match v.get("workload").and_then(Value::as_str) {
                    Some(s) => s.to_string(),
                    None => return err(n, "`workload` must be a string"),
                };
                if let Some(d) = v.get("description") {
                    match d.as_str() {
                        Some(s) => description = s.to_string(),
                        None => return err(n, "`description` must be a string"),
                    }
                }
                if let Some(g) = v.get("gates") {
                    gates = parse_gates(n, g)?;
                }
                continue;
            }
            saw_any = true;
            let task = parse_task(n, &v, base_dir)?;
            if tasks.iter().any(|t| t.id == task.id) {
                return err(n, format!("duplicate task id `{}`", task.id));
            }
            tasks.push(task);
        }
        if tasks.is_empty() {
            return err(1, "workload contains no tasks");
        }
        if let Some(gate) = &gates.min_speedup {
            for id in &gate.tasks {
                if !tasks.iter().any(|t| &t.id == id) {
                    return err(1, format!("`min_speedup` names unknown task `{id}`"));
                }
            }
        }
        Ok(Workload {
            name,
            description,
            gates,
            tasks,
        })
    }

    /// Loads a workload from a file, resolving `kb_path` references
    /// against the file's directory.
    pub fn load(path: &Path) -> Result<Workload, WorkloadError> {
        let src = std::fs::read_to_string(path).map_err(|e| WorkloadError {
            line: 0,
            message: format!("cannot read `{}`: {e}", path.display()),
        })?;
        Workload::parse(&src, path.parent())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_header_gates_and_tasks() {
        let w = Workload::parse(
            "# comment\n\
             {\"workload\":\"demo\",\"description\":\"d\",\"gates\":{\"max_trial_us\":5000000,\"min_speedup\":{\"engine\":\"compiled\",\"baseline\":\"oracle\",\"value\":5.0,\"tasks\":[\"a\"]}}}\n\
             {\"task\":\"a\",\"kb\":\"P(C)\",\"query\":\"P(C)\",\"expect\":1,\"min_n\":2,\"max_n\":4}\n",
            None,
        )
        .unwrap();
        assert_eq!(w.name, "demo");
        assert_eq!(w.gates.max_trial_us, Some(5_000_000));
        let gate = w.gates.min_speedup.as_ref().unwrap();
        assert_eq!(
            (gate.engine.as_str(), gate.baseline.as_str()),
            ("compiled", "oracle")
        );
        assert_eq!(w.tasks.len(), 1);
        assert_eq!(w.tasks[0].expect, Some(1.0));
        assert_eq!((w.tasks[0].min_n, w.tasks[0].max_n), (Some(2), Some(4)));
    }

    #[test]
    fn headerless_workloads_are_fine() {
        let w = Workload::parse(
            "{\"task\":\"a\",\"kb\":\"P(C)\",\"query\":\"P(C)\"}\n",
            None,
        )
        .unwrap();
        assert_eq!(w.name, "workload");
        assert_eq!(w.tasks.len(), 1);
    }

    #[test]
    fn duplicate_task_ids_are_rejected() {
        let e = Workload::parse(
            "{\"task\":\"a\",\"kb\":\"P(C)\",\"query\":\"P(C)\"}\n\
             {\"task\":\"a\",\"kb\":\"Q(C)\",\"query\":\"Q(C)\"}\n",
            None,
        )
        .unwrap_err();
        assert_eq!(e.line, 2);
        assert!(e.message.contains("duplicate"), "{}", e.message);
    }

    #[test]
    fn header_after_tasks_is_rejected() {
        let e = Workload::parse(
            "{\"task\":\"a\",\"kb\":\"P(C)\",\"query\":\"P(C)\"}\n{\"workload\":\"late\"}\n",
            None,
        )
        .unwrap_err();
        assert_eq!(e.line, 2);
    }

    #[test]
    fn speedup_gate_task_ids_are_validated() {
        let e = Workload::parse(
            "{\"workload\":\"w\",\"gates\":{\"min_speedup\":{\"engine\":\"compiled\",\"baseline\":\"oracle\",\"value\":2.0,\"tasks\":[\"ghost\"]}}}\n\
             {\"task\":\"a\",\"kb\":\"P(C)\",\"query\":\"P(C)\"}\n",
            None,
        )
        .unwrap_err();
        assert!(e.message.contains("ghost"), "{}", e.message);
    }

    #[test]
    fn empty_workloads_are_rejected() {
        assert!(Workload::parse("# nothing\n", None).is_err());
    }

    #[test]
    fn bad_scan_pins_are_rejected() {
        let e = Workload::parse(
            "{\"task\":\"a\",\"kb\":\"P(C)\",\"query\":\"P(C)\",\"min_n\":5,\"max_n\":3}\n",
            None,
        )
        .unwrap_err();
        assert!(e.message.contains("min_n"), "{}", e.message);
        // The window's bounds are the engine's: 2..=MAX_SCAN_N.
        for (pin, key) in [("\"max_n\":65", "max_n"), ("\"min_n\":1", "min_n")] {
            let e = Workload::parse(
                &format!("{{\"task\":\"a\",\"kb\":\"P(C)\",\"query\":\"P(C)\",{pin}}}\n"),
                None,
            )
            .unwrap_err();
            assert!(e.message.contains(key), "{}", e.message);
            assert!(e.message.contains("2..=64"), "{}", e.message);
        }
    }
}
