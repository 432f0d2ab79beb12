//! Crash-safe, versioned on-disk snapshots of the serving state.
//!
//! `rwq serve --snapshot-dir DIR` persists two JSONL files:
//!
//! - **`registry.rwsnap`** — one entry per resident KB: its `.rwkb`
//!   source text, the canonical fingerprint recorded at load time, and
//!   the engine configuration (Monte-Carlo parameters, enumeration-scan
//!   pins) the KB was loaded with.
//! - **`cache.rwsnap`** — every [`AnswerCache`](rw_core::AnswerCache)
//!   entry (belief + provenance, floats as exact IEEE-754 bit patterns)
//!   and every [`DenomCache`](rw_core::DenomCache) world count.
//!
//! Each file is framed the same way: a header line
//! `{"rwsnap":2,"kind":...}` pinning the format version, one JSON
//! object per entry, and a trailing `{"checksum":...}` line carrying
//! the FNV-1a hash of every preceding byte. Writes go to a temp file
//! first and `rename(2)` into place, so a crash mid-checkpoint leaves
//! the previous snapshot intact rather than a half-written one.
//!
//! On startup [`load`] validates before it commits anything: headers,
//! version, checksum, entry syntax, and — the integrity check that
//! makes restores trustworthy — each stored KB text is re-parsed and
//! re-fingerprinted, and the recomputed fingerprint must equal the
//! recorded one. Any failure surfaces as a structured
//! [`SnapshotError`] (never a panic) and restores **nothing**: the
//! server falls back to a cold start. Restoring caches wholesale is
//! safe by construction because every cache key embeds the KB (and
//! engine-config) fingerprint — a stale or foreign entry can never be
//! served against a KB it was not computed for, the same invariant
//! that makes cross-node cache reuse sound.

use crate::proto::{ApproxParams, KbSource, ScanParams, Value};
use crate::registry::KbRegistry;
use rw_core::{Belief, CachedAnswer, DenomKey, Provenance, ScaledCount};
use rw_logic::canon::fnv1a;
use std::fmt;
use std::fs;
use std::path::Path;
use std::time::Instant;

/// The on-disk format version this build writes and accepts.
pub const SNAPSHOT_VERSION: i128 = 2;
/// The KB-registry snapshot file name inside the snapshot directory.
pub const REGISTRY_FILE: &str = "registry.rwsnap";
/// The cache-contents snapshot file name inside the snapshot directory.
pub const CACHE_FILE: &str = "cache.rwsnap";

/// Deepest [`Provenance::Independence`] / [`Provenance::OrRule`] nesting
/// an answer entry may carry. A deeper answer is *skipped* on save (a
/// snapshot is a cache — dropping an entry is always safe) so reload can
/// never hit the JSON parser's own depth cap.
const MAX_PROVENANCE_DEPTH: usize = 24;

/// Why a snapshot could not be saved or restored. Every variant is a
/// structured, printable rejection — corruption is reported, never
/// panicked on, and the caller falls back to a cold start.
#[derive(Debug)]
pub enum SnapshotError {
    /// The underlying filesystem operation failed.
    Io(std::io::Error),
    /// A file's first line is not a valid snapshot header.
    BadHeader {
        /// Which snapshot file (`"registry"` or `"cache"`).
        file: &'static str,
        /// What was wrong with the header line.
        message: String,
    },
    /// The header's `rwsnap` version is not [`SNAPSHOT_VERSION`].
    WrongVersion {
        /// Which snapshot file.
        file: &'static str,
        /// The version the file declares.
        found: i128,
    },
    /// The file ends without a checksum trailer — a write died midway.
    Truncated {
        /// Which snapshot file.
        file: &'static str,
    },
    /// The checksum trailer does not match the file's bytes.
    ChecksumMismatch {
        /// Which snapshot file.
        file: &'static str,
    },
    /// An entry line is syntactically or semantically invalid.
    Corrupt {
        /// Which snapshot file.
        file: &'static str,
        /// 1-based line number (0 when not attributable to a line).
        line: usize,
        /// What was wrong.
        message: String,
    },
    /// A stored KB re-parsed to a different canonical fingerprint than
    /// the one recorded at save time.
    FingerprintMismatch {
        /// The KB's registry name.
        kb: String,
        /// The fingerprint recorded in the snapshot.
        recorded: u64,
        /// The fingerprint the stored text actually hashes to.
        computed: u64,
    },
}

impl SnapshotError {
    /// A stable machine-readable keyword for the error class.
    pub fn code(&self) -> &'static str {
        match self {
            SnapshotError::Io(_) => "io",
            SnapshotError::BadHeader { .. } => "bad-header",
            SnapshotError::WrongVersion { .. } => "wrong-version",
            SnapshotError::Truncated { .. } => "truncated",
            SnapshotError::ChecksumMismatch { .. } => "checksum-mismatch",
            SnapshotError::Corrupt { .. } => "corrupt",
            SnapshotError::FingerprintMismatch { .. } => "fingerprint-mismatch",
        }
    }
}

impl fmt::Display for SnapshotError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SnapshotError::Io(e) => write!(f, "snapshot io error: {e}"),
            SnapshotError::BadHeader { file, message } => {
                write!(f, "{file} snapshot has a bad header: {message}")
            }
            SnapshotError::WrongVersion { file, found } => write!(
                f,
                "{file} snapshot is version {found}, this build reads {SNAPSHOT_VERSION}"
            ),
            SnapshotError::Truncated { file } => {
                write!(f, "{file} snapshot is truncated (no checksum trailer)")
            }
            SnapshotError::ChecksumMismatch { file } => {
                write!(f, "{file} snapshot fails its checksum")
            }
            SnapshotError::Corrupt {
                file,
                line,
                message,
            } => write!(f, "{file} snapshot line {line} is corrupt: {message}"),
            SnapshotError::FingerprintMismatch {
                kb,
                recorded,
                computed,
            } => write!(
                f,
                "KB `{kb}` fingerprint mismatch: snapshot records {recorded:016x}, \
                 stored text hashes to {computed:016x}"
            ),
        }
    }
}

impl From<std::io::Error> for SnapshotError {
    fn from(e: std::io::Error) -> SnapshotError {
        SnapshotError::Io(e)
    }
}

/// What a save wrote or a load restored.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct SnapshotStats {
    /// KBs persisted/restored.
    pub kbs: usize,
    /// Answer-cache entries persisted/restored.
    pub answers: usize,
    /// Denominator-cache entries persisted/restored.
    pub denoms: usize,
    /// Entries skipped on save (KBs without retained source text,
    /// answers whose provenance nests beyond the snapshot depth cap).
    pub skipped: usize,
}

impl SnapshotStats {
    /// The banner/stats JSON fragment for this save/load.
    pub fn json(&self) -> String {
        format!(
            r#"{{"kbs":{},"answers":{},"denoms":{},"skipped":{}}}"#,
            self.kbs, self.answers, self.denoms, self.skipped
        )
    }
}

/// Checkpoints the registry (KB sources + engine config) and both
/// caches into `dir`, atomically replacing any previous snapshot.
pub fn save(dir: &Path, registry: &KbRegistry) -> Result<SnapshotStats, SnapshotError> {
    let start = Instant::now();
    fs::create_dir_all(dir)?;
    let mut stats = SnapshotStats::default();

    let mut reg_body = header_line("registry");
    for kb in registry.snapshot_entries() {
        let Some(text) = &kb.source else {
            stats.skipped += 1;
            continue;
        };
        reg_body.push_str(&registry_entry_json(&kb, text));
        reg_body.push('\n');
        stats.kbs += 1;
    }
    seal(&mut reg_body);
    write_atomic(dir, REGISTRY_FILE, &reg_body)?;

    let mut cache_body = header_line("cache");
    for (key, answer) in registry.cache().export() {
        match answer_entry_json(&key, &answer) {
            Some(line) => {
                cache_body.push_str(&line);
                cache_body.push('\n');
                stats.answers += 1;
            }
            None => stats.skipped += 1,
        }
    }
    for (key, count) in registry.denoms().export() {
        cache_body.push_str(&denom_entry_json(&key, count));
        cache_body.push('\n');
        stats.denoms += 1;
    }
    seal(&mut cache_body);
    write_atomic(dir, CACHE_FILE, &cache_body)?;

    if rw_obs::enabled() {
        let reg = rw_obs::registry();
        reg.counter("snapshot.saves").inc();
        reg.histogram("snapshot.save_us")
            .record_us(start.elapsed().as_micros() as u64);
    }
    Ok(stats)
}

/// Restores a snapshot from `dir` into `registry`. `Ok(None)` means no
/// snapshot exists there (a fresh directory — cold start, not an
/// error). Validation is all-or-nothing: every KB text must re-parse to
/// its recorded fingerprint and every cache entry must decode *before*
/// anything is committed, so a rejected snapshot leaves the registry
/// exactly as cold as it found it.
pub fn load(dir: &Path, registry: &KbRegistry) -> Result<Option<SnapshotStats>, SnapshotError> {
    let outcome = load_inner(dir, registry);
    if rw_obs::enabled() {
        let reg = rw_obs::registry();
        match &outcome {
            Ok(Some(_)) => reg.counter("snapshot.loads").inc(),
            Ok(None) => {}
            Err(_) => reg.counter("snapshot.load_errors").inc(),
        }
    }
    outcome
}

fn load_inner(dir: &Path, registry: &KbRegistry) -> Result<Option<SnapshotStats>, SnapshotError> {
    let reg_path = dir.join(REGISTRY_FILE);
    if !reg_path.exists() {
        return Ok(None);
    }
    let reg_content = fs::read_to_string(&reg_path)?;
    let reg_lines = validate_frame("registry", &reg_content)?;

    struct StagedKb {
        name: String,
        text: String,
        approx: Option<ApproxParams>,
        scan: ScanParams,
    }
    let mut staged: Vec<StagedKb> = Vec::with_capacity(reg_lines.len());
    for (line, v) in &reg_lines {
        let corrupt = |message: String| SnapshotError::Corrupt {
            file: "registry",
            line: *line,
            message,
        };
        let name = get_str(v, "kb").map_err(&corrupt)?.to_string();
        let recorded =
            parse_hex_u64(get_str(v, "fingerprint").map_err(&corrupt)?).map_err(&corrupt)?;
        let text = get_str(v, "text").map_err(&corrupt)?.to_string();
        let approx = parse_approx(v).map_err(&corrupt)?;
        let scan = crate::proto::parse_scan(v).map_err(|e| corrupt(e.message))?;
        let kb = crate::format::parse_kb(&text)
            .map_err(|e| corrupt(format!("stored KB does not parse: {e}")))?;
        let computed = rw_logic::canon::kb_fingerprint(&kb);
        if computed != recorded {
            return Err(SnapshotError::FingerprintMismatch {
                kb: name,
                recorded,
                computed,
            });
        }
        staged.push(StagedKb {
            name,
            text,
            approx,
            scan,
        });
    }

    let mut answers: Vec<(String, CachedAnswer)> = Vec::new();
    let mut denoms: Vec<(DenomKey, ScaledCount)> = Vec::new();
    let cache_path = dir.join(CACHE_FILE);
    if cache_path.exists() {
        let cache_content = fs::read_to_string(&cache_path)?;
        for (line, v) in validate_frame("cache", &cache_content)? {
            let corrupt = |message: String| SnapshotError::Corrupt {
                file: "cache",
                line,
                message,
            };
            if let Some(a) = v.get("answer") {
                answers.push(parse_answer_entry(a).map_err(corrupt)?);
            } else if let Some(d) = v.get("denom") {
                denoms.push(parse_denom_entry(d).map_err(corrupt)?);
            } else {
                return Err(corrupt(
                    "entry is neither an answer nor a denom".to_string(),
                ));
            }
        }
    }

    // Everything validated — commit. Re-loading the staged text cannot
    // fail (it parsed above, and parsing is deterministic).
    let mut stats = SnapshotStats {
        answers: answers.len(),
        denoms: denoms.len(),
        ..SnapshotStats::default()
    };
    for kb in staged {
        registry
            .load(
                &kb.name,
                &KbSource::Text(kb.text),
                kb.approx.as_ref(),
                kb.scan,
            )
            .map_err(|e| SnapshotError::Corrupt {
                file: "registry",
                line: 0,
                message: e.message,
            })?;
        stats.kbs += 1;
    }
    registry.cache().restore(answers);
    registry.denoms().restore(denoms);
    Ok(Some(stats))
}

// ---------------------------------------------------------------------
// Framing: header line, checksum trailer, atomic replace.

fn header_line(kind: &str) -> String {
    format!("{{\"rwsnap\":{SNAPSHOT_VERSION},\"kind\":\"{kind}\"}}\n")
}

/// Appends the checksum trailer over everything written so far.
fn seal(body: &mut String) {
    let sum = fnv1a(body.as_bytes());
    body.push_str(&format!("{{\"checksum\":\"{sum:016x}\"}}\n"));
}

fn write_atomic(dir: &Path, name: &str, body: &str) -> Result<(), SnapshotError> {
    let tmp = dir.join(format!("{name}.tmp"));
    fs::write(&tmp, body)?;
    fs::rename(&tmp, dir.join(name))?;
    Ok(())
}

/// Checks header, version, kind, truncation and checksum, returning the
/// parsed entry lines as `(1-based line number, value)` pairs.
fn validate_frame(file: &'static str, content: &str) -> Result<Vec<(usize, Value)>, SnapshotError> {
    let Some((first, _)) = content.split_once('\n') else {
        return Err(SnapshotError::Truncated { file });
    };
    let header = Value::parse(first.trim()).map_err(|e| SnapshotError::BadHeader {
        file,
        message: e.to_string(),
    })?;
    let version = match header.get("rwsnap") {
        Some(Value::Int(v)) => *v,
        _ => {
            return Err(SnapshotError::BadHeader {
                file,
                message: "missing rwsnap version field".to_string(),
            })
        }
    };
    if version != SNAPSHOT_VERSION {
        return Err(SnapshotError::WrongVersion {
            file,
            found: version,
        });
    }
    if header.get("kind").and_then(Value::as_str) != Some(file) {
        return Err(SnapshotError::BadHeader {
            file,
            message: "kind field does not match the file".to_string(),
        });
    }
    if !content.ends_with('\n') {
        return Err(SnapshotError::Truncated { file });
    }
    let trimmed = &content[..content.len() - 1];
    let Some(last_nl) = trimmed.rfind('\n') else {
        // Only the header line exists: the trailer never made it out.
        return Err(SnapshotError::Truncated { file });
    };
    let (body, check_line) = trimmed.split_at(last_nl + 1);
    let expected = match Value::parse(check_line.trim()) {
        Ok(v) => match v.get("checksum").and_then(Value::as_str) {
            Some(hex) => parse_hex_u64(hex).map_err(|message| SnapshotError::Corrupt {
                file,
                line: 0,
                message,
            })?,
            None => return Err(SnapshotError::Truncated { file }),
        },
        Err(_) => return Err(SnapshotError::Truncated { file }),
    };
    if fnv1a(body.as_bytes()) != expected {
        return Err(SnapshotError::ChecksumMismatch { file });
    }
    let mut out = Vec::new();
    for (idx, line) in body.lines().enumerate().skip(1) {
        if line.trim().is_empty() {
            continue;
        }
        let v = Value::parse(line.trim()).map_err(|e| SnapshotError::Corrupt {
            file,
            line: idx + 1,
            message: e.to_string(),
        })?;
        out.push((idx + 1, v));
    }
    Ok(out)
}

// ---------------------------------------------------------------------
// Registry entries.

fn registry_entry_json(kb: &crate::registry::LoadedKb, text: &str) -> String {
    let approx = match &kb.approx_params {
        None => "null".to_string(),
        Some(a) => format!(
            r#"{{"samples":{},"seed":{},"ci":{}}}"#,
            opt_int(a.samples),
            opt_int(a.seed),
            a.ci.map_or("null".to_string(), |c| format!("\"{}\"", hex_f64(c))),
        ),
    };
    format!(
        r#"{{"kb":"{}","fingerprint":"{:016x}","text":"{}","approx":{},"symmetry":{},"min_n":{},"max_n":{}}}"#,
        crate::json::escape(&kb.name),
        kb.kb.fingerprint(),
        crate::json::escape(text),
        approx,
        kb.scan.symmetry,
        opt_int(kb.scan.min_n.map(|n| n as u64)),
        opt_int(kb.scan.max_n.map(|n| n as u64)),
    )
}

fn parse_approx(v: &Value) -> Result<Option<ApproxParams>, String> {
    let params = match v.get("approx") {
        None | Some(Value::Null) => return Ok(None),
        Some(a) => ApproxParams {
            samples: opt_u64_field(a, "samples")?,
            seed: opt_u64_field(a, "seed")?,
            ci: match a.get("ci") {
                None | Some(Value::Null) => None,
                Some(Value::Str(s)) => Some(parse_hex_f64(s)?),
                Some(_) => return Err("approx ci must be a bit-pattern string".to_string()),
            },
        },
    };
    params.validate()?;
    Ok(Some(params))
}

// ---------------------------------------------------------------------
// Cache entries: beliefs and provenance with exact float bit patterns.

fn answer_entry_json(key: &str, answer: &CachedAnswer) -> Option<String> {
    let prov = provenance_json(&answer.provenance, 0)?;
    Some(format!(
        r#"{{"answer":{{"key":"{}","belief":{},"prov":{}}}}}"#,
        crate::json::escape(key),
        belief_json(&answer.belief),
        prov
    ))
}

fn parse_answer_entry(v: &Value) -> Result<(String, CachedAnswer), String> {
    let key = get_str(v, "key")?.to_string();
    let belief = parse_belief(
        v.get("belief")
            .ok_or_else(|| "answer missing belief".to_string())?,
    )?;
    let provenance = parse_provenance(
        v.get("prov")
            .ok_or_else(|| "answer missing prov".to_string())?,
        0,
    )?;
    Ok((key, CachedAnswer { belief, provenance }))
}

fn belief_json(b: &Belief) -> String {
    match b {
        Belief::Point(v) => format!(r#"{{"t":"point","v":"{}"}}"#, hex_f64(*v)),
        Belief::Interval(lo, hi) => format!(
            r#"{{"t":"interval","lo":"{}","hi":"{}"}}"#,
            hex_f64(*lo),
            hex_f64(*hi)
        ),
        Belief::NonRobust(vs) => {
            let vs: Vec<String> = vs.iter().map(|v| format!("\"{}\"", hex_f64(*v))).collect();
            format!(r#"{{"t":"nonrobust","vs":[{}]}}"#, vs.join(","))
        }
        Belief::Approximate {
            value,
            ci_half_width,
        } => format!(
            r#"{{"t":"approx","v":"{}","ci":"{}"}}"#,
            hex_f64(*value),
            hex_f64(*ci_half_width)
        ),
        Belief::Undefined => r#"{"t":"undefined"}"#.to_string(),
    }
}

fn parse_belief(v: &Value) -> Result<Belief, String> {
    let field = |key: &str| -> Result<f64, String> { parse_hex_f64(get_str(v, key)?) };
    match get_str(v, "t")? {
        "point" => Ok(Belief::Point(field("v")?)),
        "interval" => Ok(Belief::Interval(field("lo")?, field("hi")?)),
        "nonrobust" => {
            let Some(Value::Arr(items)) = v.get("vs") else {
                return Err("nonrobust belief missing vs array".to_string());
            };
            let vs: Result<Vec<f64>, String> = items
                .iter()
                .map(|item| match item {
                    Value::Str(s) => parse_hex_f64(s),
                    _ => Err("nonrobust vs entries must be bit-pattern strings".to_string()),
                })
                .collect();
            Ok(Belief::NonRobust(vs?))
        }
        "approx" => Ok(Belief::Approximate {
            value: field("v")?,
            ci_half_width: field("ci")?,
        }),
        "undefined" => Ok(Belief::Undefined),
        other => Err(format!("unknown belief type `{other}`")),
    }
}

fn provenance_json(p: &Provenance, depth: usize) -> Option<String> {
    if depth > MAX_PROVENANCE_DEPTH {
        return None;
    }
    Some(match p {
        Provenance::DirectInference => r#"{"p":"direct"}"#.to_string(),
        Provenance::MinimalReferenceClass => r#"{"p":"minref"}"#.to_string(),
        Provenance::StrengthRule => r#"{"p":"strength"}"#.to_string(),
        Provenance::Dempster => r#"{"p":"dempster"}"#.to_string(),
        Provenance::Independence(parts) => parts_json("independence", parts, depth)?,
        Provenance::OrRule(parts) => parts_json("or", parts, depth)?,
        Provenance::UniqueNames => r#"{"p":"uniquenames"}"#.to_string(),
        Provenance::NestedDefault => r#"{"p":"nesteddefault"}"#.to_string(),
        Provenance::MaxEnt => r#"{"p":"maxent"}"#.to_string(),
        Provenance::Enumeration {
            max_n,
            visited,
            branched,
            orbits,
        } => format!(
            r#"{{"p":"enum","max_n":{max_n},"visited":{visited},"branched":{branched},"orbits":{orbits}}}"#
        ),
        Provenance::Entailed => r#"{"p":"entailed"}"#.to_string(),
        Provenance::MonteCarlo {
            drawn,
            accepted,
            n_points,
        } => format!(r#"{{"p":"mc","drawn":{drawn},"accepted":{accepted},"n_points":{n_points}}}"#),
    })
}

/// A compound provenance: `tag` with its parts one level deeper.
fn parts_json(tag: &str, parts: &[Box<Provenance>], depth: usize) -> Option<String> {
    let encoded: Option<Vec<_>> = parts
        .iter()
        .map(|p| provenance_json(p, depth + 1))
        .collect();
    Some(format!(
        r#"{{"p":"{tag}","parts":[{}]}}"#,
        encoded?.join(",")
    ))
}

fn parse_provenance(v: &Value, depth: usize) -> Result<Provenance, String> {
    if depth > MAX_PROVENANCE_DEPTH {
        return Err("provenance nests beyond the snapshot depth cap".to_string());
    }
    match get_str(v, "p")? {
        "direct" => Ok(Provenance::DirectInference),
        "minref" => Ok(Provenance::MinimalReferenceClass),
        "strength" => Ok(Provenance::StrengthRule),
        "dempster" => Ok(Provenance::Dempster),
        "independence" => parse_parts(v, depth, Provenance::Independence),
        "or" => parse_parts(v, depth, Provenance::OrRule),
        "uniquenames" => Ok(Provenance::UniqueNames),
        "nesteddefault" => Ok(Provenance::NestedDefault),
        "maxent" => Ok(Provenance::MaxEnt),
        "enum" => Ok(Provenance::Enumeration {
            max_n: get_usize(v, "max_n")?,
            visited: get_u64(v, "visited")?,
            branched: get_u64(v, "branched")?,
            orbits: get_u64(v, "orbits")?,
        }),
        "entailed" => Ok(Provenance::Entailed),
        "mc" => Ok(Provenance::MonteCarlo {
            drawn: get_u64(v, "drawn")?,
            accepted: get_u64(v, "accepted")?,
            n_points: get_usize(v, "n_points")?,
        }),
        other => Err(format!("unknown provenance `{other}`")),
    }
}

/// A compound provenance built by `make` from its parts, parsed one
/// level deeper.
fn parse_parts(
    v: &Value,
    depth: usize,
    make: fn(Vec<Box<Provenance>>) -> Provenance,
) -> Result<Provenance, String> {
    let Some(Value::Arr(items)) = v.get("parts") else {
        return Err("compound provenance missing parts".to_string());
    };
    let parts = items
        .iter()
        .map(|p| parse_provenance(p, depth + 1).map(Box::new));
    Ok(make(parts.collect::<Result<_, _>>()?))
}

fn denom_entry_json(key: &DenomKey, count: ScaledCount) -> String {
    format!(
        r#"{{"denom":{{"kb":"{:016x}","vocab":"{:016x}","n":{},"tau_num":{},"tau_den":{},"budget":{},"symmetry":{},"coeff":"{}","exp2":{}}}}}"#,
        key.kb_fingerprint,
        key.vocab_fingerprint,
        key.n,
        key.tau.0,
        key.tau.1,
        key.budget,
        key.symmetry,
        count.coeff,
        count.exp2
    )
}

fn parse_denom_entry(v: &Value) -> Result<(DenomKey, ScaledCount), String> {
    let key = DenomKey {
        kb_fingerprint: parse_hex_u64(get_str(v, "kb")?)?,
        vocab_fingerprint: parse_hex_u64(get_str(v, "vocab")?)?,
        n: get_usize(v, "n")?,
        tau: (get_i128(v, "tau_num")?, get_i128(v, "tau_den")?),
        budget: get_u64(v, "budget")?,
        symmetry: v
            .get("symmetry")
            .and_then(Value::as_bool)
            .ok_or_else(|| "denom missing symmetry".to_string())?,
    };
    let coeff: u128 = get_str(v, "coeff")?
        .parse()
        .map_err(|_| "denom coeff is not a u128".to_string())?;
    let exp2 = get_u64(v, "exp2")?;
    // `new` re-normalizes, reproducing the exported representation
    // exactly (exports are already normalized).
    Ok((key, ScaledCount::new(coeff, exp2)))
}

// ---------------------------------------------------------------------
// Field helpers.

fn hex_f64(v: f64) -> String {
    format!("{:016x}", v.to_bits())
}

fn parse_hex_f64(s: &str) -> Result<f64, String> {
    let bits = u64::from_str_radix(s, 16).map_err(|_| format!("bad f64 bit pattern `{s}`"))?;
    Ok(f64::from_bits(bits))
}

fn parse_hex_u64(s: &str) -> Result<u64, String> {
    u64::from_str_radix(s, 16).map_err(|_| format!("bad hex value `{s}`"))
}

fn opt_int(v: Option<u64>) -> String {
    v.map_or("null".to_string(), |n| n.to_string())
}

fn get_str<'a>(v: &'a Value, key: &str) -> Result<&'a str, String> {
    v.get(key)
        .and_then(Value::as_str)
        .ok_or_else(|| format!("missing string field `{key}`"))
}

fn get_u64(v: &Value, key: &str) -> Result<u64, String> {
    v.get(key)
        .and_then(Value::as_u64)
        .ok_or_else(|| format!("missing integer field `{key}`"))
}

fn get_usize(v: &Value, key: &str) -> Result<usize, String> {
    usize::try_from(get_u64(v, key)?).map_err(|_| format!("field `{key}` out of range"))
}

fn get_i128(v: &Value, key: &str) -> Result<i128, String> {
    match v.get(key) {
        Some(Value::Int(i)) => Ok(*i),
        _ => Err(format!("missing integer field `{key}`")),
    }
}

fn opt_u64_field(v: &Value, key: &str) -> Result<Option<u64>, String> {
    match v.get(key) {
        None | Some(Value::Null) => Ok(None),
        Some(Value::Int(_)) => Ok(Some(get_u64(v, key)?)),
        Some(_) => Err(format!("field `{key}` must be an integer or null")),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rw_core::AnswerCache;
    use std::sync::Arc;

    fn temp_dir(tag: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join(format!("rwsnap-test-{}-{tag}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        dir
    }

    fn warm_registry() -> KbRegistry {
        let reg = KbRegistry::new(Arc::new(AnswerCache::new()));
        reg.load(
            "med",
            &KbSource::Text("||Hep(x) | Jaun(x)||_x ~=_1 0.8; Jaun(Eric)".to_string()),
            None,
            ScanParams::default(),
        )
        .unwrap();
        let (line, ok) = reg.get("med").unwrap().answer_json_line("Hep(Eric)");
        assert!(ok, "{line}");
        reg
    }

    #[test]
    fn save_load_roundtrip_restores_kbs_and_cache() {
        let dir = temp_dir("roundtrip");
        let reg = warm_registry();
        let saved = save(&dir, &reg).unwrap();
        assert_eq!(saved.kbs, 1);
        assert!(saved.answers >= 1, "{saved:?}");

        let fresh = KbRegistry::new(Arc::new(AnswerCache::new()));
        let loaded = load(&dir, &fresh).unwrap().expect("snapshot present");
        assert_eq!(loaded.kbs, 1);
        assert_eq!(loaded.answers, saved.answers);
        // The restored KB answers warm: the first query is a cache hit.
        let (line, ok) = fresh.get("med").unwrap().answer_json_line("Hep(Eric)");
        assert!(ok, "{line}");
        assert!(line.contains(r#""cache_hit":true"#), "{line}");
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn or_rule_answers_survive_a_roundtrip() {
        let dir = temp_dir("or-rule");
        let reg = KbRegistry::new(Arc::new(AnswerCache::new()));
        let kb = "||Q(x) | P(x)||_x ~=_1 1; ||Q(x) | R(x)||_x ~=_2 1; P(C) or R(C)";
        reg.load(
            "or",
            &KbSource::Text(kb.to_string()),
            None,
            ScanParams::default(),
        )
        .unwrap();
        let provenance = r#""provenance":"Or rule (Thm 5.3) of [direct inference"#;
        let (line, ok) = reg.get("or").unwrap().answer_json_line("Q(C)");
        assert!(ok && line.contains(provenance), "{line}");
        save(&dir, &reg).unwrap();

        let fresh = KbRegistry::new(Arc::new(AnswerCache::new()));
        load(&dir, &fresh).unwrap().expect("snapshot present");
        let (warm, ok) = fresh.get("or").unwrap().answer_json_line("Q(C)");
        assert!(ok && warm.contains(r#""cache_hit":true"#), "{warm}");
        assert!(warm.contains(provenance), "{warm}");
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn missing_dir_is_a_clean_cold_start() {
        let dir = temp_dir("missing");
        let reg = KbRegistry::new(Arc::new(AnswerCache::new()));
        assert!(load(&dir, &reg).unwrap().is_none());
        assert!(reg.is_empty());
    }

    #[test]
    fn wrong_version_is_rejected_structurally() {
        let dir = temp_dir("version");
        let reg = warm_registry();
        save(&dir, &reg).unwrap();
        let path = dir.join(REGISTRY_FILE);
        let content = fs::read_to_string(&path).unwrap();
        let header = |v: i128| format!("{{\"rwsnap\":{v},");
        let skewed = content.replace(&header(SNAPSHOT_VERSION), &header(99));
        assert_ne!(skewed, content, "the header carries the version");
        fs::write(&path, skewed).unwrap();
        let fresh = KbRegistry::new(Arc::new(AnswerCache::new()));
        let err = load(&dir, &fresh).unwrap_err();
        assert_eq!(err.code(), "wrong-version");
        assert!(fresh.is_empty(), "rejected snapshot must not restore KBs");
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn fingerprint_tampering_is_rejected_before_commit() {
        let dir = temp_dir("fp");
        let reg = warm_registry();
        save(&dir, &reg).unwrap();
        let path = dir.join(REGISTRY_FILE);
        // Tamper with the recorded fingerprint, then re-seal so the
        // checksum passes and the fingerprint check itself must catch it.
        let content = fs::read_to_string(&path).unwrap();
        let fp = reg.get("med").unwrap().kb.fingerprint();
        let mut body: String = content
            .lines()
            .take(content.lines().count() - 1)
            .map(|l| format!("{l}\n"))
            .collect();
        body = body.replace(
            &format!("{fp:016x}"),
            &format!("{:016x}", fp.wrapping_add(1)),
        );
        seal(&mut body);
        fs::write(&path, body).unwrap();
        let fresh = KbRegistry::new(Arc::new(AnswerCache::new()));
        let err = load(&dir, &fresh).unwrap_err();
        assert_eq!(err.code(), "fingerprint-mismatch");
        assert!(fresh.is_empty());
        let _ = fs::remove_dir_all(&dir);
    }
}
