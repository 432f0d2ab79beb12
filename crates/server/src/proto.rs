//! The `rw-server` wire protocol: JSONL requests, typed and validated.
//!
//! Every request is one JSON object per line; every request gets exactly
//! one JSON object line back. Responses reuse the serving JSON of
//! [`crate::json`] for query results (so the server path is
//! byte-identical to `rwq query`/`batch` on the same engine), and carry
//! `{"ok":false,"error":...,"code":...}` for protocol-level failures —
//! a malformed line is answered with a structured error, never a
//! disconnect.
//!
//! The workspace builds offline with no external crates, so this module
//! includes a small recursive-descent JSON parser ([`Value::parse`])
//! with a recursion-depth cap: hostile input (unclosed nesting, huge
//! numbers, bad escapes) yields an `Err`, not a stack overflow.

use std::fmt;

// ---------------------------------------------------------------------
// JSON values
// ---------------------------------------------------------------------

/// A parsed JSON value. Integers without fraction/exponent are kept as
/// [`Value::Int`] so 64-bit ids (sampler seeds) survive exactly instead
/// of rounding through an `f64`.
#[derive(Clone, Debug, PartialEq)]
pub enum Value {
    /// `null`
    Null,
    /// `true` / `false`
    Bool(bool),
    /// An integer literal (no `.`/`e`), kept exact.
    Int(i128),
    /// Any other number.
    Float(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Value>),
    /// An object, in source order.
    Obj(Vec<(String, Value)>),
}

/// A JSON syntax error with its byte offset.
#[derive(Clone, Debug, PartialEq)]
pub struct JsonError {
    /// Byte offset of the failure in the input line.
    pub at: usize,
    /// What went wrong.
    pub message: String,
}

impl fmt::Display for JsonError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "invalid JSON at byte {}: {}", self.at, self.message)
    }
}

impl std::error::Error for JsonError {}

/// Nesting deeper than this is rejected: requests are flat, and the cap
/// turns a deliberately deep line into an error instead of a stack
/// overflow in the recursive parser.
const MAX_DEPTH: usize = 64;

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Parser<'a> {
    fn err<T>(&self, message: impl Into<String>) -> Result<T, JsonError> {
        Err(JsonError {
            at: self.pos,
            message: message.into(),
        })
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn bump(&mut self) -> Option<u8> {
        let b = self.peek();
        if b.is_some() {
            self.pos += 1;
        }
        b
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn expect(&mut self, b: u8) -> Result<(), JsonError> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            self.err(format!("expected `{}`", b as char))
        }
    }

    fn literal(&mut self, lit: &str, value: Value) -> Result<Value, JsonError> {
        if self.bytes[self.pos..].starts_with(lit.as_bytes()) {
            self.pos += lit.len();
            Ok(value)
        } else {
            self.err(format!("expected `{lit}`"))
        }
    }

    fn value(&mut self, depth: usize) -> Result<Value, JsonError> {
        if depth > MAX_DEPTH {
            return self.err(format!("nesting deeper than {MAX_DEPTH}"));
        }
        self.skip_ws();
        match self.peek() {
            Some(b'{') => self.object(depth),
            Some(b'[') => self.array(depth),
            Some(b'"') => Ok(Value::Str(self.string()?)),
            Some(b't') => self.literal("true", Value::Bool(true)),
            Some(b'f') => self.literal("false", Value::Bool(false)),
            Some(b'n') => self.literal("null", Value::Null),
            Some(b'-' | b'0'..=b'9') => self.number(),
            Some(c) => self.err(format!("unexpected `{}`", c as char)),
            None => self.err("unexpected end of input"),
        }
    }

    fn object(&mut self, depth: usize) -> Result<Value, JsonError> {
        self.expect(b'{')?;
        let mut entries = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Value::Obj(entries));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            let value = self.value(depth + 1)?;
            entries.push((key, value));
            self.skip_ws();
            match self.bump() {
                Some(b',') => continue,
                Some(b'}') => return Ok(Value::Obj(entries)),
                _ => {
                    self.pos = self.pos.saturating_sub(1);
                    return self.err("expected `,` or `}`");
                }
            }
        }
    }

    fn array(&mut self, depth: usize) -> Result<Value, JsonError> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Value::Arr(items));
        }
        loop {
            items.push(self.value(depth + 1)?);
            self.skip_ws();
            match self.bump() {
                Some(b',') => continue,
                Some(b']') => return Ok(Value::Arr(items)),
                _ => {
                    self.pos = self.pos.saturating_sub(1);
                    return self.err("expected `,` or `]`");
                }
            }
        }
    }

    fn string(&mut self) -> Result<String, JsonError> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            match self.bump() {
                None => return self.err("unterminated string"),
                Some(b'"') => return Ok(out),
                Some(b'\\') => match self.bump() {
                    Some(b'"') => out.push('"'),
                    Some(b'\\') => out.push('\\'),
                    Some(b'/') => out.push('/'),
                    Some(b'b') => out.push('\u{8}'),
                    Some(b'f') => out.push('\u{c}'),
                    Some(b'n') => out.push('\n'),
                    Some(b'r') => out.push('\r'),
                    Some(b't') => out.push('\t'),
                    Some(b'u') => {
                        let hi = self.hex4()?;
                        let c = if (0xD800..0xDC00).contains(&hi) {
                            // A leading surrogate must be followed by a
                            // `\uXXXX` trailing surrogate.
                            if self.bump() != Some(b'\\') || self.bump() != Some(b'u') {
                                return self.err("unpaired surrogate escape");
                            }
                            let lo = self.hex4()?;
                            if !(0xDC00..0xE000).contains(&lo) {
                                return self.err("invalid trailing surrogate");
                            }
                            let cp = 0x10000 + ((hi - 0xD800) << 10) + (lo - 0xDC00);
                            char::from_u32(cp)
                        } else {
                            char::from_u32(hi)
                        };
                        match c {
                            Some(c) => out.push(c),
                            None => return self.err("invalid unicode escape"),
                        }
                    }
                    _ => return self.err("invalid escape"),
                },
                Some(c) if c < 0x20 => return self.err("raw control character in string"),
                Some(c) => {
                    // Re-assemble UTF-8 multibyte sequences from the raw
                    // bytes (the input is a &str, so they are valid).
                    let start = self.pos - 1;
                    let len = match c {
                        0x00..=0x7F => 1,
                        0xC0..=0xDF => 2,
                        0xE0..=0xEF => 3,
                        _ => 4,
                    };
                    if start + len > self.bytes.len() {
                        return self.err("truncated UTF-8 sequence");
                    }
                    self.pos = start + len;
                    out.push_str(
                        std::str::from_utf8(&self.bytes[start..start + len]).map_err(|_| {
                            JsonError {
                                at: start,
                                message: "invalid UTF-8".to_string(),
                            }
                        })?,
                    );
                }
            }
        }
    }

    fn hex4(&mut self) -> Result<u32, JsonError> {
        let mut v = 0u32;
        for _ in 0..4 {
            let d = match self.bump() {
                Some(c @ b'0'..=b'9') => (c - b'0') as u32,
                Some(c @ b'a'..=b'f') => (c - b'a') as u32 + 10,
                Some(c @ b'A'..=b'F') => (c - b'A') as u32 + 10,
                _ => return self.err("expected 4 hex digits"),
            };
            v = v * 16 + d;
        }
        Ok(v)
    }

    fn number(&mut self) -> Result<Value, JsonError> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        let mut is_float = false;
        while let Some(c) = self.peek() {
            match c {
                b'0'..=b'9' => self.pos += 1,
                b'.' | b'e' | b'E' | b'+' | b'-' => {
                    is_float = true;
                    self.pos += 1;
                }
                _ => break,
            }
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos]).expect("ASCII");
        if !is_float {
            if let Ok(i) = text.parse::<i128>() {
                return Ok(Value::Int(i));
            }
        }
        match text.parse::<f64>() {
            Ok(f) if f.is_finite() => Ok(Value::Float(f)),
            _ => {
                self.pos = start;
                self.err(format!("invalid number `{text}`"))
            }
        }
    }
}

impl Value {
    /// Parses one complete JSON value; trailing non-whitespace is an
    /// error (the protocol is strictly one value per line).
    pub fn parse(s: &str) -> Result<Value, JsonError> {
        let mut p = Parser {
            bytes: s.as_bytes(),
            pos: 0,
        };
        let v = p.value(0)?;
        p.skip_ws();
        if p.pos != p.bytes.len() {
            return p.err("trailing characters after the JSON value");
        }
        Ok(v)
    }

    /// Looks up a key in an object value.
    pub fn get(&self, key: &str) -> Option<&Value> {
        match self {
            Value::Obj(entries) => entries.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The string payload, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The exact unsigned integer payload, if this is one.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Value::Int(i) => u64::try_from(*i).ok(),
            _ => None,
        }
    }

    /// The numeric payload as `f64` (integers convert).
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Value::Int(i) => Some(*i as f64),
            Value::Float(f) => Some(*f),
            _ => None,
        }
    }

    /// The boolean payload, if this is one.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Value::Bool(b) => Some(*b),
            _ => None,
        }
    }
}

// ---------------------------------------------------------------------
// Protocol errors
// ---------------------------------------------------------------------

/// Machine-readable failure classes carried in the `"code"` field of an
/// `{"ok":false,...}` response.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ErrorCode {
    /// The line was not a valid request (bad JSON, missing fields, bad
    /// types, unknown op).
    BadRequest,
    /// The named KB is not loaded.
    UnknownKb,
    /// The KB failed to load (unreadable path or parse error).
    LoadFailed,
    /// The admission queue is full; retry later.
    Overloaded,
    /// The server is shutting down; do not retry here, fail over.
    ShuttingDown,
}

impl ErrorCode {
    /// The stable wire keyword.
    pub fn keyword(&self) -> &'static str {
        match self {
            ErrorCode::BadRequest => "bad-request",
            ErrorCode::UnknownKb => "unknown-kb",
            ErrorCode::LoadFailed => "load-failed",
            ErrorCode::Overloaded => "overloaded",
            ErrorCode::ShuttingDown => "shutting-down",
        }
    }
}

/// A protocol-level failure: rendered as one structured JSONL error
/// response, never a disconnect.
#[derive(Clone, Debug, PartialEq)]
pub struct ProtoError {
    /// The failure class.
    pub code: ErrorCode,
    /// Human-readable detail.
    pub message: String,
}

impl ProtoError {
    /// A [`ErrorCode::BadRequest`] error.
    pub fn bad_request(message: impl Into<String>) -> ProtoError {
        ProtoError {
            code: ErrorCode::BadRequest,
            message: message.into(),
        }
    }

    /// The `{"ok":false,"error":...,"code":...}` response line.
    pub fn line(&self) -> String {
        format!(
            r#"{{"ok":false,"error":"{}","code":"{}"}}"#,
            crate::json::escape(&self.message),
            self.code.keyword()
        )
    }
}

impl fmt::Display for ProtoError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} ({})", self.message, self.code.keyword())
    }
}

impl std::error::Error for ProtoError {}

// ---------------------------------------------------------------------
// Requests
// ---------------------------------------------------------------------

/// Where a `load` request takes its KB statements from.
#[derive(Clone, Debug, PartialEq)]
pub enum KbSource {
    /// A server-side `.rwkb` file path.
    Path(String),
    /// Inline `.rwkb` source text.
    Text(String),
}

/// The per-KB options a `load` request carries: its `"approx"` object
/// and its `symmetry`/`min_n`/`max_n` fields. Defined, validated and
/// mapped to an engine in rw-core, beside `EngineConfig`.
pub use rw_core::{ApproxParams, ScanParams};

/// One parsed request line.
#[derive(Clone, Debug, PartialEq)]
pub enum Request {
    /// `{"op":"ping"}`: liveness check.
    Ping,
    /// `{"op":"load","kb":NAME,"path"|"text":...[,"approx":{...}]
    /// [,"symmetry":true][,"min_n":N][,"max_n":N]}`: load (or replace) a
    /// named KB.
    Load {
        /// Registry name for the KB.
        kb: String,
        /// Where the statements come from.
        source: KbSource,
        /// `Some` = answer non-theorem queries by Monte-Carlo sampling.
        approx: Option<ApproxParams>,
        /// Exact-counting mode and scan window.
        scan: ScanParams,
    },
    /// `{"op":"unload","kb":NAME}`: drop a named KB.
    Unload {
        /// Registry name.
        kb: String,
    },
    /// `{"op":"list"}`: enumerate loaded KBs.
    List,
    /// `{"op":"query","kb":NAME,"query":TEXT}`: answer one query.
    Query {
        /// Registry name of the loaded KB.
        kb: String,
        /// The `L≈` query text.
        query: String,
    },
    /// `{"op":"stats"}`: serving counters (cache, stages, queue, uptime).
    Stats,
    /// `{"op":"metrics"}`: the full observability-registry snapshot
    /// (counters, gauges, latency histograms with p50/p90/p99).
    Metrics,
    /// `{"op":"sleep","ms":N}`: a worker-occupying no-op, only honored
    /// when [`crate::ServerConfig::test_ops`] is set — exists so tests
    /// can fill the admission queue deterministically.
    Sleep {
        /// How long the worker holds the slot.
        ms: u64,
    },
    /// `{"op":"shutdown"}`: stop the server after responding.
    Shutdown,
}

fn required_str(v: &Value, key: &str, op: &str) -> Result<String, ProtoError> {
    match v.get(key) {
        Some(Value::Str(s)) if !s.is_empty() => Ok(s.clone()),
        Some(Value::Str(_)) => Err(ProtoError::bad_request(format!(
            "`{op}` requires a non-empty `{key}`"
        ))),
        Some(_) => Err(ProtoError::bad_request(format!(
            "`{op}` field `{key}` must be a string"
        ))),
        None => Err(ProtoError::bad_request(format!(
            "`{op}` requires a `{key}` field"
        ))),
    }
}

fn optional_u64(v: &Value, key: &str, ctx: &str) -> Result<Option<u64>, ProtoError> {
    match v.get(key) {
        None | Some(Value::Null) => Ok(None),
        Some(n) => n.as_u64().map(Some).ok_or_else(|| {
            ProtoError::bad_request(format!("{ctx} field `{key}` must be an unsigned integer"))
        }),
    }
}

fn parse_approx(v: &Value) -> Result<Option<ApproxParams>, ProtoError> {
    let approx = match v.get("approx") {
        None | Some(Value::Null) | Some(Value::Bool(false)) => return Ok(None),
        // `"approx":true` = sampling with all-default knobs.
        Some(Value::Bool(true)) => return Ok(Some(ApproxParams::default())),
        Some(obj @ Value::Obj(_)) => obj,
        Some(_) => {
            return Err(ProtoError::bad_request(
                "`load` field `approx` must be an object or boolean",
            ))
        }
    };
    let samples = optional_u64(approx, "samples", "`approx`")?;
    let seed = optional_u64(approx, "seed", "`approx`")?;
    let ci = match approx.get("ci") {
        None | Some(Value::Null) => None,
        Some(n) => Some(n.as_f64().ok_or_else(|| {
            ProtoError::bad_request("`approx.ci` must be a half-width in (0, 0.5)")
        })?),
    };
    let params = ApproxParams { samples, seed, ci };
    params.validate().map_err(load_range_error)?;
    Ok(Some(params))
}

/// Parses and validates the `symmetry`/`min_n`/`max_n` knobs of a `load`
/// request; a snapshot's registry entries carry the same fields and are
/// restored through it too.
pub(crate) fn parse_scan(v: &Value) -> Result<ScanParams, ProtoError> {
    let symmetry = match v.get("symmetry") {
        None | Some(Value::Null) => false,
        Some(Value::Bool(b)) => *b,
        Some(_) => {
            return Err(ProtoError::bad_request(
                "`load` field `symmetry` must be a boolean",
            ))
        }
    };
    let window = |key: &str| -> Result<Option<usize>, ProtoError> {
        Ok(optional_u64(v, key, "`load`")?.map(|n| usize::try_from(n).unwrap_or(usize::MAX)))
    };
    let scan = ScanParams {
        symmetry,
        min_n: window("min_n")?,
        max_n: window("max_n")?,
    };
    scan.validate().map_err(load_range_error)?;
    Ok(scan)
}

/// A `load` option outside its range, as rw-core's validators word it.
fn load_range_error(message: String) -> ProtoError {
    ProtoError::bad_request(format!("`load` option {message}"))
}

/// Parses one request line. Anything that is not a well-formed, typed
/// request yields a [`ProtoError`] (rendered to the client as a
/// structured error response).
pub fn parse_request(line: &str) -> Result<Request, ProtoError> {
    let v = Value::parse(line.trim())
        .map_err(|e| ProtoError::bad_request(format!("not a JSON request: {e}")))?;
    if !matches!(v, Value::Obj(_)) {
        return Err(ProtoError::bad_request(
            "a request must be a JSON object with an `op` field",
        ));
    }
    let op = required_str(&v, "op", "request")?;
    match op.as_str() {
        "ping" => Ok(Request::Ping),
        "list" => Ok(Request::List),
        "stats" => Ok(Request::Stats),
        "metrics" => Ok(Request::Metrics),
        "shutdown" => Ok(Request::Shutdown),
        "sleep" => {
            let ms = optional_u64(&v, "ms", "`sleep`")?
                .ok_or_else(|| ProtoError::bad_request("`sleep` requires an `ms` field"))?;
            Ok(Request::Sleep { ms })
        }
        "unload" => Ok(Request::Unload {
            kb: required_str(&v, "kb", "unload")?,
        }),
        "query" => Ok(Request::Query {
            kb: required_str(&v, "kb", "query")?,
            query: required_str(&v, "query", "query")?,
        }),
        "load" => {
            let kb = required_str(&v, "kb", "load")?;
            let source = match (v.get("path"), v.get("text")) {
                (Some(_), Some(_)) => {
                    return Err(ProtoError::bad_request(
                        "`load` takes `path` or `text`, not both",
                    ))
                }
                (Some(_), None) => KbSource::Path(required_str(&v, "path", "load")?),
                (None, Some(_)) => KbSource::Text(required_str(&v, "text", "load")?),
                (None, None) => {
                    return Err(ProtoError::bad_request(
                        "`load` requires a `path` or `text` field",
                    ))
                }
            };
            Ok(Request::Load {
                kb,
                source,
                approx: parse_approx(&v)?,
                scan: parse_scan(&v)?,
            })
        }
        other => Err(ProtoError::bad_request(format!(
            "unknown op `{}` (expected ping|load|unload|list|query|stats|metrics|shutdown)",
            other
        ))),
    }
}

impl Request {
    /// The canonical wire form: parsing it back yields an equal request,
    /// and serializing again yields these exact bytes (the round-trip
    /// property the protocol test suite pins down).
    pub fn serialize(&self) -> String {
        use crate::json::escape;
        match self {
            Request::Ping => r#"{"op":"ping"}"#.to_string(),
            Request::List => r#"{"op":"list"}"#.to_string(),
            Request::Stats => r#"{"op":"stats"}"#.to_string(),
            Request::Metrics => r#"{"op":"metrics"}"#.to_string(),
            Request::Shutdown => r#"{"op":"shutdown"}"#.to_string(),
            Request::Sleep { ms } => format!(r#"{{"op":"sleep","ms":{ms}}}"#),
            Request::Unload { kb } => {
                format!(r#"{{"op":"unload","kb":"{}"}}"#, escape(kb))
            }
            Request::Query { kb, query } => format!(
                r#"{{"op":"query","kb":"{}","query":"{}"}}"#,
                escape(kb),
                escape(query)
            ),
            Request::Load {
                kb,
                source,
                approx,
                scan,
            } => {
                let mut out = format!(r#"{{"op":"load","kb":"{}""#, escape(kb));
                match source {
                    KbSource::Path(p) => out.push_str(&format!(r#","path":"{}""#, escape(p))),
                    KbSource::Text(t) => out.push_str(&format!(r#","text":"{}""#, escape(t))),
                }
                if let Some(a) = approx {
                    let mut fields = Vec::new();
                    if let Some(s) = a.samples {
                        fields.push(format!(r#""samples":{s}"#));
                    }
                    if let Some(s) = a.seed {
                        fields.push(format!(r#""seed":{s}"#));
                    }
                    if let Some(ci) = a.ci {
                        fields.push(format!(r#""ci":{ci}"#));
                    }
                    if fields.is_empty() {
                        out.push_str(r#","approx":true"#);
                    } else {
                        out.push_str(&format!(r#","approx":{{{}}}"#, fields.join(",")));
                    }
                }
                if scan.symmetry {
                    out.push_str(r#","symmetry":true"#);
                }
                if let Some(n) = scan.min_n {
                    out.push_str(&format!(r#","min_n":{n}"#));
                }
                if let Some(n) = scan.max_n {
                    out.push_str(&format!(r#","max_n":{n}"#));
                }
                out.push('}');
                out
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn values_parse() {
        assert_eq!(Value::parse("null").unwrap(), Value::Null);
        assert_eq!(Value::parse(" true ").unwrap(), Value::Bool(true));
        assert_eq!(Value::parse("-42").unwrap(), Value::Int(-42));
        assert_eq!(Value::parse("4.5").unwrap(), Value::Float(4.5));
        assert_eq!(Value::parse("2e3").unwrap(), Value::Float(2000.0));
        assert_eq!(
            Value::parse(r#""a\nbé😀""#).unwrap(),
            Value::Str("a\nbé😀".to_string())
        );
        assert_eq!(
            Value::parse(r#"[1, "x", {"k": null}]"#).unwrap(),
            Value::Arr(vec![
                Value::Int(1),
                Value::Str("x".to_string()),
                Value::Obj(vec![("k".to_string(), Value::Null)]),
            ])
        );
        // Exact 64-bit integers survive (no f64 rounding).
        assert_eq!(
            Value::parse("18446744073709551615").unwrap().as_u64(),
            Some(u64::MAX)
        );
    }

    #[test]
    fn malformed_values_error_rather_than_panic() {
        for bad in [
            "",
            "{",
            "[1,",
            r#"{"a"}"#,
            r#"{"a":}"#,
            "tru",
            r#""unterminated"#,
            r#""bad \q escape""#,
            r#""\ud83d alone""#,
            "1.2.3",
            "nan",
            "{} trailing",
            "\u{1}",
        ] {
            assert!(Value::parse(bad).is_err(), "{bad:?} should fail");
        }
        // Deep nesting is capped, not stack-overflowed.
        let deep = "[".repeat(10_000) + &"]".repeat(10_000);
        let err = Value::parse(&deep).unwrap_err();
        assert!(err.message.contains("nesting"), "{err}");
    }

    #[test]
    fn requests_parse_and_validate() {
        assert_eq!(parse_request(r#"{"op":"ping"}"#).unwrap(), Request::Ping);
        assert_eq!(
            parse_request(r#"{"op":"query","kb":"med","query":"Hep(Eric)"}"#).unwrap(),
            Request::Query {
                kb: "med".to_string(),
                query: "Hep(Eric)".to_string()
            }
        );
        let load = parse_request(
            r#"{"op":"load","kb":"m","text":"P(C)","approx":{"samples":512,"seed":7,"ci":0.05}}"#,
        )
        .unwrap();
        assert_eq!(
            load,
            Request::Load {
                kb: "m".to_string(),
                source: KbSource::Text("P(C)".to_string()),
                approx: Some(ApproxParams {
                    samples: Some(512),
                    seed: Some(7),
                    ci: Some(0.05),
                }),
                scan: ScanParams::default(),
            }
        );
        assert_eq!(
            parse_request(r#"{"op":"load","kb":"m","path":"kb.rwkb","approx":true}"#).unwrap(),
            Request::Load {
                kb: "m".to_string(),
                source: KbSource::Path("kb.rwkb".to_string()),
                approx: Some(ApproxParams::default()),
                scan: ScanParams::default(),
            }
        );
        assert_eq!(
            parse_request(
                r#"{"op":"load","kb":"m","text":"P(C)","symmetry":true,"min_n":4,"max_n":32}"#
            )
            .unwrap(),
            Request::Load {
                kb: "m".to_string(),
                source: KbSource::Text("P(C)".to_string()),
                approx: None,
                scan: ScanParams {
                    symmetry: true,
                    min_n: Some(4),
                    max_n: Some(32),
                },
            }
        );
    }

    #[test]
    fn scan_windows_are_validated() {
        for bad in [
            r#"{"op":"load","kb":"m","text":"P(C)","min_n":1}"#,
            r#"{"op":"load","kb":"m","text":"P(C)","max_n":65}"#,
            r#"{"op":"load","kb":"m","text":"P(C)","min_n":9,"max_n":8}"#,
            r#"{"op":"load","kb":"m","text":"P(C)","symmetry":"yes"}"#,
            r#"{"op":"load","kb":"m","text":"P(C)","max_n":-3}"#,
        ] {
            let err = parse_request(bad).unwrap_err();
            assert_eq!(err.code, ErrorCode::BadRequest, "{bad}");
        }
    }

    #[test]
    fn bad_requests_carry_the_bad_request_code() {
        for bad in [
            "not json",
            "[1,2]",
            r#"{"kb":"x"}"#,
            r#"{"op":"frobnicate"}"#,
            r#"{"op":"query","kb":"m"}"#,
            r#"{"op":"query","kb":"","query":"q"}"#,
            r#"{"op":"load","kb":"m"}"#,
            r#"{"op":"load","kb":"m","path":"a","text":"b"}"#,
            r#"{"op":"load","kb":"m","text":"P(C)","approx":{"ci":0.7}}"#,
            r#"{"op":"load","kb":"m","text":"P(C)","approx":{"samples":0}}"#,
            r#"{"op":"load","kb":"m","text":"P(C)","approx":{"seed":-1}}"#,
            r#"{"op":"sleep"}"#,
        ] {
            let err = parse_request(bad).unwrap_err();
            assert_eq!(err.code, ErrorCode::BadRequest, "{bad}");
            let line = err.line();
            assert!(line.starts_with(r#"{"ok":false,"error":""#), "{line}");
            assert!(line.ends_with(r#""code":"bad-request"}"#), "{line}");
        }
    }

    #[test]
    fn serialize_parse_serialize_is_identity() {
        let requests = vec![
            Request::Ping,
            Request::List,
            Request::Stats,
            Request::Metrics,
            Request::Shutdown,
            Request::Sleep { ms: 250 },
            Request::Unload {
                kb: "a \"quoted\" name".to_string(),
            },
            Request::Query {
                kb: "med".to_string(),
                query: "||Hep(x) | Jaun(x)||_x ~=_1 0.8".to_string(),
            },
            Request::Load {
                kb: "m".to_string(),
                source: KbSource::Text("P(C); Q(C)\nR(C)".to_string()),
                approx: Some(ApproxParams {
                    samples: Some(u64::MAX),
                    seed: Some(12345),
                    ci: Some(0.125),
                }),
                scan: ScanParams::default(),
            },
            Request::Load {
                kb: "deep".to_string(),
                source: KbSource::Path("kb.rwkb".to_string()),
                approx: None,
                scan: ScanParams {
                    symmetry: true,
                    min_n: Some(2),
                    max_n: Some(40),
                },
            },
        ];
        for r in requests {
            let wire = r.serialize();
            let back = parse_request(&wire).unwrap();
            assert_eq!(back, r, "{wire}");
            assert_eq!(back.serialize(), wire);
        }
    }
}
