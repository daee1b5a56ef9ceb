//! Schema validation for emitted Chrome trace-event JSON.
//!
//! The workspace has a JSON *emitter* (`lorafusion-bench`) but no
//! parser, so this module carries a minimal recursive-descent one —
//! just enough to load a trace file back and check the invariants
//! Perfetto relies on: every event has a `ph`; `"X"` events carry
//! `name`/`ts`/`dur`/`pid`/`tid` with non-negative durations; `"C"`
//! events carry a numeric `args` value; metadata events name a
//! process or thread. `scripts/ci.sh` gates on this via the
//! `trace_validate` binary.

use std::collections::BTreeSet;
use std::path::Path;

#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    Null,
    Bool(bool),
    Num(f64),
    Str(String),
    Arr(Vec<Value>),
    Obj(Vec<(String, Value)>),
}

impl Value {
    pub fn get(&self, key: &str) -> Option<&Value> {
        match self {
            Value::Obj(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s),
            _ => None,
        }
    }
    pub fn as_num(&self) -> Option<f64> {
        match self {
            Value::Num(n) => Some(*n),
            _ => None,
        }
    }
    pub fn as_arr(&self) -> Option<&[Value]> {
        match self {
            Value::Arr(items) => Some(items),
            _ => None,
        }
    }
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Parser<'a> {
    fn new(text: &'a str) -> Self {
        Parser {
            bytes: text.as_bytes(),
            pos: 0,
        }
    }

    fn err(&self, msg: &str) -> String {
        format!("json parse error at byte {}: {msg}", self.pos)
    }

    fn skip_ws(&mut self) {
        while let Some(&b) = self.bytes.get(self.pos) {
            if b == b' ' || b == b'\t' || b == b'\n' || b == b'\r' {
                self.pos += 1;
            } else {
                break;
            }
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn eat(&mut self, expected: u8) -> Result<(), String> {
        if self.peek() == Some(expected) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.err(&format!("expected {:?}", expected as char)))
        }
    }

    fn eat_literal(&mut self, lit: &str) -> Result<(), String> {
        if self.bytes[self.pos..].starts_with(lit.as_bytes()) {
            self.pos += lit.len();
            Ok(())
        } else {
            Err(self.err(&format!("expected literal {lit:?}")))
        }
    }

    fn value(&mut self) -> Result<Value, String> {
        self.skip_ws();
        match self.peek() {
            Some(b'{') => self.object(),
            Some(b'[') => self.array(),
            Some(b'"') => Ok(Value::Str(self.string()?)),
            Some(b'n') => self.eat_literal("null").map(|_| Value::Null),
            Some(b't') => self.eat_literal("true").map(|_| Value::Bool(true)),
            Some(b'f') => self.eat_literal("false").map(|_| Value::Bool(false)),
            Some(b'-' | b'0'..=b'9') => self.number(),
            _ => Err(self.err("expected a value")),
        }
    }

    fn object(&mut self) -> Result<Value, String> {
        self.eat(b'{')?;
        let mut fields = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Value::Obj(fields));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.eat(b':')?;
            let value = self.value()?;
            fields.push((key, value));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Value::Obj(fields));
                }
                _ => return Err(self.err("expected ',' or '}' in object")),
            }
        }
    }

    fn array(&mut self) -> Result<Value, String> {
        self.eat(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Value::Arr(items));
        }
        loop {
            items.push(self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Value::Arr(items));
                }
                _ => return Err(self.err("expected ',' or ']' in array")),
            }
        }
    }

    fn string(&mut self) -> Result<String, String> {
        self.eat(b'"')?;
        let mut out = String::new();
        loop {
            match self.peek() {
                None => return Err(self.err("unterminated string")),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    match self.peek() {
                        Some(b'"') => out.push('"'),
                        Some(b'\\') => out.push('\\'),
                        Some(b'/') => out.push('/'),
                        Some(b'b') => out.push('\u{8}'),
                        Some(b'f') => out.push('\u{c}'),
                        Some(b'n') => out.push('\n'),
                        Some(b'r') => out.push('\r'),
                        Some(b't') => out.push('\t'),
                        Some(b'u') => {
                            self.pos += 1;
                            let cp = self.hex4()?;
                            // Surrogate pairs: best effort; lone
                            // surrogates become the replacement char.
                            let c = if (0xD800..0xDC00).contains(&cp) {
                                if self.bytes[self.pos..].starts_with(b"\\u") {
                                    self.pos += 2;
                                    let low = self.hex4()?;
                                    let combined = 0x10000 + ((cp - 0xD800) << 10) + (low - 0xDC00);
                                    char::from_u32(combined).unwrap_or('\u{FFFD}')
                                } else {
                                    '\u{FFFD}'
                                }
                            } else {
                                char::from_u32(cp).unwrap_or('\u{FFFD}')
                            };
                            out.push(c);
                            continue;
                        }
                        _ => return Err(self.err("bad escape")),
                    }
                    self.pos += 1;
                }
                Some(_) => {
                    // Consume one UTF-8 scalar (input is a &str, so
                    // boundaries are valid).
                    let rest = &self.bytes[self.pos..];
                    let s = std::str::from_utf8(rest).map_err(|_| self.err("invalid utf-8"))?;
                    let c = s.chars().next().unwrap();
                    out.push(c);
                    self.pos += c.len_utf8();
                }
            }
        }
    }

    fn hex4(&mut self) -> Result<u32, String> {
        let end = self.pos + 4;
        let hex = self
            .bytes
            .get(self.pos..end)
            .ok_or_else(|| self.err("truncated \\u escape"))?;
        let s = std::str::from_utf8(hex).map_err(|_| self.err("bad \\u escape"))?;
        let cp = u32::from_str_radix(s, 16).map_err(|_| self.err("bad \\u escape"))?;
        self.pos = end;
        Ok(cp)
    }

    fn number(&mut self) -> Result<Value, String> {
        let start = self.pos;
        while let Some(b) = self.peek() {
            if b.is_ascii_digit() || matches!(b, b'-' | b'+' | b'.' | b'e' | b'E') {
                self.pos += 1;
            } else {
                break;
            }
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos]).unwrap();
        text.parse::<f64>()
            .map(Value::Num)
            .map_err(|_| self.err(&format!("bad number {text:?}")))
    }
}

/// Parse a JSON document.
pub fn parse_json(text: &str) -> Result<Value, String> {
    let mut parser = Parser::new(text);
    let value = parser.value()?;
    parser.skip_ws();
    if parser.pos != parser.bytes.len() {
        return Err(parser.err("trailing garbage after document"));
    }
    Ok(value)
}

/// Summary of a validated trace file.
#[derive(Debug, Clone, Default)]
pub struct TraceStats {
    pub events: usize,
    pub complete_events: usize,
    pub counter_events: usize,
    pub meta_events: usize,
    /// Complete events with `cat == "idle"` (simulated bubbles).
    pub idle_events: usize,
    /// Complete events with `cat == "sim"` (simulated kernels).
    pub sim_kernel_events: usize,
    /// Distinct counter-track names.
    pub counter_tracks: usize,
    /// The counter-track names themselves, so gates can require a
    /// *specific* counter (e.g. `scheduler.repack.cold_solves`) made it
    /// into the export, not just "some counters".
    pub counter_names: BTreeSet<String>,
    pub pids: BTreeSet<u64>,
    /// Distinct `(pid, tid)` tracks carrying complete events.
    pub tids: BTreeSet<(u64, u64)>,
}

fn require_num(event: &Value, key: &str, index: usize) -> Result<f64, String> {
    event
        .get(key)
        .and_then(Value::as_num)
        .ok_or_else(|| format!("event {index}: missing or non-numeric {key:?}"))
}

fn require_str<'a>(event: &'a Value, key: &str, index: usize) -> Result<&'a str, String> {
    event
        .get(key)
        .and_then(Value::as_str)
        .ok_or_else(|| format!("event {index}: missing or non-string {key:?}"))
}

/// Validate a trace-event JSON document against the Chrome schema
/// subset Perfetto needs. Accepts both the `{"traceEvents": [...]}`
/// wrapper and a bare top-level array.
pub fn validate_trace_str(text: &str) -> Result<TraceStats, String> {
    let doc = parse_json(text)?;
    let events = match &doc {
        Value::Arr(_) => &doc,
        Value::Obj(_) => doc
            .get("traceEvents")
            .ok_or("top-level object lacks \"traceEvents\"")?,
        _ => return Err("top level must be an object or array".into()),
    };
    let events = events.as_arr().ok_or("\"traceEvents\" must be an array")?;

    let mut stats = TraceStats::default();
    for (index, event) in events.iter().enumerate() {
        if !matches!(event, Value::Obj(_)) {
            return Err(format!("event {index}: not an object"));
        }
        stats.events += 1;
        let ph = require_str(event, "ph", index)?;
        match ph {
            "X" => {
                require_str(event, "name", index)?;
                require_num(event, "ts", index)?;
                let dur = require_num(event, "dur", index)?;
                if dur < 0.0 {
                    return Err(format!("event {index}: negative dur {dur}"));
                }
                let pid = require_num(event, "pid", index)? as u64;
                let tid = require_num(event, "tid", index)? as u64;
                stats.pids.insert(pid);
                stats.tids.insert((pid, tid));
                stats.complete_events += 1;
                match event.get("cat").and_then(Value::as_str) {
                    Some("idle") => stats.idle_events += 1,
                    Some("sim") => stats.sim_kernel_events += 1,
                    _ => {}
                }
            }
            "C" => {
                let name = require_str(event, "name", index)?;
                crate::label::check_labeled_name(name)
                    .map_err(|e| format!("event {index}: counter name {name:?}: {e}"))?;
                require_num(event, "ts", index)?;
                let pid = require_num(event, "pid", index)? as u64;
                stats.pids.insert(pid);
                let args = event
                    .get("args")
                    .ok_or_else(|| format!("event {index}: counter lacks args"))?;
                let ok = matches!(args, Value::Obj(fields)
                    if !fields.is_empty() && fields.iter().all(|(_, v)| v.as_num().is_some()));
                if !ok {
                    return Err(format!("event {index}: counter args must be numeric"));
                }
                stats.counter_names.insert(name.to_owned());
                stats.counter_events += 1;
            }
            "M" => {
                let name = require_str(event, "name", index)?;
                if name == "process_name" || name == "thread_name" {
                    let args = event.get("args").and_then(|a| a.get("name"));
                    if args.and_then(Value::as_str).is_none() {
                        return Err(format!("event {index}: metadata {name:?} lacks args.name"));
                    }
                }
                stats.meta_events += 1;
            }
            _ => {
                // Other phases (B/E/i/s/f/...) are legal Chrome events
                // we simply don't emit; count them but don't reject.
            }
        }
    }
    stats.counter_tracks = stats.counter_names.len();
    Ok(stats)
}

/// Validate the trace file at `path`.
pub fn validate_trace_file(path: &Path) -> Result<TraceStats, String> {
    let text =
        std::fs::read_to_string(path).map_err(|e| format!("read {}: {e}", path.display()))?;
    validate_trace_str(&text)
}

/// Summary of a validated `*.metrics.json` snapshot.
#[derive(Debug, Clone, Default)]
pub struct MetricsStats {
    /// Scalar (counter/gauge) metric names.
    pub scalar_names: BTreeSet<String>,
    /// Histogram metric names.
    pub histogram_names: BTreeSet<String>,
}

/// Validate a metrics snapshot (`<trace stem>.metrics.json`) emitted by
/// `lorafusion-bench`'s reporter: a single object mapping metric names
/// to either a number (counter/gauge) or a histogram object
/// `{total, p50, p95, p99, buckets: [[bound, count], ...]}` with
/// strictly ascending bounds and `total == sum(counts)`. Every name
/// must satisfy the labeled-metric grammar
/// ([`crate::label::check_labeled_name`]).
pub fn validate_metrics_str(text: &str) -> Result<MetricsStats, String> {
    let doc = parse_json(text)?;
    let Value::Obj(fields) = &doc else {
        return Err("metrics snapshot: top level must be an object".into());
    };
    let mut stats = MetricsStats::default();
    for (name, value) in fields {
        crate::label::check_labeled_name(name).map_err(|e| format!("metric name {name:?}: {e}"))?;
        match value {
            Value::Num(_) => {
                stats.scalar_names.insert(name.clone());
            }
            Value::Obj(_) => {
                let total = value
                    .get("total")
                    .and_then(Value::as_num)
                    .ok_or_else(|| format!("histogram {name:?}: missing numeric \"total\""))?;
                for q in ["p50", "p95", "p99"] {
                    if value.get(q).is_some_and(|v| v.as_num().is_none()) {
                        return Err(format!("histogram {name:?}: non-numeric {q:?}"));
                    }
                }
                let buckets = value
                    .get("buckets")
                    .and_then(Value::as_arr)
                    .ok_or_else(|| format!("histogram {name:?}: missing \"buckets\" array"))?;
                let mut sum = 0.0;
                let mut prev_bound = -1.0;
                for (i, b) in buckets.iter().enumerate() {
                    let pair = b.as_arr().filter(|p| p.len() == 2).ok_or_else(|| {
                        format!("histogram {name:?}: bucket {i} is not a [bound, count] pair")
                    })?;
                    let bound = pair[0]
                        .as_num()
                        .ok_or_else(|| format!("histogram {name:?}: bucket {i} bound"))?;
                    let count = pair[1]
                        .as_num()
                        .ok_or_else(|| format!("histogram {name:?}: bucket {i} count"))?;
                    if bound <= prev_bound {
                        return Err(format!(
                            "histogram {name:?}: bucket bounds must be strictly ascending \
                             (bucket {i}: {bound} after {prev_bound})"
                        ));
                    }
                    if count < 0.0 {
                        return Err(format!("histogram {name:?}: negative count at bucket {i}"));
                    }
                    prev_bound = bound;
                    sum += count;
                }
                if sum != total {
                    return Err(format!(
                        "histogram {name:?}: total {total} != bucket sum {sum}"
                    ));
                }
                stats.histogram_names.insert(name.clone());
            }
            _ => {
                return Err(format!(
                    "metric {name:?}: value must be a number or a histogram object"
                ));
            }
        }
    }
    Ok(stats)
}

/// Validate the metrics snapshot at `path`.
pub fn validate_metrics_file(path: &Path) -> Result<MetricsStats, String> {
    let text =
        std::fs::read_to_string(path).map_err(|e| format!("read {}: {e}", path.display()))?;
    validate_metrics_str(&text)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parser_round_trips_basics() {
        let doc =
            parse_json(r#"{"a": [1, -2.5e3, true, false, null], "b": {"c": "x\n\"Aé"}}"#).unwrap();
        assert_eq!(
            doc.get("a").unwrap().as_arr().unwrap()[1].as_num(),
            Some(-2500.0)
        );
        assert_eq!(
            doc.get("b").unwrap().get("c").unwrap().as_str(),
            Some("x\n\"Aé")
        );
        assert!(parse_json("{\"a\": 1,}").is_err());
        assert!(parse_json("[1, 2] trailing").is_err());
    }

    #[test]
    fn validates_wellformed_trace() {
        let text = r#"{"traceEvents":[
            {"ph":"M","pid":1,"tid":0,"name":"process_name","args":{"name":"cpu"}},
            {"ph":"X","name":"gemm","cat":"work","pid":1,"tid":1,"ts":0,"dur":10,"args":{"m":4}},
            {"ph":"X","name":"idle","cat":"idle","pid":2,"tid":1,"ts":10,"dur":5},
            {"ph":"X","name":"k1","cat":"sim","pid":2,"tid":1,"ts":0,"dur":10},
            {"ph":"C","name":"gemm.calls","pid":1,"tid":0,"ts":10,"args":{"value":3}}
        ]}"#;
        let stats = validate_trace_str(text).unwrap();
        assert_eq!(stats.events, 5);
        assert_eq!(stats.complete_events, 3);
        assert_eq!(stats.idle_events, 1);
        assert_eq!(stats.sim_kernel_events, 1);
        assert_eq!(stats.counter_tracks, 1);
        assert!(stats.counter_names.contains("gemm.calls"));
        assert_eq!(stats.pids.len(), 2);
    }

    #[test]
    fn validates_metrics_snapshot() {
        let good = r#"{
            "gemm.calls": 12,
            "gemm.calls{class=small}": 9,
            "scheduler.event.padded_tokens{class=arrive}":
                {"total": 3, "p50": 128, "p95": 256, "p99": 256,
                 "buckets": [[128, 2], [256, 1]]}
        }"#;
        let stats = validate_metrics_str(good).unwrap();
        assert!(stats.scalar_names.contains("gemm.calls{class=small}"));
        assert!(stats
            .histogram_names
            .contains("scheduler.event.padded_tokens{class=arrive}"));

        let bad_total = r#"{"h": {"total": 5, "buckets": [[1, 1], [2, 1]]}}"#;
        assert!(validate_metrics_str(bad_total).is_err());
        let bad_bounds = r#"{"h": {"total": 2, "buckets": [[2, 1], [1, 1]]}}"#;
        assert!(validate_metrics_str(bad_bounds).is_err());
        let bad_name = r#"{"h{b=2,a=1}": 3}"#;
        assert!(validate_metrics_str(bad_name).is_err());
        assert!(validate_metrics_str("[1]").is_err());
    }

    #[test]
    fn counter_names_must_be_wellformed_labels() {
        let bad = r#"{"traceEvents":[
            {"ph":"C","name":"a{b=2,a=1}","pid":1,"tid":0,"ts":0,"args":{"value":1}}
        ]}"#;
        let err = validate_trace_str(bad).unwrap_err();
        assert!(err.contains("ascending"), "got: {err}");
        let good = r#"{"traceEvents":[
            {"ph":"C","name":"a{a=1,b=2}.p99","pid":1,"tid":0,"ts":0,"args":{"value":1}}
        ]}"#;
        assert!(validate_trace_str(good).is_ok());
    }

    #[test]
    fn rejects_malformed_events() {
        let missing_tid = r#"{"traceEvents":[{"ph":"X","name":"a","ts":0,"dur":1,"pid":1}]}"#;
        assert!(validate_trace_str(missing_tid).is_err());
        let negative_dur =
            r#"{"traceEvents":[{"ph":"X","name":"a","ts":0,"dur":-1,"pid":1,"tid":1}]}"#;
        assert!(validate_trace_str(negative_dur).is_err());
        let bad_counter = r#"{"traceEvents":[{"ph":"C","name":"c","ts":0,"pid":1,"args":{}}]}"#;
        assert!(validate_trace_str(bad_counter).is_err());
        assert!(validate_trace_str("not json").is_err());
    }
}
