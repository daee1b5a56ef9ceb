//! The workspace's JSON codec: one value type, one emitter, one
//! escaper, one parser.
//!
//! The offline build cannot reach crates.io, so everything that leaves
//! the program as JSON (the `results/*.json` files, metrics snapshots,
//! the `bench_regress` and lint verdicts) is rendered from a [`Json`]
//! value here, and everything that comes back in (traces, snapshots,
//! baselines) is read by [`parse`]. The streaming Chrome exporter
//! ([`crate::chrome`]) writes events directly but quotes every string
//! through this module's escaper.
//!
//! Output follows RFC 8259: non-finite floats become `null`, strings
//! are escaped, and objects preserve field declaration order. The
//! parser is strict (no trailing commas, no missing commas, no raw
//! control characters in strings, JSON number grammar only), linear in
//! the input length, and returns `Err` rather than panicking on any
//! input: nesting deeper than a fixed limit is an error, not a stack
//! overflow, and an unpaired UTF-16 surrogate escape decodes to
//! U+FFFD.

use std::fmt::Write as _;

/// A JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    Null,
    Bool(bool),
    /// Finite numbers only; constructors map NaN/Inf to [`Json::Null`].
    Num(f64),
    Str(String),
    Arr(Vec<Json>),
    /// Ordered key-value pairs (declaration order, no deduplication).
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// Builds a number, mapping non-finite values to `null`.
    pub fn num(v: f64) -> Json {
        if v.is_finite() {
            Json::Num(v)
        } else {
            Json::Null
        }
    }

    /// Compact single-line rendering.
    pub fn compact(&self) -> String {
        let mut out = String::new();
        self.render(&mut out, None, 0);
        out
    }

    /// Pretty rendering with two-space indentation.
    pub fn pretty(&self) -> String {
        let mut out = String::new();
        self.render(&mut out, Some(2), 0);
        out.push('\n');
        out
    }

    /// The value of the first field named `key`, if this is an object.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    pub fn as_num(&self) -> Option<f64> {
        match self {
            Json::Num(n) => Some(*n),
            _ => None,
        }
    }

    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(items) => Some(items),
            _ => None,
        }
    }

    fn render(&self, out: &mut String, indent: Option<usize>, depth: usize) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Json::Num(v) => {
                if !v.is_finite() {
                    out.push_str("null");
                } else if *v == v.trunc() && v.abs() < 1e15 {
                    let _ = write!(out, "{}", *v as i64);
                } else {
                    let _ = write!(out, "{v}");
                }
            }
            Json::Str(s) => escape(s, out),
            Json::Arr(items) => {
                render_seq(out, indent, depth, '[', ']', items.len(), |out, i| {
                    items[i].render(out, indent, depth + 1);
                });
            }
            Json::Obj(fields) => {
                render_seq(out, indent, depth, '{', '}', fields.len(), |out, i| {
                    let (key, value) = &fields[i];
                    escape(key, out);
                    out.push(':');
                    if indent.is_some() {
                        out.push(' ');
                    }
                    value.render(out, indent, depth + 1);
                });
            }
        }
    }
}

fn render_seq(
    out: &mut String,
    indent: Option<usize>,
    depth: usize,
    open: char,
    close: char,
    len: usize,
    mut item: impl FnMut(&mut String, usize),
) {
    out.push(open);
    if len == 0 {
        out.push(close);
        return;
    }
    for i in 0..len {
        if i > 0 {
            out.push(',');
        }
        if let Some(width) = indent {
            out.push('\n');
            out.push_str(&" ".repeat(width * (depth + 1)));
        }
        item(out, i);
    }
    if let Some(width) = indent {
        out.push('\n');
        out.push_str(&" ".repeat(width * depth));
    }
    out.push(close);
}

/// Appends `s` to `out` as a quoted JSON string literal: `"` and `\`
/// are backslash-escaped, `\n`/`\r`/`\t` use their short forms, other
/// control characters become `\u00XX`, and everything else is copied.
pub(crate) fn escape(s: &str, out: &mut String) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

/// Conversion into [`Json`]; the bench binaries derive it for their result
/// structs with [`impl_to_json!`](crate::impl_to_json).
pub trait ToJson {
    fn to_json(&self) -> Json;
}

impl ToJson for Json {
    fn to_json(&self) -> Json {
        self.clone()
    }
}

impl ToJson for bool {
    fn to_json(&self) -> Json {
        Json::Bool(*self)
    }
}

impl ToJson for String {
    fn to_json(&self) -> Json {
        Json::Str(self.clone())
    }
}

impl ToJson for &str {
    fn to_json(&self) -> Json {
        Json::Str((*self).to_string())
    }
}

macro_rules! impl_num_to_json {
    ($($ty:ty),+) => {
        $(impl ToJson for $ty {
            fn to_json(&self) -> Json {
                Json::num(*self as f64)
            }
        })+
    };
}

impl_num_to_json!(f64, f32, usize, u64, u32, u16, u8, isize, i64, i32, i16, i8);

impl<T: ToJson> ToJson for Vec<T> {
    fn to_json(&self) -> Json {
        Json::Arr(self.iter().map(ToJson::to_json).collect())
    }
}

impl<T: ToJson> ToJson for [T] {
    fn to_json(&self) -> Json {
        Json::Arr(self.iter().map(ToJson::to_json).collect())
    }
}

impl<T: ToJson> ToJson for &T {
    fn to_json(&self) -> Json {
        (*self).to_json()
    }
}

impl<A: ToJson, B: ToJson> ToJson for (A, B) {
    fn to_json(&self) -> Json {
        Json::Arr(vec![self.0.to_json(), self.1.to_json()])
    }
}

impl<T: ToJson> ToJson for Option<T> {
    fn to_json(&self) -> Json {
        match self {
            Some(v) => v.to_json(),
            None => Json::Null,
        }
    }
}

/// Implements [`ToJson`] for a struct by listing its fields:
///
/// ```ignore
/// struct Cell { model: String, tokens_per_second: f64 }
/// impl_to_json!(Cell { model, tokens_per_second });
/// ```
#[macro_export]
macro_rules! impl_to_json {
    ($ty:ident { $($field:ident),+ $(,)? }) => {
        impl $crate::json::ToJson for $ty {
            fn to_json(&self) -> $crate::json::Json {
                $crate::json::Json::Obj(vec![
                    $((
                        stringify!($field).to_string(),
                        $crate::json::ToJson::to_json(&self.$field),
                    )),+
                ])
            }
        }
    };
}

/// Arrays and objects nested deeper than this are rejected, so a
/// hostile input cannot overflow the parser's stack. Everything the
/// workspace writes nests at most four deep.
const MAX_DEPTH: usize = 128;

/// Parses one JSON document; surrounding whitespace is allowed,
/// anything else after the value is an error.
pub fn parse(text: &str) -> Result<Json, String> {
    let mut parser = Parser {
        text,
        bytes: text.as_bytes(),
        pos: 0,
        depth: 0,
    };
    let value = parser.value()?;
    parser.skip_ws();
    if parser.pos != parser.bytes.len() {
        return Err(parser.err("trailing garbage after document"));
    }
    Ok(value)
}

struct Parser<'a> {
    text: &'a str,
    bytes: &'a [u8],
    pos: usize,
    depth: usize,
}

impl Parser<'_> {
    fn err(&self, msg: &str) -> String {
        format!("json parse error at byte {}: {msg}", self.pos)
    }

    fn skip_ws(&mut self) {
        while let Some(b' ' | b'\t' | b'\n' | b'\r') = self.peek() {
            self.pos += 1;
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

    fn literal(&mut self, lit: &str, value: Json) -> Result<Json, String> {
        if self.bytes[self.pos..].starts_with(lit.as_bytes()) {
            self.pos += lit.len();
            Ok(value)
        } else {
            Err(self.err(&format!("expected literal {lit:?}")))
        }
    }

    fn value(&mut self) -> Result<Json, String> {
        self.skip_ws();
        match self.peek() {
            Some(b'{') => self.nested(Self::object),
            Some(b'[') => self.nested(Self::array),
            Some(b'"') => Ok(Json::Str(self.string()?)),
            Some(b'n') => self.literal("null", Json::Null),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'-' | b'0'..=b'9') => self.number(),
            _ => Err(self.err("expected a value")),
        }
    }

    fn nested(&mut self, body: fn(&mut Self) -> Result<Json, String>) -> Result<Json, String> {
        if self.depth == MAX_DEPTH {
            return Err(self.err(&format!("nesting deeper than {MAX_DEPTH}")));
        }
        self.depth += 1;
        let value = body(self);
        self.depth -= 1;
        value
    }

    fn object(&mut self) -> Result<Json, String> {
        self.eat(b'{')?;
        let mut fields = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Json::Obj(fields));
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
                    return Ok(Json::Obj(fields));
                }
                _ => return Err(self.err("expected ',' or '}' in object")),
            }
        }
    }

    fn array(&mut self) -> Result<Json, String> {
        self.eat(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Json::Arr(items));
        }
        loop {
            items.push(self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Json::Arr(items));
                }
                _ => return Err(self.err("expected ',' or ']' in array")),
            }
        }
    }

    fn string(&mut self) -> Result<String, String> {
        self.eat(b'"')?;
        let mut out = String::new();
        loop {
            // Copy the run up to the next quote, backslash or control
            // byte in one go. Those are all ASCII, so the run ends on a
            // char boundary of the `&str` input.
            let start = self.pos;
            while let Some(b) = self.peek() {
                if b == b'"' || b == b'\\' || b < 0x20 {
                    break;
                }
                self.pos += 1;
            }
            out.push_str(&self.text[start..self.pos]);
            match self.peek() {
                None => return Err(self.err("unterminated string")),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    let short = match self.peek() {
                        Some(b'"') => '"',
                        Some(b'\\') => '\\',
                        Some(b'/') => '/',
                        Some(b'b') => '\u{8}',
                        Some(b'f') => '\u{c}',
                        Some(b'n') => '\n',
                        Some(b'r') => '\r',
                        Some(b't') => '\t',
                        Some(b'u') => {
                            self.pos += 1;
                            let c = self.unicode_escape()?;
                            out.push(c);
                            continue;
                        }
                        _ => return Err(self.err("bad escape")),
                    };
                    out.push(short);
                    self.pos += 1;
                }
                Some(_) => return Err(self.err("unescaped control character in string")),
            }
        }
    }

    /// Decodes the four hex digits after `\u`. A high surrogate pairs
    /// only with an immediately following `\u` low surrogate; any other
    /// surrogate becomes U+FFFD and the next escape decodes on its own.
    fn unicode_escape(&mut self) -> Result<char, String> {
        let cp = self.hex4()?;
        if !(0xD800..0xDC00).contains(&cp) {
            return Ok(char::from_u32(cp).unwrap_or('\u{FFFD}'));
        }
        if self.bytes[self.pos..].starts_with(b"\\u") {
            let after = self.pos;
            self.pos += 2;
            match self.hex4() {
                Ok(low) if (0xDC00..0xE000).contains(&low) => {
                    let combined = 0x10000 + ((cp - 0xD800) << 10) + (low - 0xDC00);
                    return Ok(char::from_u32(combined).unwrap_or('\u{FFFD}'));
                }
                _ => self.pos = after,
            }
        }
        Ok('\u{FFFD}')
    }

    fn hex4(&mut self) -> Result<u32, String> {
        let mut cp = 0u32;
        for _ in 0..4 {
            let digit = self
                .peek()
                .and_then(|b| (b as char).to_digit(16))
                .ok_or_else(|| self.err("bad \\u escape"))?;
            cp = cp * 16 + digit;
            self.pos += 1;
        }
        Ok(cp)
    }

    fn digits(&mut self) -> usize {
        let start = self.pos;
        while self.peek().is_some_and(|b| b.is_ascii_digit()) {
            self.pos += 1;
        }
        self.pos - start
    }

    /// `-? (0 | [1-9][0-9]*) (. [0-9]+)? ([eE] [+-]? [0-9]+)?`, read as
    /// the nearest `f64`; a literal outside the finite range is an
    /// error.
    fn number(&mut self) -> Result<Json, String> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        let int_start = self.pos;
        let int_digits = self.digits();
        if int_digits == 0 || (int_digits > 1 && self.bytes[int_start] == b'0') {
            return Err(self.err("bad number"));
        }
        if self.peek() == Some(b'.') {
            self.pos += 1;
            if self.digits() == 0 {
                return Err(self.err("bad number: no digits after '.'"));
            }
        }
        if let Some(b'e' | b'E') = self.peek() {
            self.pos += 1;
            if let Some(b'+' | b'-') = self.peek() {
                self.pos += 1;
            }
            if self.digits() == 0 {
                return Err(self.err("bad number: no exponent digits"));
            }
        }
        let text = &self.text[start..self.pos];
        match text.parse::<f64>() {
            Ok(v) if v.is_finite() => Ok(Json::Num(v)),
            _ => Err(self.err(&format!("number {text:?} is out of range"))),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn renders_scalars() {
        assert_eq!(Json::Null.compact(), "null");
        assert_eq!(Json::Bool(true).compact(), "true");
        assert_eq!(Json::num(3.0).compact(), "3");
        assert_eq!(Json::num(0.5).compact(), "0.5");
        assert_eq!(Json::num(f64::NAN).compact(), "null");
        assert_eq!(Json::num(f64::INFINITY).compact(), "null");
        assert_eq!(
            Json::Str("a\"b\\c\nd".into()).compact(),
            "\"a\\\"b\\\\c\\nd\""
        );
    }

    #[test]
    fn renders_nested_structures() {
        let v = Json::Obj(vec![
            ("name".into(), Json::Str("fig14".into())),
            (
                "cells".into(),
                Json::Arr(vec![Json::num(1.0), Json::num(2.5)]),
            ),
        ]);
        assert_eq!(v.compact(), r#"{"name":"fig14","cells":[1,2.5]}"#);
        let pretty = v.pretty();
        assert!(pretty.contains("\n  \"name\": \"fig14\""));
        assert!(pretty.ends_with("}\n"));
    }

    #[test]
    fn derive_macro_emits_declaration_order() {
        struct Cell {
            model: String,
            tps: f64,
            oom: bool,
        }
        crate::impl_to_json!(Cell { model, tps, oom });
        let cell = Cell {
            model: "llama".into(),
            tps: 10.0,
            oom: false,
        };
        assert_eq!(
            cell.to_json().compact(),
            r#"{"model":"llama","tps":10,"oom":false}"#
        );
        let cells = vec![cell];
        assert!(cells.to_json().compact().starts_with('['));
    }

    #[test]
    fn parser_round_trips_basics() {
        let doc = parse(r#"{"a": [1, -2.5e3, true, false, null], "b": {"c": "x\n\"Aé"}}"#).unwrap();
        assert_eq!(
            doc.get("a").unwrap().as_arr().unwrap()[1].as_num(),
            Some(-2500.0)
        );
        assert_eq!(
            doc.get("b").unwrap().get("c").unwrap().as_str(),
            Some("x\n\"Aé")
        );
        assert!(parse("{\"a\": 1,}").is_err());
        assert!(parse("[1, 2] trailing").is_err());
    }

    #[test]
    fn escape_handles_specials() {
        let mut out = String::new();
        escape("a\"b\\c\nd\te\u{1}", &mut out);
        assert_eq!(out, "\"a\\\"b\\\\c\\nd\\te\\u0001\"");
    }

    #[test]
    fn render_then_parse_round_trips() {
        let every_control: String = (0u32..0x20).filter_map(char::from_u32).collect();
        let cases = [
            Json::Str("say \"hi\"".into()),
            Json::Str("back\\slash".into()),
            Json::Str(every_control),
            Json::Str("astral 😀 𝄞 \u{10FFFF}".into()),
            Json::Str(String::new()),
            Json::num(-0.0),
            Json::num(1e-300),
            Json::num(-1e300),
            Json::num(999_999_999_999_999.0),
            Json::num(1e15),
            Json::num(1e15 + 0.5),
            Json::num(0.1),
            Json::num(f64::MIN_POSITIVE),
            Json::Arr(Vec::new()),
            Json::Obj(Vec::new()),
            Json::Arr(vec![Json::Arr(vec![Json::Arr(Vec::new())]), Json::Null]),
            Json::Obj(vec![
                (
                    "".into(),
                    Json::Obj(vec![("k".into(), Json::Arr(Vec::new()))]),
                ),
                ("b".into(), Json::Bool(false)),
            ]),
        ];
        for value in &cases {
            for text in [value.compact(), value.pretty()] {
                let back = parse(&text).unwrap_or_else(|e| panic!("{text:?}: {e}"));
                assert_eq!(&back, value, "{text:?}");
                if let (Json::Num(a), Json::Num(b)) = (value, &back) {
                    assert_eq!(a.abs().to_bits(), b.abs().to_bits(), "{text:?}");
                }
            }
        }
        // The integer form drops the sign of zero and stops at 1e15.
        assert_eq!(Json::num(-0.0).compact(), "0");
        assert_eq!(
            Json::num(999_999_999_999_999.0).compact(),
            "999999999999999"
        );
        assert_eq!(Json::num(1e15).compact(), "1000000000000000");
        assert_eq!(Json::num(1e15 + 0.5).compact(), "1000000000000000.5");
    }

    #[test]
    fn parser_is_strict() {
        for bad in [
            r#"{"a":1 "b":2}"#,
            "[1 2]",
            "[1,]",
            "{,}",
            "01",
            "1.",
            ".5",
            "+1",
            "1e",
            "-",
            "1e400",
            "\"tab\tinside\"",
            "\"\\x\"",
            "\"\\u12\"",
            "\"open",
            "tru",
            "",
        ] {
            assert!(parse(bad).is_err(), "{bad:?} must be rejected");
        }
        assert_eq!(parse(" -0.5E+2 ").unwrap(), Json::Num(-50.0));
    }

    #[test]
    fn unpaired_high_surrogate_is_replaced_and_the_next_escape_decodes() {
        assert_eq!(
            parse(r#""\uD800\u0041""#).unwrap(),
            Json::Str("\u{FFFD}A".into())
        );
        assert_eq!(
            parse(r#""\uD800x""#).unwrap(),
            Json::Str("\u{FFFD}x".into())
        );
        assert_eq!(parse(r#""\uDC00""#).unwrap(), Json::Str("\u{FFFD}".into()));
        assert_eq!(
            parse(r#""\uD83D\uDE00""#).unwrap(),
            Json::Str("\u{1F600}".into())
        );
        assert!(parse(r#""\uD800\u00""#).is_err());
    }

    #[test]
    fn deep_nesting_is_an_error_not_a_stack_overflow() {
        assert!(parse(&"[".repeat(200_000)).is_err());
        assert!(parse(&"{\"a\":".repeat(200_000)).is_err());
        let ok = format!("{}{}", "[".repeat(MAX_DEPTH), "]".repeat(MAX_DEPTH));
        assert!(parse(&ok).is_ok());
        let deep = format!("{}{}", "[".repeat(MAX_DEPTH + 1), "]".repeat(MAX_DEPTH + 1));
        assert!(parse(&deep).is_err());
    }
}
