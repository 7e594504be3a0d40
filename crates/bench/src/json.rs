//! A minimal JSON value type, serializer, and parser for persisting
//! experiment artifacts and fuzzing corpora. The build environment
//! cannot fetch `serde`/`serde_json`, so a small hand-rolled value tree
//! plus the [`impl_to_json!`](crate::impl_to_json) macro covers writing, and a recursive-
//! descent [`Json::parse`] covers reading the files back (the `chess
//! replay` corpus path and `--db` artifacts share this one format).

use std::fmt::Write as _;

use chess_core::{Decision, Schedule};
use chess_kernel::ThreadId;

/// A JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`
    Null,
    /// `true` / `false`
    Bool(bool),
    /// An unsigned integer (kept exact; u64 doesn't fit in f64).
    UInt(u64),
    /// A signed integer.
    Int(i64),
    /// A float, rendered with enough digits to round-trip.
    Float(f64),
    /// A string.
    Str(String),
    /// An array.
    Array(Vec<Json>),
    /// An object with insertion-ordered keys.
    Object(Vec<(String, Json)>),
}

impl Json {
    /// Builds an object from `(key, value)` pairs, preserving order.
    pub fn object<K: Into<String>>(pairs: impl IntoIterator<Item = (K, Json)>) -> Json {
        Json::Object(pairs.into_iter().map(|(k, v)| (k.into(), v)).collect())
    }

    /// Builds an array.
    pub fn array(items: impl IntoIterator<Item = Json>) -> Json {
        Json::Array(items.into_iter().collect())
    }

    /// Pretty-prints with two-space indentation (the `serde_json`
    /// convention our previous artifacts used).
    pub fn to_string_pretty(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, 0);
        out
    }

    /// Parses a JSON document (the inverse of
    /// [`Json::to_string_pretty`] up to whitespace and number typing:
    /// unsigned integers parse as [`Json::UInt`], negative ones as
    /// [`Json::Int`], anything with a fraction or exponent as
    /// [`Json::Float`]).
    ///
    /// # Errors
    ///
    /// Returns a message naming the byte offset of the first syntax
    /// error, of trailing garbage after the document, or of an array or
    /// object nested deeper than [`MAX_DEPTH`] (the parser recurses per
    /// level, so unbounded nesting would overflow the stack).
    pub fn parse(text: &str) -> Result<Json, String> {
        let mut p = Parser {
            bytes: text.as_bytes(),
            pos: 0,
            depth: 0,
        };
        p.skip_ws();
        let v = p.value()?;
        p.skip_ws();
        if p.pos != p.bytes.len() {
            return Err(format!("trailing garbage at byte {}", p.pos));
        }
        Ok(v)
    }

    /// Object field lookup; `None` on non-objects and missing keys.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Object(pairs) => pairs.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The value as an unsigned integer, if it is one.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Json::UInt(n) => Some(*n),
            Json::Int(n) => u64::try_from(*n).ok(),
            _ => None,
        }
    }

    /// The value as a bool, if it is one.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Json::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// The value as a string slice, if it is one.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The value as an array slice, if it is one.
    pub fn as_array(&self) -> Option<&[Json]> {
        match self {
            Json::Array(items) => Some(items),
            _ => None,
        }
    }

    fn write(&self, out: &mut String, indent: usize) {
        let pad = "  ".repeat(indent + 1);
        let closing_pad = "  ".repeat(indent);
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => {
                let _ = write!(out, "{b}");
            }
            Json::UInt(n) => {
                let _ = write!(out, "{n}");
            }
            Json::Int(n) => {
                let _ = write!(out, "{n}");
            }
            Json::Float(f) => {
                if f.is_finite() {
                    let _ = write!(out, "{f}");
                } else {
                    // JSON has no NaN/Inf; serde_json emits null too.
                    out.push_str("null");
                }
            }
            Json::Str(s) => write_escaped(out, s),
            Json::Array(items) => {
                if items.is_empty() {
                    out.push_str("[]");
                    return;
                }
                out.push_str("[\n");
                for (i, item) in items.iter().enumerate() {
                    out.push_str(&pad);
                    item.write(out, indent + 1);
                    out.push_str(if i + 1 < items.len() { ",\n" } else { "\n" });
                }
                out.push_str(&closing_pad);
                out.push(']');
            }
            Json::Object(pairs) => {
                if pairs.is_empty() {
                    out.push_str("{}");
                    return;
                }
                out.push_str("{\n");
                for (i, (k, v)) in pairs.iter().enumerate() {
                    out.push_str(&pad);
                    write_escaped(out, k);
                    out.push_str(": ");
                    v.write(out, indent + 1);
                    out.push_str(if i + 1 < pairs.len() { ",\n" } else { "\n" });
                }
                out.push_str(&closing_pad);
                out.push('}');
            }
        }
    }
}

/// Deepest array/object nesting [`Json::parse`] accepts. Far beyond any
/// document this workspace writes, and shallow enough that the
/// recursive parser cannot overflow even a small thread stack.
pub const MAX_DEPTH: usize = 128;

/// Recursive-descent JSON parser over raw bytes (strings are validated
/// UTF-8 by construction: input is `&str` and escapes decode to chars).
struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
    /// Arrays and objects currently open.
    depth: usize,
}

impl Parser<'_> {
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

    fn eat(&mut self, b: u8) -> Result<(), String> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(format!("expected '{}' at byte {}", b as char, self.pos))
        }
    }

    fn eat_keyword(&mut self, kw: &str) -> Result<(), String> {
        if self.bytes[self.pos..].starts_with(kw.as_bytes()) {
            self.pos += kw.len();
            Ok(())
        } else {
            Err(format!("expected '{kw}' at byte {}", self.pos))
        }
    }

    fn value(&mut self) -> Result<Json, String> {
        match self.peek() {
            Some(b'n') => self.eat_keyword("null").map(|()| Json::Null),
            Some(b't') => self.eat_keyword("true").map(|()| Json::Bool(true)),
            Some(b'f') => self.eat_keyword("false").map(|()| Json::Bool(false)),
            Some(b'"') => self.string().map(Json::Str),
            Some(b'[' | b'{') => {
                if self.depth == MAX_DEPTH {
                    return Err(format!(
                        "nesting deeper than {MAX_DEPTH} levels at byte {}",
                        self.pos
                    ));
                }
                self.depth += 1;
                let v = if self.peek() == Some(b'[') {
                    self.array()
                } else {
                    self.object()
                };
                self.depth -= 1;
                v
            }
            Some(b'-' | b'0'..=b'9') => self.number(),
            _ => Err(format!("unexpected input at byte {}", self.pos)),
        }
    }

    fn array(&mut self) -> Result<Json, String> {
        self.eat(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Json::Array(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Json::Array(items));
                }
                _ => return Err(format!("expected ',' or ']' at byte {}", self.pos)),
            }
        }
    }

    fn object(&mut self) -> Result<Json, String> {
        self.eat(b'{')?;
        let mut pairs = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Json::Object(pairs));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.eat(b':')?;
            self.skip_ws();
            let value = self.value()?;
            pairs.push((key, value));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Json::Object(pairs));
                }
                _ => return Err(format!("expected ',' or '}}' at byte {}", self.pos)),
            }
        }
    }

    fn string(&mut self) -> Result<String, String> {
        self.eat(b'"')?;
        let mut out = String::new();
        loop {
            match self.peek() {
                None => return Err(format!("unterminated string at byte {}", self.pos)),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    let esc = self
                        .peek()
                        .ok_or_else(|| format!("unterminated escape at byte {}", self.pos))?;
                    self.pos += 1;
                    match esc {
                        b'"' => out.push('"'),
                        b'\\' => out.push('\\'),
                        b'/' => out.push('/'),
                        b'n' => out.push('\n'),
                        b'r' => out.push('\r'),
                        b't' => out.push('\t'),
                        b'b' => out.push('\u{8}'),
                        b'f' => out.push('\u{c}'),
                        b'u' => {
                            let hex = self
                                .bytes
                                .get(self.pos..self.pos + 4)
                                .ok_or_else(|| "truncated \\u escape".to_string())?;
                            let hex = std::str::from_utf8(hex)
                                .map_err(|_| "non-ascii \\u escape".to_string())?;
                            let code = u32::from_str_radix(hex, 16)
                                .map_err(|_| format!("bad \\u escape at byte {}", self.pos))?;
                            self.pos += 4;
                            // Surrogate pairs are not emitted by our writer;
                            // map lone surrogates to the replacement char.
                            out.push(char::from_u32(code).unwrap_or('\u{FFFD}'));
                        }
                        _ => return Err(format!("bad escape at byte {}", self.pos - 1)),
                    }
                }
                Some(_) => {
                    // Consume one UTF-8 encoded char.
                    let start = self.pos;
                    let mut end = start + 1;
                    while end < self.bytes.len() && (self.bytes[end] & 0xC0) == 0x80 {
                        end += 1;
                    }
                    let chunk = std::str::from_utf8(&self.bytes[start..end])
                        .map_err(|_| format!("invalid utf-8 at byte {start}"))?;
                    let c = chunk.chars().next().expect("nonempty chunk");
                    out.push(c);
                    self.pos = start + c.len_utf8();
                }
            }
        }
    }

    fn number(&mut self) -> Result<Json, String> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        let mut is_float = false;
        while let Some(b) = self.peek() {
            match b {
                b'0'..=b'9' => self.pos += 1,
                b'.' | b'e' | b'E' | b'+' | b'-' => {
                    is_float = true;
                    self.pos += 1;
                }
                _ => break,
            }
        }
        let text =
            std::str::from_utf8(&self.bytes[start..self.pos]).expect("number chars are ascii");
        if is_float {
            text.parse::<f64>()
                .map(Json::Float)
                .map_err(|_| format!("bad number at byte {start}"))
        } else if text.starts_with('-') {
            text.parse::<i64>()
                .map(Json::Int)
                .map_err(|_| format!("bad number at byte {start}"))
        } else {
            text.parse::<u64>()
                .map(Json::UInt)
                .map_err(|_| format!("bad number at byte {start}"))
        }
    }
}

impl ToJson for Decision {
    /// A decision serializes as the compact pair `[thread, choice]`.
    fn to_json(&self) -> Json {
        Json::array([
            Json::UInt(self.thread.index() as u64),
            Json::UInt(u64::from(self.choice)),
        ])
    }
}

/// Serializes a schedule as an array of `[thread, choice]` pairs — the
/// corpus and `--db` wire format.
pub fn schedule_to_json(schedule: &[Decision]) -> Json {
    Json::array(schedule.iter().map(ToJson::to_json))
}

/// Parses a schedule serialized by [`schedule_to_json`].
///
/// # Errors
///
/// Returns a message describing the first malformed entry.
pub fn schedule_from_json(json: &Json) -> Result<Schedule, String> {
    let items = json
        .as_array()
        .ok_or_else(|| "schedule is not an array".to_string())?;
    let mut out = Vec::with_capacity(items.len());
    for (i, item) in items.iter().enumerate() {
        let pair = item
            .as_array()
            .ok_or_else(|| format!("schedule entry {i} is not an array"))?;
        let (t, c) = match pair {
            [t, c] => (t, c),
            _ => return Err(format!("schedule entry {i} is not a pair")),
        };
        let thread = t
            .as_u64()
            .ok_or_else(|| format!("schedule entry {i} has a non-integer thread"))?;
        let choice = c
            .as_u64()
            .and_then(|c| u32::try_from(c).ok())
            .ok_or_else(|| format!("schedule entry {i} has a bad choice"))?;
        out.push(Decision {
            thread: ThreadId::new(thread as usize),
            choice,
        });
    }
    Ok(out)
}

fn write_escaped(out: &mut String, s: &str) {
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

/// Conversion into a [`Json`] value (the `Serialize` stand-in).
pub trait ToJson {
    /// The JSON representation of `self`.
    fn to_json(&self) -> Json;
}

impl ToJson for bool {
    fn to_json(&self) -> Json {
        Json::Bool(*self)
    }
}

impl ToJson for u64 {
    fn to_json(&self) -> Json {
        Json::UInt(*self)
    }
}

impl ToJson for u32 {
    fn to_json(&self) -> Json {
        Json::UInt(*self as u64)
    }
}

impl ToJson for usize {
    fn to_json(&self) -> Json {
        Json::UInt(*self as u64)
    }
}

impl ToJson for i64 {
    fn to_json(&self) -> Json {
        Json::Int(*self)
    }
}

impl ToJson for f64 {
    fn to_json(&self) -> Json {
        Json::Float(*self)
    }
}

impl ToJson for String {
    fn to_json(&self) -> Json {
        Json::Str(self.clone())
    }
}

impl ToJson for str {
    fn to_json(&self) -> Json {
        Json::Str(self.to_string())
    }
}

impl<T: ToJson + ?Sized> ToJson for &T {
    fn to_json(&self) -> Json {
        (**self).to_json()
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

impl<T: ToJson> ToJson for Vec<T> {
    fn to_json(&self) -> Json {
        Json::array(self.iter().map(ToJson::to_json))
    }
}

impl<T: ToJson> ToJson for [T] {
    fn to_json(&self) -> Json {
        Json::array(self.iter().map(ToJson::to_json))
    }
}

/// Implements [`ToJson`] for a struct by listing its fields:
/// `impl_to_json!(CellResult { states, secs, completed, executions });`
#[macro_export]
macro_rules! impl_to_json {
    ($ty:ty { $($field:ident),+ $(,)? }) => {
        impl $crate::json::ToJson for $ty {
            fn to_json(&self) -> $crate::json::Json {
                $crate::json::Json::object([
                    $((stringify!($field), $crate::json::ToJson::to_json(&self.$field))),+
                ])
            }
        }
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn renders_nested_pretty() {
        let v = Json::object([
            ("name", Json::Str("phil".into())),
            ("rows", Json::array([Json::UInt(1), Json::UInt(2)])),
            ("done", Json::Bool(true)),
            ("total", Json::Null),
        ]);
        let s = v.to_string_pretty();
        assert!(s.starts_with("{\n"));
        assert!(s.contains("\"name\": \"phil\""));
        assert!(s.contains("\"rows\": [\n    1,\n    2\n  ]"));
        assert!(s.ends_with('}'));
    }

    #[test]
    fn escapes_strings() {
        let s = Json::Str("a\"b\\c\nd".into()).to_string_pretty();
        assert_eq!(s, r#""a\"b\\c\nd""#);
    }

    #[test]
    fn exact_u64() {
        let big = u64::MAX;
        assert_eq!(Json::UInt(big).to_string_pretty(), big.to_string());
    }

    #[test]
    fn derive_macro_lists_fields() {
        struct P {
            x: u64,
            y: String,
        }
        impl_to_json!(P { x, y });
        let s = P {
            x: 7,
            y: "hi".into(),
        }
        .to_json()
        .to_string_pretty();
        assert!(s.contains("\"x\": 7"));
        assert!(s.contains("\"y\": \"hi\""));
    }

    #[test]
    fn nonfinite_floats_become_null() {
        assert_eq!(Json::Float(f64::NAN).to_string_pretty(), "null");
        assert_eq!(Json::Float(1.5).to_string_pretty(), "1.5");
    }

    #[test]
    fn parse_round_trips_writer_output() {
        let doc = Json::object([
            ("name", Json::Str("fair \"chess\"\n\ttest".into())),
            ("count", Json::UInt(42)),
            ("delta", Json::Int(-7)),
            ("ratio", Json::Float(0.25)),
            ("ok", Json::Bool(true)),
            ("missing", Json::Null),
            (
                "items",
                Json::array([Json::UInt(1), Json::UInt(2), Json::array([])]),
            ),
            ("empty", Json::Object(Vec::new())),
        ]);
        let text = doc.to_string_pretty();
        let back = Json::parse(&text).expect("writer output parses");
        assert_eq!(back, doc);
    }

    #[test]
    fn parse_handles_escapes_and_unicode() {
        let v = Json::parse(r#""aA\n\\b\"π""#).unwrap();
        assert_eq!(v.as_str(), Some("aA\n\\b\"π"));
    }

    #[test]
    fn parse_rejects_malformed_input() {
        assert!(Json::parse("").is_err());
        assert!(Json::parse("{\"a\": 1,}").is_err());
        assert!(Json::parse("[1, 2").is_err());
        assert!(Json::parse("12 34").is_err());
        assert!(Json::parse("\"open").is_err());
        assert!(Json::parse("troo").is_err());
    }

    #[test]
    fn parse_caps_nesting_depth() {
        let nested = |n: usize| format!("{}{}", "[".repeat(n), "]".repeat(n));
        assert!(Json::parse(&nested(MAX_DEPTH)).is_ok());
        let err = Json::parse(&nested(MAX_DEPTH + 1)).unwrap_err();
        assert_eq!(
            err,
            format!("nesting deeper than {MAX_DEPTH} levels at byte {MAX_DEPTH}")
        );
        // Far deeper input is rejected at the cap, not by the stack.
        let err = Json::parse(&"[{\"a\": ".repeat(100_000)).unwrap_err();
        assert!(err.contains("nesting deeper"), "{err}");
    }

    #[test]
    fn accessors_navigate_objects() {
        let doc = Json::parse(r#"{"a": {"b": [1, true, "x"]}}"#).unwrap();
        let arr = doc.get("a").and_then(|a| a.get("b")).unwrap();
        let items = arr.as_array().unwrap();
        assert_eq!(items[0].as_u64(), Some(1));
        assert_eq!(items[1].as_bool(), Some(true));
        assert_eq!(items[2].as_str(), Some("x"));
        assert!(doc.get("zzz").is_none());
    }

    #[test]
    fn schedule_round_trips() {
        let schedule: Schedule = vec![
            Decision {
                thread: ThreadId::new(0),
                choice: 0,
            },
            Decision {
                thread: ThreadId::new(2),
                choice: 1,
            },
            Decision {
                thread: ThreadId::new(1),
                choice: 0,
            },
        ];
        let json = schedule_to_json(&schedule);
        let text = json.to_string_pretty();
        let back = schedule_from_json(&Json::parse(&text).unwrap()).unwrap();
        assert_eq!(back, schedule);
    }

    #[test]
    fn schedule_from_json_rejects_bad_shapes() {
        assert!(schedule_from_json(&Json::parse("{}").unwrap()).is_err());
        assert!(schedule_from_json(&Json::parse("[[1]]").unwrap()).is_err());
        assert!(schedule_from_json(&Json::parse("[[1, -2]]").unwrap()).is_err());
        assert!(schedule_from_json(&Json::parse("[[\"t\", 0]]").unwrap()).is_err());
    }
}
