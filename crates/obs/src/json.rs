//! A minimal JSON value, parser, and writer.
//!
//! The workspace is hermetic (no `serde`), so the telemetry artifact
//! format is hand-rolled: this module round-trips exactly the JSON this
//! crate emits, plus ordinary interchange JSON such as the recorded
//! bench baselines (`BENCH_3.json`). Object key order is preserved
//! (insertion order), integers and floats are kept distinct, and string
//! escapes — including `\uXXXX` surrogate pairs — are handled.

use std::fmt;

/// A JSON value.
#[derive(Clone, Debug, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// A number without fractional part or exponent that fits `i64`.
    Int(i64),
    /// Any other number.
    Float(f64),
    /// A string.
    Str(String),
    /// An array.
    Array(Vec<Json>),
    /// An object; key order is preserved.
    Object(Vec<(String, Json)>),
}

impl Json {
    /// Object member lookup (first match; `None` on non-objects).
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Object(members) => members.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// Nested lookup: `get("a").get("b")…` over a key path.
    pub fn get_path(&self, path: &[&str]) -> Option<&Json> {
        path.iter().try_fold(self, |v, k| v.get(k))
    }

    /// The value as `i64` (exact integers only).
    pub fn as_i64(&self) -> Option<i64> {
        match self {
            Json::Int(n) => Some(*n),
            _ => None,
        }
    }

    /// The value as `f64` (both numeric variants).
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Int(n) => Some(*n as f64),
            Json::Float(x) => Some(*x),
            _ => None,
        }
    }

    /// The value as a string slice.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The value as an array slice.
    pub fn as_array(&self) -> Option<&[Json]> {
        match self {
            Json::Array(items) => Some(items),
            _ => None,
        }
    }

    /// The value as object members.
    pub fn as_object(&self) -> Option<&[(String, Json)]> {
        match self {
            Json::Object(members) => Some(members),
            _ => None,
        }
    }

    /// Parses a JSON document (one value, surrounded by whitespace only).
    ///
    /// # Errors
    ///
    /// Returns [`JsonError`] with a byte offset on malformed input,
    /// including arrays and objects nested more than 256 levels deep
    /// (rejected rather than recursed into, so hostile input cannot
    /// overflow the stack).
    pub fn parse(text: &str) -> Result<Json, JsonError> {
        let mut p = Parser {
            bytes: text.as_bytes(),
            pos: 0,
            depth: 0,
        };
        p.skip_ws();
        let v = p.value()?;
        p.skip_ws();
        if p.pos != p.bytes.len() {
            return Err(p.err("trailing characters after value"));
        }
        Ok(v)
    }

    /// Pretty rendering with two-space indentation and a trailing newline
    /// — the telemetry artifact format.
    pub fn to_string_pretty(&self) -> String {
        let mut out = String::new();
        write_value(&mut out, self, 0, true);
        out.push('\n');
        out
    }
}

/// Compact (single-line) rendering.
impl fmt::Display for Json {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut out = String::new();
        write_value(&mut out, self, 0, false);
        f.write_str(&out)
    }
}

fn write_value(out: &mut String, v: &Json, depth: usize, pretty: bool) {
    match v {
        Json::Null => out.push_str("null"),
        Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
        Json::Int(n) => out.push_str(&n.to_string()),
        Json::Float(x) => write_float(out, *x),
        Json::Str(s) => write_string(out, s),
        Json::Array(items) => write_seq(out, items.len(), depth, pretty, '[', ']', |out, k| {
            write_value(out, &items[k], depth + 1, pretty);
        }),
        Json::Object(members) => {
            write_seq(out, members.len(), depth, pretty, '{', '}', |out, k| {
                let (key, val) = &members[k];
                write_string(out, key);
                out.push(':');
                if pretty {
                    out.push(' ');
                }
                write_value(out, val, depth + 1, pretty);
            })
        }
    }
}

fn write_seq(
    out: &mut String,
    len: usize,
    depth: usize,
    pretty: bool,
    open: char,
    close: char,
    mut item: impl FnMut(&mut String, usize),
) {
    out.push(open);
    if len == 0 {
        out.push(close);
        return;
    }
    for k in 0..len {
        if k > 0 {
            out.push(',');
        }
        if pretty {
            out.push('\n');
            for _ in 0..=depth {
                out.push_str("  ");
            }
        }
        item(out, k);
    }
    if pretty {
        out.push('\n');
        for _ in 0..depth {
            out.push_str("  ");
        }
    }
    out.push(close);
}

fn write_float(out: &mut String, x: f64) {
    if x.is_finite() {
        let s = format!("{x}");
        // `Display` omits the decimal point for integral floats; keep one
        // so the value parses back as Float, not Int.
        if s.contains(['.', 'e', 'E']) {
            out.push_str(&s);
        } else {
            out.push_str(&s);
            out.push_str(".0");
        }
    } else {
        // JSON has no NaN/Inf; emit null (counters and durations are
        // always finite, so this is a defensive corner).
        out.push_str("null");
    }
}

fn write_string(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                out.push_str(&format!("\\u{:04x}", c as u32));
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

/// A JSON syntax error with its byte offset.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct JsonError {
    /// Byte offset into the input where parsing failed.
    pub offset: usize,
    /// What went wrong.
    pub message: String,
}

impl fmt::Display for JsonError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "JSON error at byte {}: {}", self.offset, self.message)
    }
}

impl std::error::Error for JsonError {}

/// The deepest nesting of arrays and objects [`Json::parse`] accepts.
const MAX_DEPTH: usize = 256;

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
    /// Arrays and objects currently open.
    depth: usize,
}

impl<'a> Parser<'a> {
    fn err(&self, message: &str) -> JsonError {
        JsonError {
            offset: self.pos,
            message: message.to_string(),
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
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
            Err(self.err(&format!("expected '{}'", b as char)))
        }
    }

    fn literal(&mut self, word: &str, value: Json) -> Result<Json, JsonError> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(value)
        } else {
            Err(self.err(&format!("expected '{word}'")))
        }
    }

    fn value(&mut self) -> Result<Json, JsonError> {
        match self.peek() {
            Some(b'n') => self.literal("null", Json::Null),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'"') => Ok(Json::Str(self.string()?)),
            Some(b'[') => self.nested(Self::array),
            Some(b'{') => self.nested(Self::object),
            Some(b'-' | b'0'..=b'9') => self.number(),
            Some(_) => Err(self.err("unexpected character")),
            None => Err(self.err("unexpected end of input")),
        }
    }

    fn nested(
        &mut self,
        parse: fn(&mut Self) -> Result<Json, JsonError>,
    ) -> Result<Json, JsonError> {
        if self.depth == MAX_DEPTH {
            return Err(self.err("nested too deeply"));
        }
        self.depth += 1;
        let v = parse(self);
        self.depth -= 1;
        v
    }

    fn array(&mut self) -> Result<Json, JsonError> {
        self.expect(b'[')?;
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
                _ => return Err(self.err("expected ',' or ']'")),
            }
        }
    }

    fn object(&mut self) -> Result<Json, JsonError> {
        self.expect(b'{')?;
        let mut members = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Json::Object(members));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            members.push((key, self.value()?));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Json::Object(members));
                }
                _ => return Err(self.err("expected ',' or '}'")),
            }
        }
    }

    fn string(&mut self) -> Result<String, JsonError> {
        self.expect(b'"')?;
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
                            out.push(self.unicode_escape()?);
                            continue;
                        }
                        _ => return Err(self.err("invalid escape")),
                    }
                    self.pos += 1;
                }
                Some(_) => {
                    // Copy one UTF-8 scalar (the input is a &str, so
                    // boundaries are valid).
                    let rest = &self.bytes[self.pos..];
                    let s = std::str::from_utf8(rest).map_err(|_| self.err("invalid UTF-8"))?;
                    let c = s.chars().next().expect("non-empty");
                    out.push(c);
                    self.pos += c.len_utf8();
                }
            }
        }
    }

    /// Parses the `XXXX` of a `\uXXXX` escape (the backslash and `u` are
    /// consumed), combining surrogate pairs.
    fn unicode_escape(&mut self) -> Result<char, JsonError> {
        let hi = self.hex4()?;
        if (0xD800..0xDC00).contains(&hi) {
            if self.bytes[self.pos..].starts_with(b"\\u") {
                self.pos += 2;
                let lo = self.hex4()?;
                if (0xDC00..0xE000).contains(&lo) {
                    let c = 0x10000 + ((hi - 0xD800) << 10) + (lo - 0xDC00);
                    return char::from_u32(c).ok_or_else(|| self.err("invalid surrogate pair"));
                }
            }
            return Err(self.err("unpaired surrogate"));
        }
        char::from_u32(hi).ok_or_else(|| self.err("invalid unicode escape"))
    }

    fn hex4(&mut self) -> Result<u32, JsonError> {
        let mut v = 0u32;
        for _ in 0..4 {
            let d = match self.peek() {
                Some(b @ b'0'..=b'9') => u32::from(b - b'0'),
                Some(b @ b'a'..=b'f') => u32::from(b - b'a') + 10,
                Some(b @ b'A'..=b'F') => u32::from(b - b'A') + 10,
                _ => return Err(self.err("expected hex digit")),
            };
            v = (v << 4) | d;
            self.pos += 1;
        }
        Ok(v)
    }

    fn number(&mut self) -> Result<Json, JsonError> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        while matches!(self.peek(), Some(b'0'..=b'9')) {
            self.pos += 1;
        }
        let mut float = false;
        if self.peek() == Some(b'.') {
            float = true;
            self.pos += 1;
            while matches!(self.peek(), Some(b'0'..=b'9')) {
                self.pos += 1;
            }
        }
        if matches!(self.peek(), Some(b'e' | b'E')) {
            float = true;
            self.pos += 1;
            if matches!(self.peek(), Some(b'+' | b'-')) {
                self.pos += 1;
            }
            while matches!(self.peek(), Some(b'0'..=b'9')) {
                self.pos += 1;
            }
        }
        let text =
            std::str::from_utf8(&self.bytes[start..self.pos]).expect("ASCII number characters");
        if !float {
            if let Ok(n) = text.parse::<i64>() {
                return Ok(Json::Int(n));
            }
        }
        text.parse::<f64>()
            .map(Json::Float)
            .map_err(|_| self.err("malformed number"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scalars_round_trip() {
        for text in ["null", "true", "false", "0", "-17", "3.5", "\"hi\""] {
            let v = Json::parse(text).unwrap();
            assert_eq!(v.to_string(), text);
        }
    }

    #[test]
    fn int_float_distinction() {
        assert_eq!(Json::parse("7").unwrap(), Json::Int(7));
        assert_eq!(Json::parse("7.0").unwrap(), Json::Float(7.0));
        assert_eq!(Json::parse("1e3").unwrap(), Json::Float(1000.0));
        // Integral floats keep a decimal point when written.
        assert_eq!(Json::Float(7.0).to_string(), "7.0");
        // Beyond i64: falls back to float rather than failing.
        assert!(matches!(
            Json::parse("99999999999999999999").unwrap(),
            Json::Float(_)
        ));
    }

    #[test]
    fn nested_structure_and_lookup() {
        let v = Json::parse(r#"{"a": {"b": [1, 2, {"c": true}]}, "d": null}"#).unwrap();
        assert_eq!(
            v.get_path(&["a", "b"]).unwrap().as_array().unwrap().len(),
            3
        );
        assert_eq!(v.get("d"), Some(&Json::Null));
        assert_eq!(v.get("missing"), None);
        assert_eq!(v.get_path(&["a", "b", "c"]), None, "arrays are not objects");
    }

    #[test]
    fn string_escapes_round_trip() {
        let original = Json::Str("line\nquote\"back\\slash\ttab\u{1}".to_string());
        let text = original.to_string();
        assert_eq!(Json::parse(&text).unwrap(), original);
    }

    #[test]
    fn unicode_escapes_parse() {
        assert_eq!(
            Json::parse(r#""\u00b5s""#).unwrap(),
            Json::Str("µs".to_string())
        );
        // Surrogate pair: U+1D11E musical G clef.
        assert_eq!(
            Json::parse(r#""\ud834\udd1e""#).unwrap(),
            Json::Str("\u{1D11E}".to_string())
        );
        assert!(
            Json::parse(r#""\ud834""#).is_err(),
            "unpaired surrogate rejected"
        );
        // Raw (unescaped) UTF-8 flows through.
        assert_eq!(Json::parse("\"µs\"").unwrap(), Json::Str("µs".to_string()));
    }

    #[test]
    fn pretty_output_parses_back() {
        let v = Json::Object(vec![
            (
                "counters".to_string(),
                Json::Object(vec![("a/b".to_string(), Json::Int(3))]),
            ),
            ("empty".to_string(), Json::Array(Vec::new())),
            (
                "list".to_string(),
                Json::Array(vec![Json::Int(1), Json::Float(2.5)]),
            ),
        ]);
        let text = v.to_string_pretty();
        assert!(text.ends_with('\n'));
        assert!(text.contains("  \"counters\""), "{text}");
        assert_eq!(Json::parse(&text).unwrap(), v);
    }

    #[test]
    fn malformed_inputs_report_offset() {
        for text in [
            "",
            "{",
            "[1,",
            "{\"a\" 1}",
            "tru",
            "1.2.3",
            "\"\\q\"",
            "[1] x",
        ] {
            let err = Json::parse(text).unwrap_err();
            assert!(err.to_string().contains("byte"), "{text}: {err}");
        }
    }

    #[test]
    fn nesting_is_capped_not_recursed_into() {
        let nested = |n: usize, open: &str, close: &str| open.repeat(n) + &close.repeat(n);
        assert!(Json::parse(&nested(MAX_DEPTH, "[", "]")).is_ok());
        assert!(Json::parse(&nested(MAX_DEPTH - 1, "{\"a\":", "}").replace(":}", ":1}")).is_ok());
        // Far deeper than the cap, on a default-sized thread stack: a
        // typed error at the first bracket past the cap, never a stack
        // overflow.
        let deep = std::thread::spawn(move || {
            (
                Json::parse(&nested(MAX_DEPTH + 1, "[", "]")).unwrap_err(),
                Json::parse(&nested(100_000, "[", "]")).unwrap_err(),
                Json::parse(&"{\"k\":".repeat(100_000)).unwrap_err(),
            )
        })
        .join()
        .unwrap();
        for (err, offset) in [
            (deep.0, MAX_DEPTH),
            (deep.1, MAX_DEPTH),
            (deep.2, 5 * MAX_DEPTH),
        ] {
            assert_eq!(err.offset, offset, "{err}");
            assert!(err.message.contains("deeply"), "{err}");
        }
    }

    #[test]
    fn key_order_preserved() {
        let v = Json::parse(r#"{"z": 1, "a": 2}"#).unwrap();
        let keys: Vec<&str> = v
            .as_object()
            .unwrap()
            .iter()
            .map(|(k, _)| k.as_str())
            .collect();
        assert_eq!(keys, ["z", "a"]);
    }
}
