//! Stand-in for the `serde_json` functions the webcap crates call:
//! `to_string`, `to_string_pretty`, `to_vec`, `to_writer`, `from_str`,
//! `from_slice`.
//!
//! Integers are exact over the whole `u64`/`i64` range. Finite floats
//! are written with Rust's shortest round-trip formatting and read with
//! `str::parse::<f64>`, so every finite `f64` survives a round trip
//! bit for bit; non-finite floats are written as `null`, as the
//! published crate does. Nesting is capped at [`MAX_DEPTH`] so hostile
//! input cannot overflow the stack.

use std::fmt::Write as _;
use std::io;

use serde::de::DeserializeOwned;
use serde::Serialize;

pub use serde::{Error, Value};

/// `Result` with this crate's error.
pub type Result<T> = std::result::Result<T, Error>;

/// Deepest array/object nesting the parser accepts.
pub const MAX_DEPTH: usize = 128;

/// Serialize to compact JSON text.
pub fn to_string<T: Serialize + ?Sized>(value: &T) -> Result<String> {
    let mut out = String::new();
    write_value(&mut out, &value.to_value(), None, 0);
    Ok(out)
}

/// Serialize to JSON text indented by two spaces.
pub fn to_string_pretty<T: Serialize + ?Sized>(value: &T) -> Result<String> {
    let mut out = String::new();
    write_value(&mut out, &value.to_value(), Some("  "), 0);
    Ok(out)
}

/// Serialize to compact JSON bytes.
pub fn to_vec<T: Serialize + ?Sized>(value: &T) -> Result<Vec<u8>> {
    to_string(value).map(String::into_bytes)
}

/// Serialize as compact JSON into `writer`.
pub fn to_writer<W: io::Write, T: Serialize + ?Sized>(mut writer: W, value: &T) -> Result<()> {
    writer
        .write_all(to_string(value)?.as_bytes())
        .map_err(Error::custom)
}

/// Deserialize from JSON text.
pub fn from_str<T: DeserializeOwned>(text: &str) -> Result<T> {
    from_slice(text.as_bytes())
}

/// Deserialize from JSON bytes (which must be UTF-8).
pub fn from_slice<T: DeserializeOwned>(bytes: &[u8]) -> Result<T> {
    let mut parser = Parser { bytes, at: 0 };
    let value = parser.value(0)?;
    parser.skip_whitespace();
    if parser.at != bytes.len() {
        return Err(parser.error("trailing characters"));
    }
    T::from_value(value)
}

fn write_value(out: &mut String, value: &Value, indent: Option<&str>, level: usize) {
    match value {
        Value::Null => out.push_str("null"),
        Value::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
        // Writing to a String cannot fail.
        Value::U64(n) => drop(write!(out, "{n}")),
        Value::I64(n) => drop(write!(out, "{n}")),
        Value::F64(x) if x.is_finite() => drop(write!(out, "{x:?}")),
        Value::F64(_) => out.push_str("null"),
        Value::String(s) => write_string(out, s),
        Value::Array(items) => {
            write_sequence(out, '[', ']', items.len(), indent, level, |out, i| {
                write_value(out, &items[i], indent, level + 1);
            });
        }
        Value::Object(entries) => {
            write_sequence(out, '{', '}', entries.len(), indent, level, |out, i| {
                let (key, item) = &entries[i];
                write_string(out, key);
                out.push_str(if indent.is_some() { ": " } else { ":" });
                write_value(out, item, indent, level + 1);
            });
        }
    }
}

fn write_sequence(
    out: &mut String,
    open: char,
    close: char,
    len: usize,
    indent: Option<&str>,
    level: usize,
    mut item: impl FnMut(&mut String, usize),
) {
    out.push(open);
    let newline = |out: &mut String, level: usize| {
        if let Some(unit) = indent {
            out.push('\n');
            for _ in 0..level {
                out.push_str(unit);
            }
        }
    };
    for i in 0..len {
        if i > 0 {
            out.push(',');
        }
        newline(out, level + 1);
        item(out, i);
    }
    if len > 0 {
        newline(out, level);
    }
    out.push(close);
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
            '\u{08}' => out.push_str("\\b"),
            '\u{0c}' => out.push_str("\\f"),
            c if (c as u32) < 0x20 => drop(write!(out, "\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
}

struct Parser<'a> {
    bytes: &'a [u8],
    at: usize,
}

impl Parser<'_> {
    fn error(&self, what: &str) -> Error {
        Error::custom(format_args!("{what} at byte {}", self.at))
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.at).copied()
    }

    fn skip_whitespace(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.at += 1;
        }
    }

    fn eat(&mut self, literal: &str) -> bool {
        let hit = self.bytes[self.at..].starts_with(literal.as_bytes());
        if hit {
            self.at += literal.len();
        }
        hit
    }

    fn value(&mut self, depth: usize) -> Result<Value> {
        if depth > MAX_DEPTH {
            return Err(self.error("nesting too deep"));
        }
        self.skip_whitespace();
        match self.peek() {
            None => Err(self.error("unexpected end of input")),
            Some(b'n') if self.eat("null") => Ok(Value::Null),
            Some(b't') if self.eat("true") => Ok(Value::Bool(true)),
            Some(b'f') if self.eat("false") => Ok(Value::Bool(false)),
            Some(b'"') => self.string().map(Value::String),
            Some(b'[') => {
                self.at += 1;
                let mut items = Vec::new();
                self.sequence(b']', |p| {
                    items.push(p.value(depth + 1)?);
                    Ok(())
                })?;
                Ok(Value::Array(items))
            }
            Some(b'{') => {
                self.at += 1;
                let mut entries = Vec::new();
                self.sequence(b'}', |p| {
                    if p.peek() != Some(b'"') {
                        return Err(p.error("expected a string key"));
                    }
                    let key = p.string()?;
                    p.skip_whitespace();
                    if p.peek() != Some(b':') {
                        return Err(p.error("expected `:`"));
                    }
                    p.at += 1;
                    entries.push((key, p.value(depth + 1)?));
                    Ok(())
                })?;
                Ok(Value::Object(entries))
            }
            Some(b'-' | b'0'..=b'9') => self.number(),
            Some(_) => Err(self.error("unexpected character")),
        }
    }

    /// Comma-separated items up to `close`; the opener is consumed.
    fn sequence(&mut self, close: u8, mut item: impl FnMut(&mut Self) -> Result<()>) -> Result<()> {
        self.skip_whitespace();
        if self.peek() == Some(close) {
            self.at += 1;
            return Ok(());
        }
        loop {
            self.skip_whitespace();
            item(self)?;
            self.skip_whitespace();
            match self.peek() {
                Some(b',') => self.at += 1,
                Some(c) if c == close => {
                    self.at += 1;
                    return Ok(());
                }
                _ => return Err(self.error("expected `,` or a closing bracket")),
            }
        }
    }

    fn number(&mut self) -> Result<Value> {
        let start = self.at;
        let mut integral = true;
        while let Some(c) = self.peek() {
            match c {
                b'0'..=b'9' | b'-' | b'+' => {}
                b'.' | b'e' | b'E' => integral = false,
                _ => break,
            }
            self.at += 1;
        }
        let text = std::str::from_utf8(&self.bytes[start..self.at])
            .map_err(|_| self.error("invalid number"))?;
        if integral {
            if let Ok(n) = text.parse::<u64>() {
                return Ok(Value::U64(n));
            }
            if let Ok(n) = text.parse::<i64>() {
                return Ok(Value::I64(n));
            }
        }
        // Integers beyond 64 bits fall through to the nearest float.
        match text.parse::<f64>() {
            Ok(x) if x.is_finite() => Ok(Value::F64(x)),
            _ => Err(self.error("invalid number")),
        }
    }

    fn hex4(&mut self) -> Result<u32> {
        let digits = self
            .bytes
            .get(self.at..self.at + 4)
            .and_then(|d| std::str::from_utf8(d).ok())
            .and_then(|d| u32::from_str_radix(d, 16).ok())
            .ok_or_else(|| self.error("invalid \\u escape"))?;
        self.at += 4;
        Ok(digits)
    }

    /// A string; `self.at` is on the opening quote.
    fn string(&mut self) -> Result<String> {
        self.at += 1;
        let mut out = String::new();
        loop {
            let start = self.at;
            while !matches!(self.peek(), None | Some(b'"' | b'\\' | 0..=0x1f)) {
                self.at += 1;
            }
            out.push_str(
                std::str::from_utf8(&self.bytes[start..self.at])
                    .map_err(|_| self.error("invalid UTF-8 in string"))?,
            );
            match self.peek() {
                Some(b'"') => {
                    self.at += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.at += 1;
                    let escape = self
                        .peek()
                        .ok_or_else(|| self.error("unterminated string"))?;
                    self.at += 1;
                    out.push(match escape {
                        b'"' => '"',
                        b'\\' => '\\',
                        b'/' => '/',
                        b'b' => '\u{08}',
                        b'f' => '\u{0c}',
                        b'n' => '\n',
                        b'r' => '\r',
                        b't' => '\t',
                        b'u' => self.unicode_escape()?,
                        _ => return Err(self.error("invalid escape")),
                    });
                }
                Some(_) => return Err(self.error("control character in string")),
                None => return Err(self.error("unterminated string")),
            }
        }
    }

    /// The code point of a `\uXXXX` escape (the `\u` is consumed),
    /// joining a surrogate pair.
    fn unicode_escape(&mut self) -> Result<char> {
        let high = self.hex4()?;
        let code = if (0xd800..0xdc00).contains(&high) {
            if !self.eat("\\u") {
                return Err(self.error("lone surrogate"));
            }
            let low = self.hex4()?;
            if !(0xdc00..0xe000).contains(&low) {
                return Err(self.error("lone surrogate"));
            }
            0x10000 + ((high - 0xd800) << 10) + (low - 0xdc00)
        } else {
            high
        };
        char::from_u32(code).ok_or_else(|| self.error("invalid code point"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use serde::{Deserialize, Serialize};

    fn fallback() -> u32 {
        7
    }

    #[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
    struct Inner(u64, i64);

    #[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
    struct Wrapper(f64);

    #[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
    struct Unit;

    #[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
    enum Shape {
        Dot,
        Circle(f64),
        Rect(u32, u32),
        Label {
            text: String,
            #[serde(default)]
            size: u8,
        },
    }

    #[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
    struct Outer {
        pub id: u64,
        neg: i64,
        pub(crate) ratio: f64,
        name: String,
        maybe: Option<Box<Inner>>,
        grid: [[Vec<f64>; 2]; 3],
        pairs: Vec<(u32, bool)>,
        map: std::collections::BTreeMap<String, Vec<u8>>,
        shapes: Vec<Shape>,
        wrapper: Wrapper,
        unit: Unit,
        #[serde(default)]
        extra: Vec<u8>,
        #[serde(default = "fallback")]
        knob: u32,
        #[serde(skip)]
        scratch: u32,
    }

    fn sample() -> Outer {
        Outer {
            id: u64::MAX,
            neg: i64::MIN,
            ratio: 0.1 + 0.2,
            name: "tab\t \"quoted\" \\ é \u{1F600} \u{01}".into(),
            maybe: Some(Box::new(Inner(1 << 63, -5))),
            grid: [
                [vec![1.0, 1e21], vec![]],
                [vec![f64::MIN_POSITIVE], vec![-0.0]],
                [vec![5e-324, f64::MAX], vec![1.0 / 3.0]],
            ],
            pairs: vec![(1, true), (2, false)],
            map: [("k".to_owned(), vec![1, 2])].into_iter().collect(),
            shapes: vec![
                Shape::Dot,
                Shape::Circle(2.5),
                Shape::Rect(3, 4),
                Shape::Label {
                    text: "t".into(),
                    size: 9,
                },
            ],
            wrapper: Wrapper(6.02e23),
            unit: Unit,
            extra: vec![1],
            knob: 3,
            scratch: 99,
        }
    }

    #[test]
    fn every_shape_round_trips_bit_for_bit() {
        let original = sample();
        for text in [
            to_string(&original).unwrap(),
            to_string_pretty(&original).unwrap(),
        ] {
            let back: Outer = from_str(&text).unwrap();
            let mut expected = original.clone();
            expected.scratch = 0; // skipped
            assert_eq!(back, expected);
            assert_eq!(back.grid[1][1][0].to_bits(), (-0.0f64).to_bits());
            assert_eq!(to_string(&back).unwrap(), to_string(&original).unwrap());
        }
        assert_eq!(
            to_vec(&original).unwrap(),
            to_string(&original).unwrap().into_bytes()
        );
        let mut sink = Vec::new();
        to_writer(&mut sink, &original).unwrap();
        assert_eq!(from_slice::<Outer>(&sink).unwrap().id, u64::MAX);
    }

    #[test]
    fn text_follows_the_published_conventions() {
        assert_eq!(to_string(&Shape::Dot).unwrap(), r#""Dot""#);
        assert_eq!(to_string(&Shape::Circle(1.0)).unwrap(), r#"{"Circle":1.0}"#);
        assert_eq!(to_string(&Shape::Rect(1, 2)).unwrap(), r#"{"Rect":[1,2]}"#);
        assert_eq!(to_string(&Inner(1, -1)).unwrap(), "[1,-1]");
        assert_eq!(to_string(&Wrapper(f64::NAN)).unwrap(), "null");
        assert_eq!(to_string_pretty(&Inner(1, -1)).unwrap(), "[\n  1,\n  -1\n]");
        assert_eq!(to_string_pretty(&Vec::<u8>::new()).unwrap(), "[]");
    }

    #[test]
    fn defaults_unknown_fields_and_absent_options() {
        let text = r#"{"Label": {"text": "x", "ignored": [1, {"a": null}]}}"#;
        assert_eq!(
            from_str::<Shape>(text).unwrap(),
            Shape::Label {
                text: "x".into(),
                size: 0
            }
        );
        #[derive(Debug, PartialEq, Deserialize)]
        struct Sparse {
            maybe: Option<u8>,
            #[serde(default = "fallback")]
            knob: u32,
        }
        assert_eq!(
            from_str::<Sparse>("{}").unwrap(),
            Sparse {
                maybe: None,
                knob: 7
            }
        );
    }

    #[test]
    fn malformed_input_is_an_error_never_a_panic() {
        for bad in [
            "",
            "{",
            "[1,",
            "[1 2]",
            r#"{"a" 1}"#,
            r#"{1: 2}"#,
            "nul",
            "\"abc",
            "\"\\q\"",
            "\"\\ud800\"",
            "1 2",
            "-",
            "1e999",
            "\"\u{01}\"",
            r#"{"Circle": "x"}"#,
            r#"{"Nope": 1}"#,
            r#"{"Rect": [1]}"#,
        ] {
            assert!(from_str::<Shape>(bad).is_err(), "{bad:?}");
        }
        assert!(from_str::<u8>("256").is_err());
        assert!(from_str::<u64>("-1").is_err());
        assert!(from_slice::<String>(b"\"\xff\"").is_err());
        let deep = "[".repeat(MAX_DEPTH + 2);
        assert!(from_str::<Value>(&deep).is_err());
        assert_eq!(
            from_str::<f64>("18446744073709551616").unwrap(),
            18446744073709551616.0
        );
        assert_eq!(
            from_str::<String>(r#""\ud83d\ude00\u00e9\/""#).unwrap(),
            "\u{1F600}é/"
        );
    }
}
