//! Offline shim of `serde_json`: prints and parses the `serde` shim's
//! [`Value`] tree as JSON. Supports exactly the entry points this
//! workspace uses: [`to_string`], [`to_string_pretty`], [`from_str`].

use serde::{Deserialize, Serialize, Value};
use std::fmt;

pub use serde::Value as JsonValue;

/// Error raised by JSON printing or parsing.
#[derive(Debug, Clone)]
pub struct Error {
    msg: String,
}

impl Error {
    fn new(msg: impl fmt::Display) -> Self {
        Self {
            msg: msg.to_string(),
        }
    }
}

impl fmt::Display for Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "JSON error: {}", self.msg)
    }
}

impl std::error::Error for Error {}

/// Serializes a value to compact JSON.
pub fn to_string<T: Serialize + ?Sized>(value: &T) -> Result<String, Error> {
    let mut out = String::new();
    write_value(&mut out, &value.to_value(), None, 0)?;
    Ok(out)
}

/// Serializes a value to human-indented JSON.
pub fn to_string_pretty<T: Serialize + ?Sized>(value: &T) -> Result<String, Error> {
    let mut out = String::new();
    write_value(&mut out, &value.to_value(), Some(2), 0)?;
    Ok(out)
}

/// Parses a value from JSON text.
pub fn from_str<'de, T: Deserialize<'de>>(s: &str) -> Result<T, Error> {
    let value = parse(s)?;
    T::from_value(&value).map_err(Error::new)
}

// ---------------------------------------------------------------------------
// Printing
// ---------------------------------------------------------------------------

fn write_escaped(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
}

fn write_float(out: &mut String, f: f64) -> Result<(), Error> {
    if !f.is_finite() {
        return Err(Error::new("cannot serialize non-finite float"));
    }
    if f == f.trunc() && f.abs() < 1e15 {
        // Match serde_json's `1.0` rendering for integral floats.
        out.push_str(&format!("{:.1}", f));
    } else {
        out.push_str(&format!("{f}"));
    }
    Ok(())
}

fn write_value(
    out: &mut String,
    v: &Value,
    indent: Option<usize>,
    level: usize,
) -> Result<(), Error> {
    match v {
        Value::Null => out.push_str("null"),
        Value::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
        Value::UInt(n) => out.push_str(&n.to_string()),
        Value::Int(n) => out.push_str(&n.to_string()),
        Value::Float(f) => write_float(out, *f)?,
        Value::Str(s) => write_escaped(out, s),
        Value::Seq(items) => {
            if items.is_empty() {
                out.push_str("[]");
                return Ok(());
            }
            out.push('[');
            for (i, item) in items.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                if let Some(w) = indent {
                    out.push('\n');
                    out.push_str(&" ".repeat(w * (level + 1)));
                }
                write_value(out, item, indent, level + 1)?;
            }
            if let Some(w) = indent {
                out.push('\n');
                out.push_str(&" ".repeat(w * level));
            }
            out.push(']');
        }
        Value::Map(entries) => {
            if entries.is_empty() {
                out.push_str("{}");
                return Ok(());
            }
            out.push('{');
            for (i, (k, val)) in entries.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                if let Some(w) = indent {
                    out.push('\n');
                    out.push_str(&" ".repeat(w * (level + 1)));
                }
                write_escaped(out, k);
                out.push(':');
                if indent.is_some() {
                    out.push(' ');
                }
                write_value(out, val, indent, level + 1)?;
            }
            if let Some(w) = indent {
                out.push('\n');
                out.push_str(&" ".repeat(w * level));
            }
            out.push('}');
        }
    }
    Ok(())
}

// ---------------------------------------------------------------------------
// Parsing
// ---------------------------------------------------------------------------

/// Deepest nesting of arrays and objects [`parse`] accepts (the value
/// real serde_json uses). The parser recurses once per level, so
/// without a bound one short line of `[` overflows the thread's stack.
const MAX_DEPTH: usize = 128;

struct Parser<'a> {
    text: &'a str,
    bytes: &'a [u8],
    pos: usize,
    depth: usize,
}

/// Parses JSON text into a [`Value`].
pub fn parse(s: &str) -> Result<Value, Error> {
    let mut p = Parser {
        text: s,
        bytes: s.as_bytes(),
        pos: 0,
        depth: 0,
    };
    p.skip_ws();
    let v = p.value()?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return Err(Error::new(format!("trailing characters at byte {}", p.pos)));
    }
    Ok(v)
}

impl<'a> Parser<'a> {
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

    fn expect(&mut self, b: u8) -> Result<(), Error> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(Error::new(format!(
                "expected `{}` at byte {}",
                b as char, self.pos
            )))
        }
    }

    fn literal(&mut self, lit: &str, v: Value) -> Result<Value, Error> {
        if self.bytes[self.pos..].starts_with(lit.as_bytes()) {
            self.pos += lit.len();
            Ok(v)
        } else {
            Err(Error::new(format!("invalid literal at byte {}", self.pos)))
        }
    }

    fn value(&mut self) -> Result<Value, Error> {
        match self.peek() {
            Some(b'n') => self.literal("null", Value::Null),
            Some(b't') => self.literal("true", Value::Bool(true)),
            Some(b'f') => self.literal("false", Value::Bool(false)),
            Some(b'"') => self.string().map(Value::Str),
            Some(b'[') => self.nested(Self::array),
            Some(b'{') => self.nested(Self::object),
            Some(b) if b == b'-' || b.is_ascii_digit() => self.number(),
            _ => Err(Error::new(format!("unexpected input at byte {}", self.pos))),
        }
    }

    fn nested(&mut self, parse: fn(&mut Self) -> Result<Value, Error>) -> Result<Value, Error> {
        if self.depth == MAX_DEPTH {
            return Err(Error::new(format!(
                "recursion limit exceeded at byte {}",
                self.pos
            )));
        }
        self.depth += 1;
        let v = parse(self);
        self.depth -= 1;
        v
    }

    fn string(&mut self) -> Result<String, Error> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            // Copy the run up to the next `"` or `\`. Both stop bytes are
            // ASCII, so the run ends on a char boundary of the input.
            let rest = &self.text[self.pos..];
            let run = rest
                .bytes()
                .position(|b| b == b'"' || b == b'\\')
                .unwrap_or(rest.len());
            out.push_str(&rest[..run]);
            self.pos += run;
            let b = self
                .peek()
                .ok_or_else(|| Error::new("unterminated string"))?;
            self.pos += 1;
            if b == b'"' {
                return Ok(out);
            }
            let esc = self
                .peek()
                .ok_or_else(|| Error::new("unterminated escape"))?;
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
                        .ok_or_else(|| Error::new("truncated \\u escape"))?;
                    let code =
                        u32::from_str_radix(std::str::from_utf8(hex).map_err(Error::new)?, 16)
                            .map_err(Error::new)?;
                    self.pos += 4;
                    // Surrogate pairs are not produced by our
                    // printer; accept lone BMP escapes only.
                    out.push(char::from_u32(code).ok_or_else(|| Error::new("invalid \\u escape"))?);
                }
                other => return Err(Error::new(format!("invalid escape `\\{}`", other as char))),
            }
        }
    }

    fn number(&mut self) -> Result<Value, Error> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        while matches!(self.peek(), Some(b) if b.is_ascii_digit()) {
            self.pos += 1;
        }
        let mut is_float = false;
        if self.peek() == Some(b'.') {
            is_float = true;
            self.pos += 1;
            while matches!(self.peek(), Some(b) if b.is_ascii_digit()) {
                self.pos += 1;
            }
        }
        if matches!(self.peek(), Some(b'e') | Some(b'E')) {
            is_float = true;
            self.pos += 1;
            if matches!(self.peek(), Some(b'+') | Some(b'-')) {
                self.pos += 1;
            }
            while matches!(self.peek(), Some(b) if b.is_ascii_digit()) {
                self.pos += 1;
            }
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos]).map_err(Error::new)?;
        if !is_float {
            if let Ok(n) = text.parse::<u64>() {
                return Ok(Value::UInt(n));
            }
            if let Ok(n) = text.parse::<i64>() {
                return Ok(Value::Int(n));
            }
        }
        text.parse::<f64>()
            .map(Value::Float)
            .map_err(|e| Error::new(format!("invalid number `{text}`: {e}")))
    }

    fn array(&mut self) -> Result<Value, Error> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Value::Seq(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Value::Seq(items));
                }
                _ => {
                    return Err(Error::new(format!(
                        "expected `,` or `]` at byte {}",
                        self.pos
                    )))
                }
            }
        }
    }

    fn object(&mut self) -> Result<Value, Error> {
        self.expect(b'{')?;
        let mut entries = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Value::Map(entries));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            let value = self.value()?;
            entries.push((key, value));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Value::Map(entries));
                }
                _ => {
                    return Err(Error::new(format!(
                        "expected `,` or `}}` at byte {}",
                        self.pos
                    )))
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrips_scalars() {
        assert_eq!(to_string(&42u64).unwrap(), "42");
        assert_eq!(to_string(&-3i64).unwrap(), "-3");
        assert_eq!(to_string(&1.5f64).unwrap(), "1.5");
        assert_eq!(to_string(&42.0f64).unwrap(), "42.0");
        assert_eq!(to_string(&true).unwrap(), "true");
        assert_eq!(to_string(&"a\"b".to_string()).unwrap(), "\"a\\\"b\"");
        let x: f64 = from_str("42.0").unwrap();
        assert_eq!(x, 42.0);
        let y: u64 = from_str("17").unwrap();
        assert_eq!(y, 17);
    }

    #[test]
    fn roundtrips_containers() {
        let v = vec![(1usize, "a".to_string()), (2, "b".to_string())];
        let json = to_string(&v).unwrap();
        assert_eq!(json, "[[1,\"a\"],[2,\"b\"]]");
        let back: Vec<(usize, String)> = from_str(&json).unwrap();
        assert_eq!(back, v);
        let opt: Option<u64> = from_str("null").unwrap();
        assert_eq!(opt, None);
    }

    #[test]
    fn pretty_printing_indents() {
        let v = vec![1u64, 2];
        let json = to_string_pretty(&v).unwrap();
        assert_eq!(json, "[\n  1,\n  2\n]");
    }

    #[test]
    fn parses_whitespace_and_escapes() {
        let v: Vec<String> = from_str(" [ \"a\\n\" , \"\\u0041\" ] ").unwrap();
        assert_eq!(v, vec!["a\n".to_string(), "A".to_string()]);
        // 2-, 3- and 4-byte UTF-8 right next to escapes, at the start and
        // at the end of a string.
        for (json, want) in [
            ("\"é\\n→\"", "é\n→"),
            ("\"𝄞\\\"\"", "𝄞\""),
            ("\"\\t𝄞é\"", "\t𝄞é"),
            ("\"→\\\\\\u0041é\"", "→\\Aé"),
            ("\"\\u00e9→𝄞\"", "é→𝄞"),
            ("\"é\"", "é"),
            ("\"\"", ""),
        ] {
            let s: String = from_str(json).unwrap();
            assert_eq!(s, want, "{json}");
            let back: String = from_str(&to_string(&s).unwrap()).unwrap();
            assert_eq!(back, want, "{json}");
        }
        for (bad, kind) in [
            ("\"é", "unterminated string"),
            ("\"ab→\\", "unterminated escape"),
            ("\"𝄞\\u00", "truncated \\u escape"),
            ("\"é\\qé\"", "invalid escape `\\q`"),
        ] {
            let err = parse(bad).unwrap_err().to_string();
            assert!(err.contains(kind), "{bad} -> {err}");
        }
    }

    #[test]
    fn decodes_a_multi_megabyte_string_in_linear_time() {
        // Rescanning the rest of the input for every byte would take hours
        // on ~4.5 MB; the run-at-a-time scan takes milliseconds.
        let text = "plain ascii é→𝄞 \"quoted\"\n".repeat(150_000);
        let json = to_string(&text).unwrap();
        let (tx, rx) = std::sync::mpsc::channel();
        let worker = std::thread::spawn(move || {
            let _ = tx.send(from_str::<String>(&json).map(|s| s == text));
        });
        let decoded = rx
            .recv_timeout(std::time::Duration::from_secs(5))
            .expect("decode did not finish within the 5 s watchdog");
        assert!(decoded.unwrap(), "decoded string differs");
        worker.join().unwrap();
    }

    #[test]
    fn nesting_deeper_than_the_limit_is_an_error() {
        let nest = |n: usize| "[".repeat(n) + &"]".repeat(n);
        assert!(parse(&nest(MAX_DEPTH)).is_ok());
        let err = parse(&nest(MAX_DEPTH + 1)).unwrap_err().to_string();
        assert!(err.contains("recursion limit exceeded"), "{err}");
        // Far past the limit: an error, not a stack overflow.
        let deep = format!("{{\"a\": {}}}", nest(100_000));
        assert!(parse(&deep).is_err());
    }
}
