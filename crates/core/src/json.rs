//! Minimal self-contained JSON support.
//!
//! The build environment has no registry access, so instead of the
//! `serde`/`serde_json` pair the runtime ships this small module: a
//! [`Value`] tree, a recursive-descent parser, and a pretty printer.
//! Object key order is preserved (objects are association lists), so
//! emitted artifacts are byte-stable across runs.

use std::fmt;

/// The deepest array/object nesting [`Value::parse`] accepts. A trace
/// nests four levels per nested runtime, so real documents stay far
/// below it; past it the parser returns an error instead of recursing
/// until the stack overflows.
pub const MAX_DEPTH: usize = 128;

/// A JSON document node.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// `null`
    Null,
    /// `true` / `false`
    Bool(bool),
    /// Any JSON number (stored as `f64`; integers up to 2^53 are exact).
    Number(f64),
    /// A string.
    String(String),
    /// An array.
    Array(Vec<Value>),
    /// An object, with insertion-ordered keys.
    Object(Vec<(String, Value)>),
}

/// Error produced by [`Value::parse`] or typed decoding.
#[derive(Debug, Clone)]
pub struct JsonError {
    msg: String,
    /// Byte offset in the input, when known.
    pos: Option<usize>,
}

impl JsonError {
    /// A decoding error with a free-form message.
    pub fn msg(m: impl Into<String>) -> Self {
        JsonError {
            msg: m.into(),
            pos: None,
        }
    }
}

impl fmt::Display for JsonError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.pos {
            Some(p) => write!(f, "json error at byte {p}: {}", self.msg),
            None => write!(f, "json error: {}", self.msg),
        }
    }
}

impl std::error::Error for JsonError {}

impl Value {
    /// The array items, if this is an array.
    pub fn as_array(&self) -> Option<&Vec<Value>> {
        match self {
            Value::Array(v) => Some(v),
            _ => None,
        }
    }

    /// The numeric value, if this is a number.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Value::Number(n) => Some(*n),
            _ => None,
        }
    }

    /// The numeric value as an unsigned integer, if exact.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Value::Number(n) if *n >= 0.0 && n.fract() == 0.0 && *n <= 2f64.powi(53) => {
                Some(*n as u64)
            }
            _ => None,
        }
    }

    /// The string contents, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::String(s) => Some(s),
            _ => None,
        }
    }

    /// The boolean, if this is a bool.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Value::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// Object field lookup.
    pub fn get(&self, key: &str) -> Option<&Value> {
        match self {
            Value::Object(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// Required typed field helpers for decoders.
    pub fn field(&self, key: &str) -> Result<&Value, JsonError> {
        self.get(key)
            .ok_or_else(|| JsonError::msg(format!("missing field '{key}'")))
    }

    /// Parses a JSON document. Nesting deeper than [`MAX_DEPTH`] is an
    /// error.
    pub fn parse(s: &str) -> Result<Value, JsonError> {
        let mut p = Parser {
            bytes: s.as_bytes(),
            pos: 0,
            depth: 0,
        };
        p.skip_ws();
        let v = p.value()?;
        p.skip_ws();
        if p.pos != p.bytes.len() {
            return Err(p.err("trailing characters"));
        }
        Ok(v)
    }

    /// Serializes with two-space indentation.
    pub fn pretty(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, 0, true);
        out
    }

    /// Serializes compactly (no whitespace).
    pub fn compact(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, 0, false);
        out
    }

    fn write(&self, out: &mut String, depth: usize, pretty: bool) {
        match self {
            Value::Null => out.push_str("null"),
            Value::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Value::Number(n) => write_number(out, *n),
            Value::String(s) => write_string(out, s),
            Value::Array(items) => {
                if items.is_empty() {
                    out.push_str("[]");
                    return;
                }
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    if pretty {
                        out.push('\n');
                        indent(out, depth + 1);
                    }
                    item.write(out, depth + 1, pretty);
                }
                if pretty {
                    out.push('\n');
                    indent(out, depth);
                }
                out.push(']');
            }
            Value::Object(fields) => {
                if fields.is_empty() {
                    out.push_str("{}");
                    return;
                }
                out.push('{');
                for (i, (k, v)) in fields.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    if pretty {
                        out.push('\n');
                        indent(out, depth + 1);
                    }
                    write_string(out, k);
                    out.push(':');
                    if pretty {
                        out.push(' ');
                    }
                    v.write(out, depth + 1, pretty);
                }
                if pretty {
                    out.push('\n');
                    indent(out, depth);
                }
                out.push('}');
            }
        }
    }
}

impl std::ops::Index<&str> for Value {
    type Output = Value;
    fn index(&self, key: &str) -> &Value {
        static NULL: Value = Value::Null;
        self.get(key).unwrap_or(&NULL)
    }
}

impl std::ops::Index<usize> for Value {
    type Output = Value;
    fn index(&self, i: usize) -> &Value {
        static NULL: Value = Value::Null;
        match self {
            Value::Array(v) => v.get(i).unwrap_or(&NULL),
            _ => &NULL,
        }
    }
}

impl From<f64> for Value {
    fn from(v: f64) -> Value {
        Value::Number(v)
    }
}
impl From<u64> for Value {
    fn from(v: u64) -> Value {
        Value::Number(v as f64)
    }
}
impl From<usize> for Value {
    fn from(v: usize) -> Value {
        Value::Number(v as f64)
    }
}
impl From<u32> for Value {
    fn from(v: u32) -> Value {
        Value::Number(v as f64)
    }
}
impl From<bool> for Value {
    fn from(v: bool) -> Value {
        Value::Bool(v)
    }
}
impl From<&str> for Value {
    fn from(v: &str) -> Value {
        Value::String(v.to_string())
    }
}
impl From<String> for Value {
    fn from(v: String) -> Value {
        Value::String(v)
    }
}
impl From<Vec<Value>> for Value {
    fn from(v: Vec<Value>) -> Value {
        Value::Array(v)
    }
}

fn indent(out: &mut String, depth: usize) {
    for _ in 0..depth {
        out.push_str("  ");
    }
}

fn write_number(out: &mut String, n: f64) {
    use fmt::Write as _;
    if !n.is_finite() {
        // JSON has no NaN/Inf; emit null like serde_json's lossy mode.
        out.push_str("null");
    } else if n.fract() == 0.0 && n.abs() < 2f64.powi(53) {
        let _ = write!(out, "{}", n as i64);
    } else {
        let _ = write!(out, "{n}");
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
                use fmt::Write as _;
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
    /// Arrays and objects currently open.
    depth: usize,
}

impl Parser<'_> {
    fn err(&self, msg: &str) -> JsonError {
        JsonError {
            msg: msg.to_string(),
            pos: Some(self.pos),
        }
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

    fn expect(&mut self, b: u8) -> Result<(), JsonError> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.err(&format!("expected '{}'", b as char)))
        }
    }

    fn literal(&mut self, lit: &str, v: Value) -> Result<Value, JsonError> {
        if self.bytes[self.pos..].starts_with(lit.as_bytes()) {
            self.pos += lit.len();
            Ok(v)
        } else {
            Err(self.err(&format!("expected '{lit}'")))
        }
    }

    fn value(&mut self) -> Result<Value, JsonError> {
        match self.peek() {
            Some(b'n') => self.literal("null", Value::Null),
            Some(b't') => self.literal("true", Value::Bool(true)),
            Some(b'f') => self.literal("false", Value::Bool(false)),
            Some(b'"') => Ok(Value::String(self.string()?)),
            Some(b'[') => self.nested(Self::array),
            Some(b'{') => self.nested(Self::object),
            Some(c) if c == b'-' || c.is_ascii_digit() => self.number(),
            _ => Err(self.err("expected a JSON value")),
        }
    }

    /// Parses one array or object one level deeper, refusing to pass
    /// [`MAX_DEPTH`].
    fn nested(
        &mut self,
        parse: fn(&mut Self) -> Result<Value, JsonError>,
    ) -> Result<Value, JsonError> {
        if self.depth == MAX_DEPTH {
            return Err(self.err(&format!("nesting deeper than {MAX_DEPTH} levels")));
        }
        self.depth += 1;
        let v = parse(self);
        self.depth -= 1;
        v
    }

    fn array(&mut self) -> Result<Value, JsonError> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Value::Array(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Value::Array(items));
                }
                _ => return Err(self.err("expected ',' or ']'")),
            }
        }
    }

    fn object(&mut self) -> Result<Value, JsonError> {
        self.expect(b'{')?;
        let mut fields = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Value::Object(fields));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            let val = self.value()?;
            fields.push((key, val));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Value::Object(fields));
                }
                _ => return Err(self.err("expected ',' or '}'")),
            }
        }
    }

    fn string(&mut self) -> Result<String, JsonError> {
        self.expect(b'"')?;
        let mut s = String::new();
        loop {
            let start = self.pos;
            // Fast path: run of plain bytes.
            while let Some(&b) = self.bytes.get(self.pos) {
                if b == b'"' || b == b'\\' || b < 0x20 {
                    break;
                }
                self.pos += 1;
            }
            if self.pos > start {
                s.push_str(
                    std::str::from_utf8(&self.bytes[start..self.pos])
                        .map_err(|_| self.err("invalid utf-8"))?,
                );
            }
            match self.peek() {
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(s);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    let esc = self.peek().ok_or_else(|| self.err("truncated escape"))?;
                    self.pos += 1;
                    match esc {
                        b'"' => s.push('"'),
                        b'\\' => s.push('\\'),
                        b'/' => s.push('/'),
                        b'n' => s.push('\n'),
                        b'r' => s.push('\r'),
                        b't' => s.push('\t'),
                        b'b' => s.push('\u{0008}'),
                        b'f' => s.push('\u{000C}'),
                        b'u' => {
                            let hex = self
                                .bytes
                                .get(self.pos..self.pos + 4)
                                .ok_or_else(|| self.err("truncated \\u escape"))?;
                            let code = u32::from_str_radix(
                                std::str::from_utf8(hex)
                                    .map_err(|_| self.err("invalid \\u escape"))?,
                                16,
                            )
                            .map_err(|_| self.err("invalid \\u escape"))?;
                            self.pos += 4;
                            // Surrogate pairs are not produced by our
                            // writer; map lone surrogates to U+FFFD.
                            s.push(char::from_u32(code).unwrap_or('\u{FFFD}'));
                        }
                        _ => return Err(self.err("unknown escape")),
                    }
                }
                _ => return Err(self.err("unterminated string")),
            }
        }
    }

    fn number(&mut self) -> Result<Value, JsonError> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        while let Some(&b) = self.bytes.get(self.pos) {
            if b.is_ascii_digit() || b == b'.' || b == b'e' || b == b'E' || b == b'+' || b == b'-' {
                self.pos += 1;
            } else {
                break;
            }
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos])
            .map_err(|_| self.err("invalid number"))?;
        text.parse::<f64>()
            .map(Value::Number)
            .map_err(|_| self.err("invalid number"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_scalars() {
        for src in ["null", "true", "false", "0", "-17", "3.25", "\"hi\""] {
            let v = Value::parse(src).unwrap();
            assert_eq!(v.compact(), src);
        }
    }

    #[test]
    fn roundtrip_structures() {
        let src = r#"{"a":[1,2.5,{"b":"x\ny"}],"c":null,"d":[]}"#;
        let v = Value::parse(src).unwrap();
        assert_eq!(v.compact(), src);
        // Pretty output reparses to the same tree.
        assert_eq!(Value::parse(&v.pretty()).unwrap(), v);
    }

    #[test]
    fn float_precision_roundtrips() {
        let d = 0.000123456789;
        let v = Value::Number(d);
        let back = Value::parse(&v.compact()).unwrap();
        assert_eq!(back.as_f64().unwrap(), d);
    }

    #[test]
    fn accessors_and_indexing() {
        let v = Value::parse(r#"{"xs":[10,20],"name":"t","flag":true}"#).unwrap();
        assert_eq!(v["xs"][1].as_u64(), Some(20));
        assert_eq!(v["name"].as_str(), Some("t"));
        assert_eq!(v["flag"].as_bool(), Some(true));
        assert_eq!(v["missing"], Value::Null);
        assert_eq!(v.as_array(), None);
        assert_eq!(v["xs"].as_array().unwrap().len(), 2);
    }

    #[test]
    fn errors_reported() {
        assert!(Value::parse("{\"a\":").is_err());
        assert!(Value::parse("[1,]").is_err());
        assert!(Value::parse("nul").is_err());
        assert!(Value::parse("1 2").is_err());
        assert!(Value::parse("\"unterminated").is_err());
    }

    #[test]
    fn nesting_past_the_cap_is_an_error_not_a_stack_overflow() {
        let deep = "[".repeat(100_000);
        let err = Value::parse(&deep).unwrap_err();
        assert!(
            err.to_string().contains("nesting deeper than 128 levels"),
            "{err}"
        );
        let objects = "{\"a\":".repeat(MAX_DEPTH + 1);
        assert!(Value::parse(&objects)
            .unwrap_err()
            .to_string()
            .contains("nesting deeper"));
        // The cap itself still parses.
        let ok = format!("{}{}", "[".repeat(MAX_DEPTH), "]".repeat(MAX_DEPTH));
        assert!(Value::parse(&ok).is_ok());
    }

    #[test]
    fn escapes_roundtrip() {
        let s = "quote\" back\\ nl\n tab\t ctrl\u{0001} uni\u{00e9}";
        let v = Value::String(s.to_string());
        let back = Value::parse(&v.compact()).unwrap();
        assert_eq!(back.as_str().unwrap(), s);
    }

    #[test]
    fn non_finite_serializes_as_null() {
        let mut out = String::new();
        write_number(&mut out, f64::NAN);
        assert_eq!(out, "null");
    }
}
