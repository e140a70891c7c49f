//! Minimal, dependency-free JSON for the wire protocol.
//!
//! Hand-rolled on purpose: the serving layer is std-only, and the subset
//! we need is small — but it must be *exact*. The two properties the
//! protocol leans on:
//!
//! * **Determinism** — object keys keep insertion order, numbers have a
//!   single canonical rendering, so equal values encode to equal bytes.
//!   The "same request + same seed → byte-identical response" contract
//!   reduces to value equality.
//! * **Float fidelity** — non-integral numbers are written with 17+
//!   significant digits (`{:.17e}`, the TSV cache convention), which
//!   round-trips every finite `f64` bit-exactly. Integral values within
//!   `±2^53` are written as plain integers. `NaN`/`±Inf` have no JSON
//!   rendering and are rejected at encode time; numeric literals that
//!   overflow to infinity are rejected at parse time.

use std::fmt::Write as _;

/// A JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Any number (JSON does not distinguish integers).
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object; insertion-ordered, duplicate keys are not rejected but
    /// lookups return the first match.
    Obj(Vec<(String, Json)>),
}

/// Encoding or parsing failure.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum JsonError {
    /// Attempted to encode `NaN` or `±Inf` (no JSON rendering exists).
    NonFiniteNumber,
    /// Malformed input at byte `pos`.
    Syntax {
        /// Byte offset of the failure.
        pos: usize,
        /// What the parser expected there.
        expected: &'static str,
    },
    /// Nesting beyond [`MAX_DEPTH`].
    TooDeep,
}

impl std::fmt::Display for JsonError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            JsonError::NonFiniteNumber => write!(f, "NaN/Inf cannot be encoded as JSON"),
            JsonError::Syntax { pos, expected } => {
                write!(f, "JSON syntax error at byte {pos}: expected {expected}")
            }
            JsonError::TooDeep => write!(f, "JSON nesting exceeds depth limit"),
        }
    }
}

impl std::error::Error for JsonError {}

/// Maximum nesting depth accepted by the parser (the protocol needs 4).
pub const MAX_DEPTH: usize = 128;

impl Json {
    /// Convenience string constructor.
    pub fn str(s: impl Into<String>) -> Json {
        Json::Str(s.into())
    }

    /// Convenience number constructor.
    pub fn num(n: f64) -> Json {
        Json::Num(n)
    }

    /// First value under `key` if this is an object.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The number, if this is a number.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Num(n) => Some(*n),
            _ => None,
        }
    }

    /// The number as a non-negative integer, if integral and in range.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Json::Num(n) if n.fract() == 0.0 && *n >= 0.0 && *n <= 9.007_199_254_740_992e15 => {
                Some(*n as u64)
            }
            _ => None,
        }
    }

    /// The string, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The boolean, if this is a boolean.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Json::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// The elements, if this is an array.
    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(items) => Some(items),
            _ => None,
        }
    }

    /// Structural equality with bit-exact number comparison (`-0.0 ≠
    /// 0.0`, distinguishes what [`PartialEq`] on `f64` cannot). This is
    /// the equality the round-trip property is stated in.
    pub fn bit_eq(&self, other: &Json) -> bool {
        match (self, other) {
            (Json::Null, Json::Null) => true,
            (Json::Bool(a), Json::Bool(b)) => a == b,
            (Json::Num(a), Json::Num(b)) => a.to_bits() == b.to_bits(),
            (Json::Str(a), Json::Str(b)) => a == b,
            (Json::Arr(a), Json::Arr(b)) => {
                a.len() == b.len() && a.iter().zip(b).all(|(x, y)| x.bit_eq(y))
            }
            (Json::Obj(a), Json::Obj(b)) => {
                a.len() == b.len()
                    && a.iter()
                        .zip(b)
                        .all(|((ka, va), (kb, vb))| ka == kb && va.bit_eq(vb))
            }
            _ => false,
        }
    }

    /// Encodes to canonical JSON text (no insignificant whitespace).
    ///
    /// # Errors
    ///
    /// [`JsonError::NonFiniteNumber`] if any number is `NaN` or `±Inf`.
    pub fn encode(&self) -> Result<String, JsonError> {
        let mut out = String::new();
        self.encode_into(&mut out)?;
        Ok(out)
    }

    fn encode_into(&self, out: &mut String) -> Result<(), JsonError> {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(true) => out.push_str("true"),
            Json::Bool(false) => out.push_str("false"),
            Json::Num(n) => write_number(*n, out)?,
            Json::Str(s) => write_string(s, out),
            Json::Arr(items) => {
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    item.encode_into(out)?;
                }
                out.push(']');
            }
            Json::Obj(fields) => {
                out.push('{');
                for (i, (key, value)) in fields.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    write_string(key, out);
                    out.push(':');
                    value.encode_into(out)?;
                }
                out.push('}');
            }
        }
        Ok(())
    }

    /// Parses one JSON value; the whole input must be consumed (trailing
    /// whitespace allowed).
    ///
    /// # Errors
    ///
    /// [`JsonError::Syntax`] on malformed input (including `NaN`/`Inf`
    /// literals, which JSON does not have, and numeric literals that
    /// overflow `f64`), [`JsonError::TooDeep`] past [`MAX_DEPTH`].
    pub fn parse(text: &str) -> Result<Json, JsonError> {
        let mut p = Parser {
            bytes: text.as_bytes(),
            pos: 0,
        };
        p.skip_ws();
        let value = p.value(0)?;
        p.skip_ws();
        if p.pos != p.bytes.len() {
            return Err(JsonError::Syntax {
                pos: p.pos,
                expected: "end of input",
            });
        }
        Ok(value)
    }
}

/// Canonical number rendering: integral values in `±2^53` as plain
/// integers (`-0.0` keeps its sign as `-0`), everything else as `{:.17e}`.
fn write_number(n: f64, out: &mut String) -> Result<(), JsonError> {
    if !n.is_finite() {
        return Err(JsonError::NonFiniteNumber);
    }
    if n == 0.0 {
        out.push_str(if n.is_sign_negative() { "-0" } else { "0" });
    } else if n.fract() == 0.0 && n.abs() <= 9_007_199_254_740_992.0 {
        let _ = write!(out, "{}", n as i64);
    } else {
        let _ = write!(out, "{n:.17e}");
    }
    Ok(())
}

fn write_string(s: &str, out: &mut String) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            '\u{08}' => out.push_str("\\b"),
            '\u{0C}' => out.push_str("\\f"),
            c if (c as u32) < 0x20 => {
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
}

impl<'a> Parser<'a> {
    fn err(&self, expected: &'static str) -> JsonError {
        JsonError::Syntax {
            pos: self.pos,
            expected,
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

    fn eat(&mut self, b: u8) -> bool {
        if self.bytes.get(self.pos) == Some(&b) {
            self.pos += 1;
            true
        } else {
            false
        }
    }

    fn literal(&mut self, lit: &'static [u8], expected: &'static str) -> Result<(), JsonError> {
        // lint: allow(panic, self.pos <= self.bytes.len() is a parser invariant; range slice cannot overrun)
        if self.bytes[self.pos..].starts_with(lit) {
            self.pos += lit.len();
            Ok(())
        } else {
            Err(self.err(expected))
        }
    }

    fn value(&mut self, depth: usize) -> Result<Json, JsonError> {
        if depth > MAX_DEPTH {
            return Err(JsonError::TooDeep);
        }
        match self.bytes.get(self.pos) {
            Some(b'n') => self.literal(b"null", "null").map(|_| Json::Null),
            Some(b't') => self.literal(b"true", "true").map(|_| Json::Bool(true)),
            Some(b'f') => self.literal(b"false", "false").map(|_| Json::Bool(false)),
            Some(b'"') => self.string().map(Json::Str),
            Some(b'[') => self.array(depth),
            Some(b'{') => self.object(depth),
            Some(b'-') | Some(b'0'..=b'9') => self.number(),
            _ => Err(self.err("a JSON value")),
        }
    }

    fn array(&mut self, depth: usize) -> Result<Json, JsonError> {
        self.pos += 1; // '['
        let mut items = Vec::new();
        self.skip_ws();
        if self.eat(b']') {
            return Ok(Json::Arr(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value(depth + 1)?);
            self.skip_ws();
            if self.eat(b']') {
                return Ok(Json::Arr(items));
            }
            if !self.eat(b',') {
                return Err(self.err("',' or ']'"));
            }
        }
    }

    fn object(&mut self, depth: usize) -> Result<Json, JsonError> {
        self.pos += 1; // '{'
        let mut fields = Vec::new();
        self.skip_ws();
        if self.eat(b'}') {
            return Ok(Json::Obj(fields));
        }
        loop {
            self.skip_ws();
            if self.bytes.get(self.pos) != Some(&b'"') {
                return Err(self.err("object key string"));
            }
            let key = self.string()?;
            self.skip_ws();
            if !self.eat(b':') {
                return Err(self.err("':'"));
            }
            self.skip_ws();
            let value = self.value(depth + 1)?;
            fields.push((key, value));
            self.skip_ws();
            if self.eat(b'}') {
                return Ok(Json::Obj(fields));
            }
            if !self.eat(b',') {
                return Err(self.err("',' or '}'"));
            }
        }
    }

    fn string(&mut self) -> Result<String, JsonError> {
        self.pos += 1; // opening quote
        let mut out = String::new();
        loop {
            let start = self.pos;
            // Fast path: consume a run of plain UTF-8.
            while let Some(&b) = self.bytes.get(self.pos) {
                if b == b'"' || b == b'\\' || b < 0x20 {
                    break;
                }
                self.pos += 1;
            }
            if self.pos > start {
                // The input is a &str, so slices on char boundaries are
                // valid UTF-8; '"' and '\\' are boundaries.
                out.push_str(
                    // lint: allow(panic, start <= pos <= len by the scan loop above; range slice cannot overrun)
                    std::str::from_utf8(&self.bytes[start..self.pos])
                        .map_err(|_| self.err("valid UTF-8"))?,
                );
            }
            match self.bytes.get(self.pos) {
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    self.escape(&mut out)?;
                }
                _ => return Err(self.err("closing '\"'")),
            }
        }
    }

    fn escape(&mut self, out: &mut String) -> Result<(), JsonError> {
        let b = *self
            .bytes
            .get(self.pos)
            .ok_or(self.err("escape character"))?;
        self.pos += 1;
        match b {
            b'"' => out.push('"'),
            b'\\' => out.push('\\'),
            b'/' => out.push('/'),
            b'b' => out.push('\u{08}'),
            b'f' => out.push('\u{0C}'),
            b'n' => out.push('\n'),
            b'r' => out.push('\r'),
            b't' => out.push('\t'),
            b'u' => {
                let hi = self.hex4()?;
                let c = if (0xD800..0xDC00).contains(&hi) {
                    // High surrogate: must be followed by \uXXXX low.
                    if !(self.eat(b'\\') && self.eat(b'u')) {
                        return Err(self.err("low surrogate escape"));
                    }
                    let lo = self.hex4()?;
                    if !(0xDC00..0xE000).contains(&lo) {
                        return Err(self.err("low surrogate value"));
                    }
                    let combined = 0x10000 + ((hi - 0xD800) << 10) + (lo - 0xDC00);
                    char::from_u32(combined).ok_or(self.err("valid code point"))?
                } else if (0xDC00..0xE000).contains(&hi) {
                    return Err(self.err("high surrogate before low"));
                } else {
                    char::from_u32(hi).ok_or(self.err("valid code point"))?
                };
                out.push(c);
            }
            _ => return Err(self.err("valid escape")),
        }
        Ok(())
    }

    fn hex4(&mut self) -> Result<u32, JsonError> {
        let mut value = 0u32;
        for _ in 0..4 {
            let b = *self.bytes.get(self.pos).ok_or(self.err("4 hex digits"))?;
            let digit = match b {
                b'0'..=b'9' => (b - b'0') as u32,
                b'a'..=b'f' => (b - b'a') as u32 + 10,
                b'A'..=b'F' => (b - b'A') as u32 + 10,
                _ => return Err(self.err("hex digit")),
            };
            value = value * 16 + digit;
            self.pos += 1;
        }
        Ok(value)
    }

    fn number(&mut self) -> Result<Json, JsonError> {
        let start = self.pos;
        self.eat(b'-');
        // Integer part: 0, or nonzero digit followed by digits.
        match self.bytes.get(self.pos) {
            Some(b'0') => {
                self.pos += 1;
            }
            Some(b'1'..=b'9') => {
                while matches!(self.bytes.get(self.pos), Some(b'0'..=b'9')) {
                    self.pos += 1;
                }
            }
            _ => return Err(self.err("digit")),
        }
        if self.eat(b'.') {
            if !matches!(self.bytes.get(self.pos), Some(b'0'..=b'9')) {
                return Err(self.err("fraction digit"));
            }
            while matches!(self.bytes.get(self.pos), Some(b'0'..=b'9')) {
                self.pos += 1;
            }
        }
        if matches!(self.bytes.get(self.pos), Some(b'e') | Some(b'E')) {
            self.pos += 1;
            if matches!(self.bytes.get(self.pos), Some(b'+') | Some(b'-')) {
                self.pos += 1;
            }
            if !matches!(self.bytes.get(self.pos), Some(b'0'..=b'9')) {
                return Err(self.err("exponent digit"));
            }
            while matches!(self.bytes.get(self.pos), Some(b'0'..=b'9')) {
                self.pos += 1;
            }
        }
        // lint: allow(panic, slice spans only ASCII digit/sign bytes just scanned, so bounds and UTF-8 both hold)
        let text = std::str::from_utf8(&self.bytes[start..self.pos]).expect("ASCII number");
        let n: f64 = text.parse().map_err(|_| JsonError::Syntax {
            pos: start,
            expected: "a number",
        })?;
        // A syntactically valid literal like 1e999 overflows to Inf;
        // the protocol rejects it rather than smuggling Inf into values.
        if !n.is_finite() {
            return Err(JsonError::Syntax {
                pos: start,
                expected: "a finite number",
            });
        }
        Ok(Json::Num(n))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip(v: &Json) -> Json {
        Json::parse(&v.encode().unwrap()).unwrap()
    }

    #[test]
    fn scalars_roundtrip() {
        for v in [
            Json::Null,
            Json::Bool(true),
            Json::Bool(false),
            Json::num(0.0),
            Json::num(-0.0),
            Json::num(1.0),
            Json::num(-17.0),
            Json::num(0.1 + 0.2),
            Json::num(1e-300),
            Json::num(f64::MIN_POSITIVE / 8.0), // subnormal
            Json::num(9_007_199_254_740_992.0),
            Json::num(9_007_199_254_740_994.0), // > 2^53, forced to e-notation
            Json::str(""),
            Json::str("plain"),
            Json::str("esc \" \\ \n \r \t \u{08} \u{0C} \u{1b} ü 円 🦀"),
        ] {
            assert!(roundtrip(&v).bit_eq(&v), "{v:?}");
        }
    }

    #[test]
    fn canonical_number_forms() {
        assert_eq!(Json::num(3.0).encode().unwrap(), "3");
        assert_eq!(Json::num(-0.0).encode().unwrap(), "-0");
        assert_eq!(Json::num(0.5).encode().unwrap(), "5.00000000000000000e-1");
    }

    #[test]
    fn nested_structures_roundtrip() {
        let v = Json::Obj(vec![
            ("id".into(), Json::num(7.0)),
            (
                "x".into(),
                Json::Arr(vec![Json::num(0.25), Json::Null, Json::str("s")]),
            ),
            (
                "inner".into(),
                Json::Obj(vec![("feasible".into(), Json::Bool(true))]),
            ),
        ]);
        assert!(roundtrip(&v).bit_eq(&v));
        assert_eq!(
            v.encode().unwrap(),
            r#"{"id":7,"x":[2.50000000000000000e-1,null,"s"],"inner":{"feasible":true}}"#
        );
    }

    #[test]
    fn nan_and_inf_are_rejected_both_ways() {
        for bad in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            assert_eq!(Json::num(bad).encode(), Err(JsonError::NonFiniteNumber));
        }
        for text in ["NaN", "Infinity", "-Infinity", "nan", "1e999", "-1e999"] {
            assert!(Json::parse(text).is_err(), "{text} must not parse");
        }
    }

    #[test]
    fn malformed_inputs_are_rejected() {
        for text in [
            "",
            "{",
            "[1,]",
            "{\"a\":}",
            "{\"a\" 1}",
            "\"unterminated",
            "01",
            "1.",
            "+1",
            "- 1",
            "\"bad \\q escape\"",
            "\"\\ud800\"", // lone high surrogate
            "\"\\udc00\"", // lone low surrogate
            "[1] trailing",
            "tru",
            "nulll",
        ] {
            assert!(Json::parse(text).is_err(), "{text:?} must not parse");
        }
    }

    #[test]
    fn standard_json_with_whitespace_parses() {
        let v = Json::parse(" { \"a\" : [ 1 , 2.5e1 , true ] , \"b\" : null } ").unwrap();
        assert_eq!(v.get("a").unwrap().as_arr().unwrap().len(), 3);
        assert_eq!(
            v.get("a").unwrap().as_arr().unwrap()[1].as_f64(),
            Some(25.0)
        );
        assert_eq!(v.get("b"), Some(&Json::Null));
    }

    #[test]
    fn surrogate_pairs_decode() {
        assert_eq!(Json::parse("\"\\ud83e\\udd80\"").unwrap(), Json::str("🦀"));
    }

    #[test]
    fn depth_limit_is_enforced() {
        let deep = "[".repeat(MAX_DEPTH + 2) + &"]".repeat(MAX_DEPTH + 2);
        assert_eq!(Json::parse(&deep), Err(JsonError::TooDeep));
    }

    #[test]
    fn as_u64_bounds() {
        assert_eq!(Json::num(5.0).as_u64(), Some(5));
        assert_eq!(Json::num(-1.0).as_u64(), None);
        assert_eq!(Json::num(1.5).as_u64(), None);
        assert_eq!(Json::num(9.007_199_254_740_992e15).as_u64(), Some(1 << 53));
    }
}
