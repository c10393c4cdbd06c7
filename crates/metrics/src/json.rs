//! Minimal JSON support for experiment records.
//!
//! The workspace builds without crates.io access, so instead of serde this
//! module hand-rolls the small amount of JSON the harness needs: a
//! [`Value`] tree, a recursive-descent parser, and a pretty emitter whose
//! output (2-space indent, `\n` separators) matches what the seed's
//! serde_json-produced `results/*.json` files look like.

use std::fmt;

/// A parsed JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Any JSON number (integers above 2^53 lose precision).
    Number(f64),
    /// A string.
    String(String),
    /// An array.
    Array(Vec<Value>),
    /// An object; insertion order is preserved.
    Object(Vec<(String, Value)>),
}

impl Value {
    /// The object's field `name`, if this is an object that has it.
    pub fn get(&self, name: &str) -> Option<&Value> {
        match self {
            Value::Object(fields) => fields.iter().find(|(k, _)| k == name).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The string payload, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::String(s) => Some(s),
            _ => None,
        }
    }

    /// The numeric payload, if this is a number.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Value::Number(n) => Some(*n),
            _ => None,
        }
    }

    /// The element list, if this is an array.
    pub fn as_array(&self) -> Option<&[Value]> {
        match self {
            Value::Array(items) => Some(items),
            _ => None,
        }
    }
}

/// Error produced by [`parse`]: what went wrong and the byte offset.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JsonError {
    msg: String,
    offset: usize,
}

impl JsonError {
    pub(crate) fn new(msg: impl Into<String>, offset: usize) -> Self {
        JsonError {
            msg: msg.into(),
            offset,
        }
    }

    /// Byte offset in the input where the error was detected.
    pub fn offset(&self) -> usize {
        self.offset
    }
}

impl fmt::Display for JsonError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} at byte {}", self.msg, self.offset)
    }
}

impl std::error::Error for JsonError {}

/// Deepest array/object nesting [`parse`] accepts. The parser recurses
/// once per level, so an unbounded depth lets a hostile input overflow
/// the stack; the records this crate reads nest at most six levels.
pub const MAX_DEPTH: usize = 128;

/// Parses a complete JSON document (trailing whitespace allowed, trailing
/// garbage rejected, nesting deeper than [`MAX_DEPTH`] rejected).
pub fn parse(input: &str) -> Result<Value, JsonError> {
    let mut p = Parser {
        bytes: input.as_bytes(),
        pos: 0,
        depth: 0,
    };
    p.skip_ws();
    let v = p.value()?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return Err(JsonError::new("trailing characters", p.pos));
    }
    Ok(v)
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
    /// Arrays and objects currently open.
    depth: usize,
}

impl Parser<'_> {
    fn skip_ws(&mut self) {
        while let Some(&b) = self.bytes.get(self.pos) {
            if matches!(b, b' ' | b'\t' | b'\n' | b'\r') {
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
            Err(JsonError::new(
                format!("expected `{}`", char::from(b)),
                self.pos,
            ))
        }
    }

    fn expect_literal(&mut self, lit: &str, v: Value) -> Result<Value, JsonError> {
        if self.bytes[self.pos..].starts_with(lit.as_bytes()) {
            self.pos += lit.len();
            Ok(v)
        } else {
            Err(JsonError::new(format!("expected `{lit}`"), self.pos))
        }
    }

    fn value(&mut self) -> Result<Value, JsonError> {
        match self.peek() {
            Some(b'{') => self.nested(Self::object),
            Some(b'[') => self.nested(Self::array),
            Some(b'"') => Ok(Value::String(self.string()?)),
            Some(b't') => self.expect_literal("true", Value::Bool(true)),
            Some(b'f') => self.expect_literal("false", Value::Bool(false)),
            Some(b'n') => self.expect_literal("null", Value::Null),
            Some(b'-' | b'0'..=b'9') => self.number(),
            _ => Err(JsonError::new("expected a JSON value", self.pos)),
        }
    }

    /// Parses one array or object one level deeper, refusing to go past
    /// [`MAX_DEPTH`].
    fn nested(
        &mut self,
        parse: fn(&mut Self) -> Result<Value, JsonError>,
    ) -> Result<Value, JsonError> {
        if self.depth == MAX_DEPTH {
            return Err(JsonError::new(
                format!("nesting deeper than {MAX_DEPTH} levels"),
                self.pos,
            ));
        }
        self.depth += 1;
        let v = parse(self);
        self.depth -= 1;
        v
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
                _ => return Err(JsonError::new("expected `,` or `}`", self.pos)),
            }
        }
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
                _ => return Err(JsonError::new("expected `,` or `]`", self.pos)),
            }
        }
    }

    fn string(&mut self) -> Result<String, JsonError> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            match self.peek() {
                None => return Err(JsonError::new("unterminated string", self.pos)),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    let esc = self
                        .peek()
                        .ok_or_else(|| JsonError::new("unterminated escape", self.pos))?;
                    self.pos += 1;
                    match esc {
                        b'"' => out.push('"'),
                        b'\\' => out.push('\\'),
                        b'/' => out.push('/'),
                        b'b' => out.push('\u{0008}'),
                        b'f' => out.push('\u{000C}'),
                        b'n' => out.push('\n'),
                        b'r' => out.push('\r'),
                        b't' => out.push('\t'),
                        b'u' => out.push(self.unicode_escape()?),
                        _ => {
                            return Err(JsonError::new("invalid escape", self.pos - 1));
                        }
                    }
                }
                Some(_) => {
                    // Consume one UTF-8 scalar (input is a &str, so byte
                    // boundaries are valid char boundaries).
                    let rest = &self.bytes[self.pos..];
                    let s = std::str::from_utf8(rest)
                        .map_err(|_| JsonError::new("invalid UTF-8", self.pos))?;
                    let c = s.chars().next().expect("non-empty by peek");
                    out.push(c);
                    self.pos += c.len_utf8();
                }
            }
        }
    }

    fn unicode_escape(&mut self) -> Result<char, JsonError> {
        let u = self.hex4()?;
        // Surrogate pair handling for completeness.
        if (0xD800..0xDC00).contains(&u) {
            if self.bytes[self.pos..].starts_with(b"\\u") {
                self.pos += 2;
                let lo = self.hex4()?;
                if (0xDC00..0xE000).contains(&lo) {
                    let c = 0x10000 + ((u - 0xD800) << 10) + (lo - 0xDC00);
                    return char::from_u32(c)
                        .ok_or_else(|| JsonError::new("invalid surrogate pair", self.pos));
                }
            }
            return Err(JsonError::new("lone surrogate", self.pos));
        }
        char::from_u32(u).ok_or_else(|| JsonError::new("invalid \\u escape", self.pos))
    }

    fn hex4(&mut self) -> Result<u32, JsonError> {
        let mut v = 0u32;
        for _ in 0..4 {
            let b = self
                .peek()
                .ok_or_else(|| JsonError::new("truncated \\u escape", self.pos))?;
            let digit = (b as char)
                .to_digit(16)
                .ok_or_else(|| JsonError::new("invalid hex digit", self.pos))?;
            v = v * 16 + digit;
            self.pos += 1;
        }
        Ok(v)
    }

    fn number(&mut self) -> Result<Value, JsonError> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        while matches!(self.peek(), Some(b'0'..=b'9')) {
            self.pos += 1;
        }
        if self.peek() == Some(b'.') {
            self.pos += 1;
            while matches!(self.peek(), Some(b'0'..=b'9')) {
                self.pos += 1;
            }
        }
        if matches!(self.peek(), Some(b'e' | b'E')) {
            self.pos += 1;
            if matches!(self.peek(), Some(b'+' | b'-')) {
                self.pos += 1;
            }
            while matches!(self.peek(), Some(b'0'..=b'9')) {
                self.pos += 1;
            }
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos]).expect("digits are ASCII");
        text.parse::<f64>()
            .map(Value::Number)
            .map_err(|_| JsonError::new("invalid number", start))
    }
}

impl Value {
    /// Serializes the value as pretty-printed JSON (2-space indent, the
    /// same shape serde_json's pretty writer produces), such that
    /// [`parse`]`(v.to_json()?) == v` for every representable value.
    ///
    /// # Errors
    ///
    /// Returns an error if the tree contains a non-finite number (`NaN`,
    /// `±inf`) — JSON has no representation for those, and silently
    /// emitting `null` would break the round-trip guarantee.
    pub fn to_json(&self) -> Result<String, JsonError> {
        let mut out = String::new();
        self.write_pretty(&mut out, 0)?;
        Ok(out)
    }

    /// Serializes the value on a single line with no whitespace.
    ///
    /// # Errors
    ///
    /// Rejects non-finite numbers, like [`Value::to_json`].
    pub fn to_json_compact(&self) -> Result<String, JsonError> {
        let mut out = String::new();
        self.write_compact(&mut out)?;
        Ok(out)
    }

    fn number_text(n: f64) -> Result<String, JsonError> {
        if n.is_finite() {
            Ok(format_f64(n))
        } else {
            Err(JsonError::new("non-finite number is not valid JSON", 0))
        }
    }

    fn write_pretty(&self, out: &mut String, indent: usize) -> Result<(), JsonError> {
        let pad = "  ".repeat(indent);
        match self {
            Value::Null => out.push_str("null"),
            Value::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Value::Number(n) => out.push_str(&Value::number_text(*n)?),
            Value::String(s) => escape_into(out, s),
            Value::Array(items) => {
                if items.is_empty() {
                    out.push_str("[]");
                } else {
                    out.push_str("[\n");
                    for (i, item) in items.iter().enumerate() {
                        out.push_str(&pad);
                        out.push_str("  ");
                        item.write_pretty(out, indent + 1)?;
                        out.push_str(if i + 1 < items.len() { ",\n" } else { "\n" });
                    }
                    out.push_str(&pad);
                    out.push(']');
                }
            }
            Value::Object(fields) => {
                if fields.is_empty() {
                    out.push_str("{}");
                } else {
                    out.push_str("{\n");
                    for (i, (key, val)) in fields.iter().enumerate() {
                        out.push_str(&pad);
                        out.push_str("  ");
                        escape_into(out, key);
                        out.push_str(": ");
                        val.write_pretty(out, indent + 1)?;
                        out.push_str(if i + 1 < fields.len() { ",\n" } else { "\n" });
                    }
                    out.push_str(&pad);
                    out.push('}');
                }
            }
        }
        Ok(())
    }

    fn write_compact(&self, out: &mut String) -> Result<(), JsonError> {
        match self {
            Value::Null => out.push_str("null"),
            Value::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Value::Number(n) => out.push_str(&Value::number_text(*n)?),
            Value::String(s) => escape_into(out, s),
            Value::Array(items) => {
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    item.write_compact(out)?;
                }
                out.push(']');
            }
            Value::Object(fields) => {
                out.push('{');
                for (i, (key, val)) in fields.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    escape_into(out, key);
                    out.push(':');
                    val.write_compact(out)?;
                }
                out.push('}');
            }
        }
        Ok(())
    }
}

/// Appends `s` to `out` as a quoted JSON string with required escapes.
pub fn escape_into(out: &mut String, s: &str) {
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

/// Formats an `f64` the way serde_json does: integral values keep a
/// trailing `.0`, everything else uses the shortest round-trip form.
pub fn format_f64(v: f64) -> String {
    if v.is_finite() && v == v.trunc() && v.abs() < 1e15 {
        format!("{v:.1}")
    } else {
        format!("{v}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn parses_scalars() {
        assert_eq!(parse("null").unwrap(), Value::Null);
        assert_eq!(parse(" true ").unwrap(), Value::Bool(true));
        assert_eq!(parse("false").unwrap(), Value::Bool(false));
        assert_eq!(parse("-12.5e2").unwrap(), Value::Number(-1250.0));
        assert_eq!(parse(r#""a\nbA""#).unwrap(), Value::String("a\nbA".into()));
    }

    #[test]
    fn parses_nested_structures() {
        let v = parse(r#"{"a": [1, 2, {"b": "c"}], "d": null}"#).unwrap();
        assert_eq!(v.get("d"), Some(&Value::Null));
        let arr = v.get("a").unwrap().as_array().unwrap();
        assert_eq!(arr[1], Value::Number(2.0));
        assert_eq!(arr[2].get("b").unwrap().as_str(), Some("c"));
    }

    #[test]
    fn rejects_malformed_input() {
        assert!(parse("{not json").is_err());
        assert!(parse("[1, 2").is_err());
        assert!(parse("{} extra").is_err());
        assert!(parse(r#""unterminated"#).is_err());
        assert!(parse("").is_err());
        let err = parse("[1, x]").unwrap_err();
        assert!(err.to_string().contains("byte 4"), "{err}");
    }

    #[test]
    fn rejects_deep_nesting_without_overflowing_the_stack() {
        let deep = "[".repeat(100_000);
        let err = parse(&deep).unwrap_err();
        assert_eq!(err.offset(), MAX_DEPTH, "{err}");
        let objects = r#"{"a":"#.repeat(100_000);
        assert!(parse(&objects).is_err());
        // The limit itself still parses.
        let at_limit = format!("{}{}", "[".repeat(MAX_DEPTH), "]".repeat(MAX_DEPTH));
        assert!(parse(&at_limit).is_ok());
    }

    #[test]
    fn surrogate_pairs_round_trip() {
        assert_eq!(parse(r#""😀""#).unwrap(), Value::String("\u{1F600}".into()));
        assert!(parse(r#""\ud83d""#).is_err());
    }

    #[test]
    fn escape_and_format_helpers() {
        let mut s = String::new();
        escape_into(&mut s, "a\"b\\c\n\u{1}");
        assert_eq!(s, r#""a\"b\\c\n\u0001""#);
        assert_eq!(format_f64(2.0), "2.0");
        assert_eq!(format_f64(0.222), "0.222");
        assert_eq!(format_f64(1_000_000.0), "1000000.0");
    }

    #[test]
    fn to_json_pretty_shape() {
        let v = Value::Object(vec![
            ("n".into(), Value::Number(1.5)),
            (
                "a".into(),
                Value::Array(vec![Value::Bool(true), Value::Null]),
            ),
            ("e".into(), Value::Object(vec![])),
        ]);
        let expected = "{\n  \"n\": 1.5,\n  \"a\": [\n    true,\n    null\n  ],\n  \"e\": {}\n}";
        assert_eq!(v.to_json().unwrap(), expected);
        assert_eq!(
            v.to_json_compact().unwrap(),
            r#"{"n":1.5,"a":[true,null],"e":{}}"#
        );
    }

    #[test]
    fn to_json_rejects_non_finite_floats() {
        assert!(Value::Number(f64::NAN).to_json().is_err());
        assert!(Value::Number(f64::INFINITY).to_json_compact().is_err());
        let nested = Value::Object(vec![(
            "x".into(),
            Value::Array(vec![Value::Number(f64::NEG_INFINITY)]),
        )]);
        assert!(nested.to_json().is_err());
    }

    #[test]
    fn tricky_strings_round_trip() {
        for s in [
            "quote\" backslash\\ slash/ newline\n tab\t",
            "control\u{0} \u{1f} high\u{7f}",
            "unicode é 😀 \u{2028} \u{fffd}",
            "",
        ] {
            let v = Value::String(s.into());
            assert_eq!(parse(&v.to_json().unwrap()).unwrap(), v);
        }
    }

    /// Deterministically expands one `u64` seed into an arbitrary JSON
    /// value tree (depth-bounded), covering every variant plus the nasty
    /// string and number corners.
    fn arbitrary_value(seed: u64) -> Value {
        // SplitMix64: cheap, and every step decorrelates from the seed.
        struct Mix(u64);
        impl Mix {
            fn next(&mut self) -> u64 {
                self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
                let mut z = self.0;
                z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
                z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
                z ^ (z >> 31)
            }
        }

        const CHARS: &[char] = &[
            'a', 'Z', '0', ' ', '"', '\\', '/', '\n', '\r', '\t', '\u{0}', '\u{1}', '\u{1f}',
            '\u{7f}', 'é', 'λ', '😀', '\u{2028}', '\u{fffd}',
        ];

        fn gen_string(rng: &mut Mix) -> String {
            let len = (rng.next() % 12) as usize;
            (0..len)
                .map(|_| CHARS[(rng.next() as usize) % CHARS.len()])
                .collect()
        }

        fn gen_number(rng: &mut Mix) -> f64 {
            match rng.next() % 4 {
                0 => rng.next() as i32 as f64,                // integral, any sign
                1 => (rng.next() % 1_000_000) as f64 / 997.0, // fractional
                2 => f64::from_bits(rng.next() % (1 << 52)),  // subnormal-ish
                _ => {
                    // Arbitrary bit pattern, rerolled until finite.
                    loop {
                        let v = f64::from_bits(rng.next());
                        if v.is_finite() {
                            return v;
                        }
                    }
                }
            }
        }

        fn gen_value(rng: &mut Mix, depth: u32) -> Value {
            let pick = if depth == 0 {
                rng.next() % 4 // leaves only
            } else {
                rng.next() % 6
            };
            match pick {
                0 => Value::Null,
                1 => Value::Bool(rng.next().is_multiple_of(2)),
                2 => Value::Number(gen_number(rng)),
                3 => Value::String(gen_string(rng)),
                4 => {
                    let len = (rng.next() % 4) as usize;
                    Value::Array((0..len).map(|_| gen_value(rng, depth - 1)).collect())
                }
                _ => {
                    let len = (rng.next() % 4) as usize;
                    Value::Object(
                        (0..len)
                            .map(|_| (gen_string(rng), gen_value(rng, depth - 1)))
                            .collect(),
                    )
                }
            }
        }

        let mut rng = Mix(seed);
        gen_value(&mut rng, 4)
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]

        /// `parse(to_json(x)) == x` for arbitrary value trees, in both the
        /// pretty and the compact rendering.
        #[test]
        fn serializer_round_trips(seed in proptest::num::u64::ANY) {
            let v = arbitrary_value(seed);
            let pretty = v.to_json().expect("finite by construction");
            prop_assert_eq!(&parse(&pretty).unwrap(), &v);
            let compact = v.to_json_compact().expect("finite by construction");
            prop_assert_eq!(&parse(&compact).unwrap(), &v);
        }
    }
}
