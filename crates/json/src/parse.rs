//! Strict recursive-descent JSON parser, and the lexer it shares with
//! the borrowed field scanner ([`crate::scan`]).
//!
//! [`Lexer`] is the one token layer: whitespace, literals, string bodies
//! (validated in one pass and borrowed unless they hold an escape), number
//! tokens (grammar-checked, converted only on demand), and a validating
//! skip over a whole value that allocates nothing. [`parse`] builds a tree
//! from it and the scanner pulls fields from it, so both readers accept
//! exactly the same documents under the same [`MAX_DEPTH`].

use crate::scan::{Number, Value};
use crate::Json;
use std::borrow::Cow;
use std::fmt;

/// Maximum nesting depth — a guard against stack exhaustion on adversarial
/// log lines fed through the LogQL `json` stage.
pub(crate) const MAX_DEPTH: usize = 128;

/// A parse failure with byte offset.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JsonParseError {
    /// Byte offset of the failure.
    pub offset: usize,
    /// What went wrong.
    pub message: String,
}

impl fmt::Display for JsonParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "json parse error at byte {}: {}", self.offset, self.message)
    }
}

impl std::error::Error for JsonParseError {}

/// Parse a complete JSON document. Trailing non-whitespace is an error.
pub fn parse(input: &str) -> Result<Json, JsonParseError> {
    let mut lex = Lexer::new(input);
    lex.skip_ws();
    let v = value(&mut lex, 0)?;
    lex.finish()?;
    Ok(v)
}

fn value(lex: &mut Lexer<'_>, depth: usize) -> Result<Json, JsonParseError> {
    lex.check_depth(depth)?;
    Ok(match lex.peek() {
        Some(b'{') => {
            let mut fields = Vec::new();
            lex.object(|lex, key| {
                let key = key.unescape().into_owned();
                fields.push((key, value(lex, depth + 1)?));
                Ok(())
            })?;
            Json::Object(fields)
        }
        Some(b'[') => {
            let mut items = Vec::new();
            lex.array(|lex| {
                items.push(value(lex, depth + 1)?);
                Ok(())
            })?;
            Json::Array(items)
        }
        _ => match lex.scalar()? {
            Value::Null => Json::Null,
            Value::Bool(b) => Json::Bool(b),
            Value::Number(n) => Json::Number(n.as_f64()),
            Value::String(s) => Json::String(s.into_owned()),
            Value::Nested => unreachable!("a scalar is never nested"),
        },
    })
}

/// A string literal's body as it stands in the document, already
/// validated: `escaped` says whether [`RawStr::unescape`] has work to do.
#[derive(Clone, Copy)]
pub(crate) struct RawStr<'a> {
    text: &'a str,
    escaped: bool,
}

impl<'a> RawStr<'a> {
    /// The string's value: the body itself unless it holds an escape.
    pub(crate) fn unescape(self) -> Cow<'a, str> {
        if !self.escaped {
            return Cow::Borrowed(self.text);
        }
        // The lexer validated every escape, so this pass only decodes.
        let mut out = String::with_capacity(self.text.len());
        let mut rest = self.text;
        while let Some(i) = rest.find('\\') {
            out.push_str(&rest[..i]);
            let (c, len) = match rest.as_bytes()[i + 1] {
                b'b' => ('\u{08}', 2),
                b'f' => ('\u{0c}', 2),
                b'n' => ('\n', 2),
                b'r' => ('\r', 2),
                b't' => ('\t', 2),
                b'u' => {
                    let hi = hex4(&rest[i + 2..i + 6]);
                    if (0xd800..0xdc00).contains(&hi) {
                        let lo = hex4(&rest[i + 8..i + 12]);
                        (surrogate_pair(hi, lo), 12)
                    } else {
                        (char::from_u32(hi).expect("validated: not a surrogate"), 6)
                    }
                }
                quoted => (char::from(quoted), 2), // `"`, `\` or `/`
            };
            out.push(c);
            rest = &rest[i + len..];
        }
        out.push_str(rest);
        Cow::Owned(out)
    }
}

fn hex4(digits: &str) -> u32 {
    u32::from_str_radix(digits, 16).expect("validated: four hex digits")
}

fn surrogate_pair(hi: u32, lo: u32) -> char {
    char::from_u32(0x10000 + ((hi - 0xd800) << 10) + (lo - 0xdc00)).expect("a pair is a scalar")
}

/// The token layer under [`parse`] and [`crate::scan`].
pub(crate) struct Lexer<'a> {
    src: &'a str,
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Lexer<'a> {
    pub(crate) fn new(src: &'a str) -> Self {
        Self { src, bytes: src.as_bytes(), pos: 0 }
    }

    fn err(&self, msg: impl Into<String>) -> JsonParseError {
        JsonParseError { offset: self.pos, message: msg.into() }
    }

    pub(crate) fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    /// Step over the byte [`peek`](Self::peek) just returned.
    pub(crate) fn bump(&mut self) {
        self.pos += 1;
    }

    pub(crate) fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    /// The end of a document: nothing but whitespace may follow.
    pub(crate) fn finish(&mut self) -> Result<(), JsonParseError> {
        self.skip_ws();
        if self.pos != self.bytes.len() {
            return Err(self.err("trailing characters after document"));
        }
        Ok(())
    }

    fn check_depth(&self, depth: usize) -> Result<(), JsonParseError> {
        if depth > MAX_DEPTH {
            return Err(self.err("maximum nesting depth exceeded"));
        }
        Ok(())
    }

    fn expect(&mut self, b: u8) -> Result<(), JsonParseError> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.err(format!("expected {:?}", b as char)))
        }
    }

    fn literal(&mut self, lit: &str) -> Result<(), JsonParseError> {
        if self.bytes[self.pos..].starts_with(lit.as_bytes()) {
            self.pos += lit.len();
            Ok(())
        } else {
            Err(self.err(format!("invalid literal, expected {lit}")))
        }
    }

    /// An object from its `{`: for each field, `field` gets the key with
    /// the lexer parked on the field's value, and must consume the value.
    fn object(
        &mut self,
        mut field: impl FnMut(&mut Self, RawStr<'a>) -> Result<(), JsonParseError>,
    ) -> Result<(), JsonParseError> {
        self.expect(b'{')?;
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(());
        }
        loop {
            let key = self.key()?;
            field(self, key)?;
            if !self.more_fields()? {
                return Ok(());
            }
        }
    }

    /// A field's key and its `:`, leaving the lexer on the value.
    pub(crate) fn key(&mut self) -> Result<RawStr<'a>, JsonParseError> {
        self.skip_ws();
        let key = self.string()?;
        self.skip_ws();
        self.expect(b':')?;
        self.skip_ws();
        Ok(key)
    }

    /// After a field's value: `,` (true, another field follows) or the
    /// closing `}` (false).
    pub(crate) fn more_fields(&mut self) -> Result<bool, JsonParseError> {
        self.skip_ws();
        match self.peek() {
            Some(b',') => {
                self.pos += 1;
                Ok(true)
            }
            Some(b'}') => {
                self.pos += 1;
                Ok(false)
            }
            _ => Err(self.err("expected ',' or '}' in object")),
        }
    }

    /// An array from its `[`: `item` must consume each element.
    fn array(
        &mut self,
        mut item: impl FnMut(&mut Self) -> Result<(), JsonParseError>,
    ) -> Result<(), JsonParseError> {
        self.expect(b'[')?;
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(());
        }
        loop {
            self.skip_ws();
            item(self)?;
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(());
                }
                _ => return Err(self.err("expected ',' or ']' in array")),
            }
        }
    }

    /// Validate a whole value at `depth` and step over it, allocating
    /// nothing.
    pub(crate) fn skip_value(&mut self, depth: usize) -> Result<(), JsonParseError> {
        self.check_depth(depth)?;
        match self.peek() {
            Some(b'{') => self.object(|lex, _| lex.skip_value(depth + 1)),
            Some(b'[') => self.array(|lex| lex.skip_value(depth + 1)),
            Some(b'"') => self.string().map(drop),
            _ => self.scalar().map(drop),
        }
    }

    /// A string, number, `true`, `false` or `null`.
    pub(crate) fn scalar(&mut self) -> Result<Value<'a>, JsonParseError> {
        match self.peek() {
            Some(b'"') => Ok(Value::String(self.string()?.unescape())),
            Some(b't') => self.literal("true").map(|()| Value::Bool(true)),
            Some(b'f') => self.literal("false").map(|()| Value::Bool(false)),
            Some(b'n') => self.literal("null").map(|()| Value::Null),
            Some(b'-' | b'0'..=b'9') => self.number().map(Value::Number),
            Some(c) => Err(self.err(format!("unexpected character {:?}", c as char))),
            None => Err(self.err("unexpected end of input")),
        }
    }

    /// A string literal, validated in full: escapes (surrogates paired),
    /// no raw control characters, terminated.
    fn string(&mut self) -> Result<RawStr<'a>, JsonParseError> {
        self.expect(b'"')?;
        let start = self.pos;
        let mut escaped = false;
        loop {
            match self.peek() {
                None => return Err(self.err("unterminated string")),
                Some(b'"') => {
                    // `"` is ASCII, so both ends sit on char boundaries.
                    let text = &self.src[start..self.pos];
                    self.pos += 1;
                    return Ok(RawStr { text, escaped });
                }
                Some(b'\\') => {
                    self.pos += 1;
                    self.escape()?;
                    escaped = true;
                }
                Some(c) if c < 0x20 => return Err(self.err("raw control character in string")),
                // A byte of a multi-byte scalar is never `"` or `\`.
                Some(_) => self.pos += 1,
            }
        }
    }

    /// One escape, from the byte after its `\`.
    fn escape(&mut self) -> Result<(), JsonParseError> {
        match self.peek() {
            Some(b'"' | b'\\' | b'/' | b'b' | b'f' | b'n' | b'r' | b't') => {
                self.pos += 1;
                Ok(())
            }
            Some(b'u') => {
                self.pos += 1;
                let hi = self.hex4()?;
                if (0xd800..0xdc00).contains(&hi) {
                    // Surrogate pair: expect \uXXXX low half.
                    if self.peek() != Some(b'\\') {
                        return Err(self.err("unpaired high surrogate"));
                    }
                    self.pos += 1;
                    if self.peek() != Some(b'u') {
                        return Err(self.err("unpaired high surrogate"));
                    }
                    self.pos += 1;
                    let lo = self.hex4()?;
                    if !(0xdc00..0xe000).contains(&lo) {
                        return Err(self.err("invalid low surrogate"));
                    }
                } else if (0xdc00..0xe000).contains(&hi) {
                    return Err(self.err("unexpected low surrogate"));
                }
                Ok(())
            }
            _ => Err(self.err("invalid escape")),
        }
    }

    fn hex4(&mut self) -> Result<u32, JsonParseError> {
        if self.pos + 4 > self.bytes.len() {
            return Err(self.err("truncated \\u escape"));
        }
        let mut v = 0u32;
        for _ in 0..4 {
            let b = self.bytes[self.pos];
            let d = match b {
                b'0'..=b'9' => (b - b'0') as u32,
                b'a'..=b'f' => (b - b'a' + 10) as u32,
                b'A'..=b'F' => (b - b'A' + 10) as u32,
                _ => return Err(self.err("invalid hex digit in \\u escape")),
            };
            v = v * 16 + d;
            self.pos += 1;
        }
        Ok(v)
    }

    /// A number token, checked against JSON's grammar.
    fn number(&mut self) -> Result<Number<'a>, JsonParseError> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        // Integer part: either a single 0 or a nonzero-led digit run.
        match self.peek() {
            Some(b'0') => self.pos += 1,
            Some(b'1'..=b'9') => {
                while matches!(self.peek(), Some(b'0'..=b'9')) {
                    self.pos += 1;
                }
            }
            _ => return Err(self.err("invalid number")),
        }
        if self.peek() == Some(b'.') {
            self.pos += 1;
            let frac_start = self.pos;
            while matches!(self.peek(), Some(b'0'..=b'9')) {
                self.pos += 1;
            }
            if self.pos == frac_start {
                return Err(self.err("missing digits after decimal point"));
            }
        }
        if matches!(self.peek(), Some(b'e' | b'E')) {
            self.pos += 1;
            if matches!(self.peek(), Some(b'+' | b'-')) {
                self.pos += 1;
            }
            let exp_start = self.pos;
            while matches!(self.peek(), Some(b'0'..=b'9')) {
                self.pos += 1;
            }
            if self.pos == exp_start {
                return Err(self.err("missing digits in exponent"));
            }
        }
        // Every byte of the token is ASCII.
        Ok(Number::new(&self.src[start..self.pos]))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_paper_redfish_event() {
        // The Figure 2 payload shape.
        let raw = r#"{
            "metrics": {
                "messages": [{
                    "Context": "x1203c1b0",
                    "Events": [{
                        "EventTimestamp": "2022-03-03T01:47:57+00:00",
                        "Severity": "Warning",
                        "Message": "Sensor 'A' of the redundant leak sensors in the 'Front' cabinet zone has detected a leak.",
                        "MessageId": "CrayAlerts.1.0.CabinetLeakDetected",
                        "MessageArgs": ["A, Front"],
                        "OriginOfCondition": {"@odata.id": "/redfish/v1/Chassis/Enclosure"}
                    }]
                }]
            }
        }"#;
        let v = parse(raw).unwrap();
        assert_eq!(
            v.pointer("/metrics/messages/0/Context").and_then(Json::as_str),
            Some("x1203c1b0")
        );
        assert_eq!(
            v.pointer("/metrics/messages/0/Events/0/MessageId").and_then(Json::as_str),
            Some("CrayAlerts.1.0.CabinetLeakDetected")
        );
    }

    #[test]
    fn scalars() {
        assert_eq!(parse("null").unwrap(), Json::Null);
        assert_eq!(parse("true").unwrap(), Json::Bool(true));
        assert_eq!(parse("false").unwrap(), Json::Bool(false));
        assert_eq!(parse("-12.5e2").unwrap(), Json::Number(-1250.0));
        assert_eq!(parse(r#""hi""#).unwrap(), Json::String("hi".into()));
    }

    #[test]
    fn escapes_and_unicode() {
        assert_eq!(parse(r#""a\nb\t\"c\"""#).unwrap(), Json::String("a\nb\t\"c\"".into()));
        assert_eq!(parse(r#""A""#).unwrap(), Json::String("A".into()));
        // Surrogate pair: 💩 U+1F4A9
        assert_eq!(parse(r#""💩""#).unwrap(), Json::String("💩".into()));
        assert!(parse(r#""\ud83d""#).is_err());
        assert!(parse(r#""\udca9""#).is_err());
    }

    #[test]
    fn rejects_malformed() {
        for s in [
            "",
            "{",
            "[1,",
            "{\"a\":}",
            "{a:1}",
            "01",
            "1.",
            "1e",
            "\"\x01\"",
            "nulll",
            "[]x",
            "{\"a\":1,}",
        ] {
            assert!(parse(s).is_err(), "should reject {s:?}");
        }
    }

    #[test]
    fn depth_guard() {
        let deep = "[".repeat(200) + &"]".repeat(200);
        assert!(parse(&deep).is_err());
        let ok = "[".repeat(100) + &"]".repeat(100);
        assert!(parse(&ok).is_ok());
    }

    #[test]
    fn whitespace_tolerance() {
        let v = parse(" \t\n{ \"a\" : [ 1 , 2 ] } \r\n").unwrap();
        assert_eq!(v.pointer("/a/1").and_then(Json::as_f64), Some(2.0));
    }

    #[test]
    fn roundtrip_dump_parse() {
        let original = r#"{"a":[1,2.5,null,true,"x\ny"],"b":{"c":{}}}"#;
        let v = parse(original).unwrap();
        assert_eq!(parse(&v.dump()).unwrap(), v);
    }

    #[test]
    fn utf8_passthrough() {
        let v = parse(r#""naïve — 日本語""#).unwrap();
        assert_eq!(v.as_str(), Some("naïve — 日本語"));
    }
}
