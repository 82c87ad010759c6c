//! A borrowed pull scanner over a document's top-level object fields.
//!
//! [`fields`] reads a payload the way a consumer that wants a handful of
//! flat fields reads it: no tree, strings borrowed from the input unless
//! they hold an escape, numbers left as their token until asked for, and
//! nested values validated and stepped over. It is exactly as strict as
//! [`parse`](crate::parse) — the same lexer, the same [`MAX_DEPTH`],
//! trailing bytes rejected — so a caller that drains it and saw no error
//! read a document `parse` accepts, field for field.
//!
//! ```
//! use omni_json::scan::{fields, Value};
//! let mut seen = Vec::new();
//! for field in fields(r#"{"a":"x","b":[1,{"c":2}],"d":-0.5}"#) {
//!     let (key, value) = field.unwrap();
//!     seen.push((key.into_owned(), value));
//! }
//! assert_eq!(seen[0].1, Value::String("x".into()));
//! assert_eq!(seen[1].1, Value::Nested);
//! assert_eq!(seen[2].1.as_f64(), Some(-0.5));
//! ```
//!
//! [`MAX_DEPTH`]: crate::parse

use crate::parse::{JsonParseError, Lexer};
use std::borrow::Cow;

/// A field's value as the scanner yields it.
#[derive(Debug, Clone, PartialEq)]
pub enum Value<'a> {
    /// `null`
    Null,
    /// `true` / `false`
    Bool(bool),
    /// A number token, grammar-checked.
    Number(Number<'a>),
    /// A string: borrowed from the input unless it holds an escape.
    String(Cow<'a, str>),
    /// An object or array, validated and skipped.
    Nested,
}

impl<'a> Value<'a> {
    /// Numeric value, if this is a number.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Value::Number(n) => Some(n.as_f64()),
            _ => None,
        }
    }
}

/// A JSON number token, as written in the document.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Number<'a>(&'a str);

impl<'a> Number<'a> {
    pub(crate) fn new(token: &'a str) -> Self {
        Self(token)
    }

    /// The token's text.
    pub fn as_str(&self) -> &'a str {
        self.0
    }

    /// The token as an `f64`, rounded as [`parse`](crate::parse) rounds it.
    pub fn as_f64(&self) -> f64 {
        // Every JSON number token is Rust float syntax, and a magnitude
        // past `f64::MAX` rounds to an infinity rather than failing.
        self.0.parse().unwrap_or(f64::NAN)
    }

    /// The token as an exact integer: `None` if it has a fraction or an
    /// exponent, or lies outside `i64`.
    pub fn as_i64(&self) -> Option<i64> {
        if self.0.bytes().any(|b| matches!(b, b'.' | b'e' | b'E')) {
            return None;
        }
        self.0.parse().ok()
    }
}

/// Scan `input`'s top-level object fields in document order. A document
/// that is valid JSON but not an object yields no fields; an invalid one
/// yields its error, once, wherever the scan meets it.
pub fn fields(input: &str) -> Fields<'_> {
    Fields { lex: Lexer::new(input), state: State::Start }
}

/// The iterator [`fields`] returns.
pub struct Fields<'a> {
    lex: Lexer<'a>,
    state: State,
}

#[derive(Clone, Copy, PartialEq, Eq)]
enum State {
    Start,
    InObject,
    Done,
}

/// One field: its key and its value.
pub type Field<'a> = (Cow<'a, str>, Value<'a>);

impl<'a> Iterator for Fields<'a> {
    type Item = Result<Field<'a>, JsonParseError>;

    fn next(&mut self) -> Option<Self::Item> {
        let step = match self.state {
            State::Done => return None,
            State::Start => self.open(),
            State::InObject => match self.lex.more_fields() {
                Ok(true) => self.field().map(Some),
                Ok(false) => self.lex.finish().map(|()| None),
                Err(e) => Err(e),
            },
        };
        match step {
            Ok(Some(field)) => Some(Ok(field)),
            Ok(None) => {
                self.state = State::Done;
                None
            }
            Err(e) => {
                self.state = State::Done;
                Some(Err(e))
            }
        }
    }
}

impl<'a> Fields<'a> {
    /// The document's start: the first field, or the end of a document
    /// with none.
    fn open(&mut self) -> Result<Option<Field<'a>>, JsonParseError> {
        let lex = &mut self.lex;
        lex.skip_ws();
        if lex.peek() != Some(b'{') {
            lex.skip_value(0)?;
            return lex.finish().map(|()| None);
        }
        lex.bump();
        lex.skip_ws();
        if lex.peek() == Some(b'}') {
            lex.bump();
            return lex.finish().map(|()| None);
        }
        self.state = State::InObject;
        self.field().map(Some)
    }

    /// A field of the top-level object, whose values sit at depth 1.
    fn field(&mut self) -> Result<Field<'a>, JsonParseError> {
        let lex = &mut self.lex;
        let key = lex.key()?.unescape();
        let value = match lex.peek() {
            Some(b'{' | b'[') => lex.skip_value(1).map(|()| Value::Nested)?,
            _ => lex.scalar()?,
        };
        Ok((key, value))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parse;

    fn scan_all(input: &str) -> Result<Vec<Field<'_>>, JsonParseError> {
        fields(input).collect()
    }

    #[test]
    fn strings_borrow_unless_escaped() {
        let got = scan_all(r#"{"plain":"abc","esc":"a\nb","A":"é"}"#).unwrap();
        assert!(matches!(&got[0].1, Value::String(Cow::Borrowed("abc"))));
        assert!(matches!(&got[1].1, Value::String(Cow::Owned(s)) if s == "a\nb"));
        assert_eq!(got[2].0, "A");
        assert!(matches!(&got[2].1, Value::String(Cow::Borrowed("é"))));
    }

    #[test]
    fn numbers_stay_tokens_until_asked() {
        let got =
            scan_all(r#"{"a":1646272077000000123,"b":-0,"c":1.5e3,"d":99999999999999999999}"#)
                .unwrap();
        let n = |i: usize| match got[i].1 {
            Value::Number(n) => n,
            _ => panic!("not a number"),
        };
        assert_eq!(n(0).as_i64(), Some(1_646_272_077_000_000_123));
        assert_eq!(n(0).as_f64(), 1_646_272_077_000_000_123_f64);
        assert_eq!(n(1).as_i64(), Some(0));
        assert_eq!(n(2).as_i64(), None);
        assert_eq!(n(2).as_f64(), 1500.0);
        assert_eq!(n(3).as_i64(), None, "outside i64");
        assert_eq!(n(3).as_str(), "99999999999999999999");
    }

    #[test]
    fn nested_values_are_validated_and_skipped() {
        let got = scan_all(r#"{"a":[1,{"b":"é"}],"c":{},"d":null}"#).unwrap();
        assert_eq!(
            got.iter().map(|f| f.1.clone()).collect::<Vec<_>>(),
            [Value::Nested, Value::Nested, Value::Null]
        );
        assert!(scan_all(r#"{"a":[1,}"#).is_err());
        assert!(scan_all(r#"{"a":{"b":"\ud800"}}"#).is_err());
    }

    #[test]
    fn as_strict_as_parse() {
        for s in [
            "",
            "{",
            "{\"a\":1,}",
            "{\"a\":1}x",
            "{\"a\" 1}",
            "{a:1}",
            "{\"a\":01}",
            "[]x",
            "nulll",
            "{\"a\":\"\x01\"}",
        ] {
            assert!(scan_all(s).is_err(), "should reject {s:?}");
            assert!(parse(s).is_err(), "parse should reject {s:?}");
        }
        // Valid documents that are not objects carry no fields.
        for s in ["[1,2]", " 3 ", "\"x\"", "null", "{}", " { } "] {
            assert_eq!(scan_all(s).unwrap(), []);
        }
    }

    #[test]
    fn depth_guard_matches_parse() {
        for n in [127, 128, 129, 200, 10_000] {
            let deep = format!("{{\"a\":{}{}}}", "[".repeat(n), "]".repeat(n));
            assert_eq!(scan_all(&deep).is_ok(), parse(&deep).is_ok(), "depth {n}");
        }
        assert!(scan_all(&"[".repeat(10_000)).is_err());
    }

    #[test]
    fn an_error_ends_the_scan() {
        let mut it = fields(r#"{"a":1,"b":tru}"#);
        assert!(matches!(it.next(), Some(Ok(_))));
        assert!(matches!(it.next(), Some(Err(_))));
        assert!(it.next().is_none());
    }
}
