//! The borrowed field scanner agrees with the tree parser.
//!
//! *Agreement:* on arbitrary values, written by `dump`, by `pretty` and by
//! a third writer that spells them the ways JSON allows but `dump` never
//! writes (`\u` escapes for any character, surrogate pairs, `\/`, number
//! tokens with exponents and fractions, stray whitespace),
//! `scan::fields` yields exactly `parse`'s top-level object fields: keys
//! and strings equal after unescaping, numbers bit for bit, nested values
//! reported as nested, duplicate keys kept in order.
//!
//! *Hostile bytes:* on arbitrary bytes, JSON-alphabet soup and every
//! single-byte flip of a valid document, the scanner errs exactly when
//! `parse` errs, and neither panics.
//!
//! Mutations this catches: a non-object document whose trailing bytes go
//! unchecked, a skipped nested string checked less strictly than `parse`
//! checks it, the scanner's depth count off by one from the parser's.

use omni_json::scan::{fields, Value};
use omni_json::{parse, Json};
use proptest::prelude::*;

const CHARS: [char; 18] = [
    'a',
    'Z',
    '0',
    ' ',
    '"',
    '\\',
    '/',
    '\n',
    '\t',
    '\u{1}',
    '\u{1f}',
    '\u{7f}',
    'é',
    '日',
    '💩',
    '\u{10ffff}',
    '\u{fffd}',
    '\u{8}',
];

/// Keys drawn from a small set so objects repeat them.
const KEYS: [&str; 6] = ["a", "b", "Context", "é", "k\"q", ""];

fn arb_string() -> impl Strategy<Value = String> {
    prop::collection::vec(prop::sample::select(CHARS.to_vec()), 0..10)
        .prop_map(|cs| cs.into_iter().collect())
}

fn arb_number() -> impl Strategy<Value = f64> {
    prop_oneof![
        any::<f64>(),
        (-1_000_000i64..1_000_000).prop_map(|n| n as f64),
        prop::sample::select(vec![
            0.0,
            -0.0,
            f64::MAX,
            f64::MIN,
            f64::MIN_POSITIVE,
            5e-324,
            -5e-324,
            1e15,
            1e15 - 1.0,
            9_007_199_254_740_993.0,
            1_646_272_077_000_000_123.0,
            0.1,
            -2.5e-300,
        ]),
    ]
}

fn arb_json() -> impl Strategy<Value = Json> {
    let leaf = prop_oneof![
        Just(Json::Null),
        any::<bool>().prop_map(Json::Bool),
        arb_number().prop_map(Json::Number),
        arb_string().prop_map(Json::String),
    ];
    leaf.prop_recursive(4, 64, 6, |inner| {
        prop_oneof![
            prop::collection::vec(inner.clone(), 0..5).prop_map(Json::Array),
            prop::collection::vec((prop::sample::select(KEYS.to_vec()), inner), 0..7).prop_map(
                |fields| {
                    Json::Object(fields.into_iter().map(|(k, v)| (k.to_string(), v)).collect())
                }
            ),
        ]
    })
}

/// A tiny xorshift so the third writer can choose spellings from a seed.
struct Coin(u64);

impl Coin {
    fn flip(&mut self, one_in: u64) -> bool {
        self.0 ^= self.0 << 13;
        self.0 ^= self.0 >> 7;
        self.0 ^= self.0 << 17;
        self.0.is_multiple_of(one_in)
    }
}

/// Write `v` as valid JSON spelled unlike `dump`: escapes where none are
/// needed, surrogate pairs, `\/`, exponent and fraction spellings of
/// numbers, whitespace between tokens.
fn spell(v: &Json, coin: &mut Coin, out: &mut String) {
    let ws = |coin: &mut Coin, out: &mut String| {
        if coin.flip(3) {
            out.push_str(" \n\t\r");
        }
    };
    match v {
        Json::Null | Json::Bool(_) => out.push_str(&v.dump()),
        Json::Number(n) if n.is_finite() && coin.flip(2) => {
            // `{:e}` is shortest-roundtrip in exponent form, e.g. `1.5e3`.
            let text = format!("{n:e}");
            if coin.flip(2) {
                out.push_str(&text.replace('e', "E+").replace("E+-", "E-"));
            } else {
                out.push_str(&text);
            }
        }
        Json::Number(_) => out.push_str(&v.dump()),
        Json::String(s) => spell_string(s, coin, out),
        Json::Array(items) => {
            out.push('[');
            for (i, item) in items.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                ws(coin, out);
                spell(item, coin, out);
                ws(coin, out);
            }
            out.push(']');
        }
        Json::Object(fields) => {
            out.push('{');
            for (i, (k, item)) in fields.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                ws(coin, out);
                spell_string(k, coin, out);
                ws(coin, out);
                out.push(':');
                ws(coin, out);
                spell(item, coin, out);
                ws(coin, out);
            }
            out.push('}');
        }
    }
}

fn spell_string(s: &str, coin: &mut Coin, out: &mut String) {
    out.push('"');
    for c in s.chars() {
        let must = c == '"' || c == '\\' || (c as u32) < 0x20;
        if c == '/' && coin.flip(2) {
            out.push_str("\\/");
        } else if must || coin.flip(3) {
            let mut units = [0u16; 2];
            for u in c.encode_utf16(&mut units) {
                if coin.flip(2) {
                    out.push_str(&format!("\\u{u:04x}"));
                } else {
                    out.push_str(&format!("\\u{u:04X}"));
                }
            }
        } else {
            out.push(c);
        }
    }
    out.push('"');
}

/// `parse` and `fields` agree on `text`: both err, or the scanner yields
/// exactly the parsed object's fields (none for a non-object).
fn agree(text: &str) {
    let tree = parse(text);
    let scanned: Result<Vec<_>, _> = fields(text).collect();
    match (&tree, &scanned) {
        (Ok(tree), Ok(scanned)) => {
            let expect = tree.as_object().unwrap_or(&[]);
            assert_eq!(scanned.len(), expect.len(), "{text:?}");
            for ((key, got), (want_key, want)) in scanned.iter().zip(expect) {
                assert_eq!(key, want_key, "{text:?}");
                let same = match (got, want) {
                    (Value::Null, Json::Null) => true,
                    (Value::Bool(a), Json::Bool(b)) => a == b,
                    (Value::Number(n), Json::Number(f)) => n.as_f64().to_bits() == f.to_bits(),
                    (Value::String(s), Json::String(t)) => s == t,
                    (Value::Nested, Json::Array(_) | Json::Object(_)) => true,
                    _ => false,
                };
                assert!(same, "field {key:?} of {text:?}: scanned {got:?}, parsed {want:?}");
            }
        }
        (Err(_), Err(_)) => {}
        _ => panic!("parse {tree:?} but scan {scanned:?} on {text:?}"),
    }
}

/// Every single-byte replacement of `doc` at a position and with a byte
/// the seed picks, read as text the way a bridge reads a payload.
fn flips(doc: &str, seed: u64) -> Vec<String> {
    let mut coin = Coin(seed | 1);
    let bytes = doc.as_bytes();
    let mut out = Vec::new();
    for i in 0..bytes.len() {
        for b in [b'"', b'\\', b'{', b'}', b'[', b']', b',', b':', b'0', b'x', 0x01, 0xff] {
            if coin.flip(4) {
                let mut flipped = bytes.to_vec();
                flipped[i] = b;
                out.push(String::from_utf8_lossy(&flipped).into_owned());
            }
        }
    }
    out
}

proptest! {
    #[test]
    fn scan_agrees_with_parse_on_dump_and_pretty(v in arb_json()) {
        agree(&v.dump());
        agree(&v.pretty(2));
        // The same fields under a non-object top level are none at all.
        agree(&Json::Array(vec![v]).dump());
    }

    #[test]
    fn scan_agrees_with_parse_on_unusual_spellings(v in arb_json(), seed in any::<u64>()) {
        let mut text = String::new();
        spell(&v, &mut Coin(seed | 1), &mut text);
        let reparsed = parse(&text).expect("the third writer writes valid JSON");
        prop_assert_eq!(reparsed.dump(), v.dump());
        agree(&text);
    }

    #[test]
    fn scan_errs_exactly_when_parse_errs_on_arbitrary_bytes(
        bytes in prop::collection::vec(any::<u8>(), 0..120),
    ) {
        agree(&String::from_utf8_lossy(&bytes));
    }

    #[test]
    fn scan_errs_exactly_when_parse_errs_on_json_soup(
        s in "[{}\\[\\],:\"0-9a-z\\\\ .\\-+eEu]{0,80}",
    ) {
        agree(&s);
        agree(&format!("{{\"a\":{s}}}"));
    }

    #[test]
    fn scan_errs_exactly_when_parse_errs_on_byte_flips(v in arb_json(), seed in any::<u64>()) {
        let doc = Json::Object(vec![("k".into(), v)]).dump();
        for flipped in flips(&doc, seed) {
            agree(&flipped);
        }
    }
}

#[test]
fn ten_thousand_open_brackets_are_an_error_not_an_overflow() {
    let deep = "[".repeat(10_000);
    assert!(fields(&deep).any(|f| f.is_err()));
    assert!(parse(&deep).is_err());
    let in_object = format!("{{\"a\":{deep}");
    assert!(fields(&in_object).any(|f| f.is_err()));
    agree(&in_object);
}

#[test]
fn depth_limit_is_the_parsers() {
    for n in 125..=130 {
        agree(&format!("{}{}", "[".repeat(n), "]".repeat(n)));
        agree(&format!("{{\"a\":{}{}}}", "[".repeat(n), "]".repeat(n)));
        agree(&format!("{{\"a\":{}1{}}}", "{\"b\":".repeat(n), "}".repeat(n)));
    }
}
