//! The sensor wire format has one owner and two references.
//!
//! *Writer:* `SensorReading::write_wire` writes exactly the bytes of
//! `to_json().dump()` whenever the timestamp is below 2^53 in magnitude
//! (where the tree's `f64` holds it exactly), over arbitrary `f64`
//! readings — NaN, the infinities, −0.0, subnormals — and sensor ids full
//! of quotes, backslashes, control characters and non-ASCII text; past
//! 2^53 the decoded timestamp is still the written one.
//!
//! *Decode:* `SensorReading::decode`, with `Context` then parsed as an
//! xname, accepts and rejects exactly what `parse` + `from_json` do on
//! arbitrary payloads — duplicate keys (the first wins), extra and nested
//! keys, missing or mistyped fields, `null` readings, escaped keys,
//! truncation, trailing junk and invalid UTF-8 read lossily — with values
//! equal bit for bit and timestamps equal wherever the reference is exact.
//!
//! Mutations this catches: a later duplicate winning, an integer
//! timestamp rounded through `f64`.

use omni_json::parse;
use omni_redfish::{SensorKind, SensorReading};
use omni_xname::XName;
use proptest::prelude::*;

const KINDS: [SensorKind; 6] = [
    SensorKind::Temperature,
    SensorKind::Humidity,
    SensorKind::Power,
    SensorKind::FanSpeed,
    SensorKind::Leak,
    SensorKind::Flow,
];

const XNAMES: [&str; 6] =
    ["x1000c0s0b0n0", "x1203c1b0", "x1102c4s0b0n1", "x1002c1r7b0", "x1203", "x999999c7s7b1n1"];

const SENSOR_CHARS: [char; 14] =
    ['t', '0', 'A', ' ', '"', '\\', '/', '\n', '\u{1}', '\u{1f}', '\u{7f}', 'é', '日', '💩'];

fn arb_reading() -> impl Strategy<Value = SensorReading> {
    (
        (
            prop::sample::select(XNAMES.to_vec()),
            prop::collection::vec(prop::sample::select(SENSOR_CHARS.to_vec()), 0..8),
        ),
        0usize..6,
        prop_oneof![
            any::<f64>(),
            (-1000i64..1000).prop_map(|n| n as f64 / 4.0),
            prop::sample::select(vec![
                f64::NAN,
                f64::INFINITY,
                f64::NEG_INFINITY,
                -0.0,
                5e-324,
                f64::MIN_POSITIVE / 3.0,
                f64::MAX,
                1e15,
                999_999_999_999_999.0,
            ]),
        ],
        prop_oneof![
            any::<i64>(),
            any::<i64>().prop_map(|t| t % (1 << 53)),
            prop::sample::select(vec![0, -1, 1_646_272_077_000_000_123, i64::MIN, i64::MAX]),
        ],
    )
        .prop_map(|((xname, sensor), kind, value, ts)| SensorReading {
            xname: xname.parse().unwrap(),
            sensor_id: sensor.into_iter().collect(),
            kind: KINDS[kind],
            value,
            ts,
        })
}

fn wire(r: &SensorReading) -> String {
    let mut out = String::new();
    r.write_wire(&mut out);
    out
}

/// What the tree decode makes of `payload`.
fn reference(payload: &str) -> Option<SensorReading> {
    parse(payload).ok().as_ref().and_then(SensorReading::from_json)
}

/// What the borrowed decode makes of `payload`, with `Context` parsed as
/// an xname the way the bridge does on a cache miss.
fn borrowed(payload: &str) -> Option<SensorReading> {
    let w = SensorReading::decode(payload)?;
    Some(SensorReading {
        xname: w.context.parse::<XName>().ok()?,
        sensor_id: w.sensor.into_owned(),
        kind: w.kind,
        value: w.value,
        ts: w.ts,
    })
}

fn assert_decodes_alike(payload: &str) {
    match (borrowed(payload), reference(payload)) {
        (None, None) => {}
        (Some(got), Some(want)) => {
            assert_eq!(
                (&got.xname, &got.sensor_id, got.kind, got.value.to_bits()),
                (&want.xname, &want.sensor_id, want.kind, want.value.to_bits()),
                "{payload:?}"
            );
            // The reference rounds a timestamp through `f64`: compare
            // where that is exact.
            if got.ts.unsigned_abs() < 1 << 53 {
                assert_eq!(got.ts, want.ts, "{payload:?}");
            }
        }
        (got, want) => panic!("decode {got:?} but reference {want:?} on {payload:?}"),
    }
}

const KEYS: [&str; 9] = [
    "Context",
    "Sensor",
    "PhysicalContext",
    "Reading",
    "Units",
    "Timestamp",
    "Extra",
    "Con\\u0074ext",
    "Readin\\u0067",
];

const VALUES: [&str; 24] = [
    "\"x1000c0s0b0n0\"",
    "\"x01000c0s0b0n0\"",
    "\"x1203c1b0\"",
    "\"x1000c0s0b0n0 \"",
    "\"\\u0078\\u0031\\u0032\\u0030\\u0033\"",
    "\"t0\"",
    "\"t\\\"0\\u00e9\"",
    "\"temperature\"",
    "\"fan_speed\"",
    "\"vibes\"",
    "\"celsius\"",
    "42.5",
    "-0",
    "1e3",
    "1646272077000000123",
    "9007199254740993",
    "-9223372036854775808",
    "99999999999999999999",
    "1.5e400",
    "null",
    "true",
    "[1,{\"Reading\":2}]",
    "{\"Timestamp\":[]}",
    "\"\"",
];

/// A payload from `(key, value)` picks, then one of: as is, truncated at
/// `cut`, junk appended, or a byte at `cut` replaced by an invalid UTF-8
/// byte and read lossily.
fn payload(fields: &[(usize, usize)], damage: u8, cut: usize) -> String {
    let body: Vec<String> =
        fields.iter().map(|&(k, v)| format!("\"{}\":{}", KEYS[k], VALUES[v])).collect();
    let text = format!("{{{}}}", body.join(","));
    match damage {
        0 => text[..text.len().min(cut) / 2 * 2].to_string(),
        1 => text + " x",
        2 => {
            let mut bytes = text.into_bytes();
            if !bytes.is_empty() {
                let i = cut % bytes.len();
                bytes[i] = 0xff;
            }
            String::from_utf8_lossy(&bytes).into_owned()
        }
        _ => text,
    }
}

proptest! {
    #[test]
    fn write_wire_is_the_dump_of_the_tree(r in arb_reading()) {
        let text = wire(&r);
        if r.ts.unsigned_abs() < 1 << 53 {
            prop_assert_eq!(&text, &r.to_json().dump());
        }
        assert_decodes_alike(&text);
        // A finite reading comes back whole, timestamp exact at any size
        // (−0.0 as 0, which is how `dump` writes it); JSON cannot spell the
        // others, and `null` is no reading.
        let back = SensorReading::decode(&text);
        if r.value.is_finite() {
            let back = back.expect("a finite reading decodes");
            prop_assert_eq!(back.context.as_ref(), r.xname.to_string());
            prop_assert_eq!(back.sensor.as_ref(), r.sensor_id.as_str());
            prop_assert_eq!(back.kind, r.kind);
            prop_assert_eq!(back.value, r.value);
            prop_assert_eq!(back.ts, r.ts);
        } else {
            prop_assert!(back.is_none());
        }
    }

    #[test]
    fn decode_agrees_with_parse_and_from_json(
        fields in prop::collection::vec((0usize..9, 0usize..24), 0..10),
        damage in 0u8..6,
        cut in 0usize..200,
    ) {
        assert_decodes_alike(&payload(&fields, damage, cut));
    }

    #[test]
    fn decode_agrees_on_well_formed_readings_with_extra_fields(
        r in arb_reading(),
        extra in prop::collection::vec((0usize..9, 0usize..24), 0..4),
        at_front in any::<bool>(),
    ) {
        // A valid payload with more fields before or after it: a leading
        // duplicate wins, a trailing one is ignored.
        let text = wire(&r);
        let body = &text[1..text.len() - 1];
        let more: Vec<String> =
            extra.iter().map(|&(k, v)| format!("\"{}\":{}", KEYS[k], VALUES[v])).collect();
        let payload = match (at_front, more.is_empty()) {
            (_, true) => text.clone(),
            (true, false) => format!("{{{},{body}}}", more.join(",")),
            (false, false) => format!("{{{body},{}}}", more.join(",")),
        };
        assert_decodes_alike(&payload);
    }
}

#[test]
fn two_spellings_of_one_xname_decode_to_one_component() {
    let a = borrowed(
        r#"{"Context":"x01000c0s0b0n0","Sensor":"t0","PhysicalContext":"power","Reading":1,"Timestamp":2}"#,
    );
    let b = borrowed(
        r#"{"Context":"x1000c0s0b0n0","Sensor":"t0","PhysicalContext":"power","Reading":1,"Timestamp":2}"#,
    );
    assert_eq!(a, b);
    assert!(a.is_some());
}
