//! Numeric sensor telemetry.
//!
//! "Sensors in each cabinet, chassis, node, switch, cooling unit collect
//! data like temperature, humidity, power, fan speed" — §IV.
//!
//! # Wire format
//!
//! A reading travels the telemetry topics as one flat JSON object, and
//! this module is the only place that writes or reads it:
//! [`SensorReading::write_wire`] writes it with no tree, and
//! [`SensorReading::decode`] reads it with one borrowed scan
//! ([`omni_json::scan`]). `Timestamp` is written as the exact integer;
//! every other byte is what `to_json().dump()` writes, and `decode`
//! accepts exactly what `parse` + `from_json` accept.

use omni_json::scan::{self, Value};
use omni_json::{jsonv, write_number, write_string, Json};
use omni_model::Timestamp;
use omni_xname::XName;
use std::borrow::Cow;
use std::fmt::Write as _;

/// What a sensor measures.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SensorKind {
    /// Degrees Celsius.
    Temperature,
    /// Relative humidity percent.
    Humidity,
    /// Watts.
    Power,
    /// RPM.
    FanSpeed,
    /// 0.0 = dry, 1.0 = leak detected (per redundant sensor).
    Leak,
    /// Coolant flow in litres per minute (CDU loops).
    Flow,
}

impl SensorKind {
    /// Telemetry field name.
    pub fn as_str(&self) -> &'static str {
        match self {
            SensorKind::Temperature => "temperature",
            SensorKind::Humidity => "humidity",
            SensorKind::Power => "power",
            SensorKind::FanSpeed => "fan_speed",
            SensorKind::Leak => "leak",
            SensorKind::Flow => "flow",
        }
    }

    /// Measurement unit.
    pub fn unit(&self) -> &'static str {
        match self {
            SensorKind::Temperature => "celsius",
            SensorKind::Humidity => "percent",
            SensorKind::Power => "watts",
            SensorKind::FanSpeed => "rpm",
            SensorKind::Leak => "bool",
            SensorKind::Flow => "lpm",
        }
    }

    /// The kind [`as_str`](Self::as_str) names.
    pub fn from_wire(name: &str) -> Option<SensorKind> {
        Some(match name {
            "temperature" => SensorKind::Temperature,
            "humidity" => SensorKind::Humidity,
            "power" => SensorKind::Power,
            "fan_speed" => SensorKind::FanSpeed,
            "leak" => SensorKind::Leak,
            "flow" => SensorKind::Flow,
            _ => return None,
        })
    }

    /// Which Kafka telemetry topic carries this kind.
    pub fn topic(&self) -> &'static str {
        match self {
            SensorKind::Temperature => crate::collector::topics::TELEMETRY_TEMPERATURE,
            SensorKind::Humidity => crate::collector::topics::TELEMETRY_HUMIDITY,
            SensorKind::Power => crate::collector::topics::TELEMETRY_POWER,
            SensorKind::FanSpeed => crate::collector::topics::TELEMETRY_FAN,
            SensorKind::Leak => crate::collector::topics::TELEMETRY_LEAK,
            SensorKind::Flow => crate::collector::topics::TELEMETRY_FLOW,
        }
    }
}

/// One numeric sample from one physical sensor.
#[derive(Debug, Clone, PartialEq)]
pub struct SensorReading {
    /// Component carrying the sensor.
    pub xname: XName,
    /// Sensor id within the component (e.g. `t0`, `fan3`, leak sensor `A`).
    pub sensor_id: String,
    /// Measurement kind.
    pub kind: SensorKind,
    /// Value in the kind's unit.
    pub value: f64,
    /// Sample time (nanoseconds).
    pub ts: Timestamp,
}

/// A reading as [`SensorReading::decode`] finds it on the wire, borrowed
/// from the payload. `context` is the `Context` text as sent, not yet
/// checked as an xname.
#[derive(Debug, Clone, PartialEq)]
pub struct SensorWire<'a> {
    /// Component text.
    pub context: Cow<'a, str>,
    /// Sensor id within the component.
    pub sensor: Cow<'a, str>,
    /// Measurement kind.
    pub kind: SensorKind,
    /// Value in the kind's unit.
    pub value: f64,
    /// Sample time (nanoseconds).
    pub ts: Timestamp,
}

impl SensorReading {
    /// Telemetry wire shape as a tree (flat JSON; numeric telemetry is not
    /// nested the way events are): the reference [`write_wire`] is held to.
    ///
    /// [`write_wire`]: Self::write_wire
    pub fn to_json(&self) -> Json {
        jsonv!({
            "Context": (self.xname.to_string()),
            "Sensor": (self.sensor_id.clone()),
            "PhysicalContext": (self.kind.as_str()),
            "Reading": (self.value),
            "Units": (self.kind.unit()),
            "Timestamp": (self.ts),
        })
    }

    /// Append the wire payload to `out`: the bytes `to_json().dump()`
    /// writes, except that `Timestamp` is the exact integer (a tree holds
    /// it as an `f64`, which rounds real-epoch nanoseconds).
    pub fn write_wire(&self, out: &mut String) {
        // An xname, a kind and a unit are ASCII letters, digits and `_`:
        // nothing in them needs an escape.
        let _ = write!(out, r#"{{"Context":"{}","Sensor":"#, self.xname);
        write_string(out, &self.sensor_id);
        out.push_str(r#","PhysicalContext":""#);
        out.push_str(self.kind.as_str());
        out.push_str(r#"","Reading":"#);
        write_number(out, self.value);
        out.push_str(r#","Units":""#);
        out.push_str(self.kind.unit());
        let _ = write!(out, r#"","Timestamp":{}}}"#, self.ts);
    }

    /// Read a wire payload without building a tree. Accepts exactly what
    /// `parse` + [`from_json`](Self::from_json) accept, short of checking
    /// `Context` as an xname: a whole valid document whose first
    /// `Context`, `Sensor` and `PhysicalContext` are strings naming a
    /// known kind, and whose first `Reading` and `Timestamp` are numbers.
    /// `Units` is not read. An integer `Timestamp` is read exactly; any
    /// other number token as `from_json` reads it.
    pub fn decode(payload: &str) -> Option<SensorWire<'_>> {
        // The first occurrence of each key, as `Json::get` finds it.
        let [mut context, mut sensor, mut kind, mut value, mut ts] = [None, None, None, None, None];
        for field in scan::fields(payload) {
            let (key, v) = field.ok()?;
            let slot = match &*key {
                "Context" => &mut context,
                "Sensor" => &mut sensor,
                "PhysicalContext" => &mut kind,
                "Reading" => &mut value,
                "Timestamp" => &mut ts,
                _ => continue,
            };
            if slot.is_none() {
                *slot = Some(v);
            }
        }
        fn text(v: Option<Value<'_>>) -> Option<Cow<'_, str>> {
            match v? {
                Value::String(s) => Some(s),
                _ => None,
            }
        }
        let Some(Value::Number(ts)) = ts else { return None };
        Some(SensorWire {
            kind: SensorKind::from_wire(&text(kind)?)?,
            context: text(context)?,
            sensor: text(sensor)?,
            value: value?.as_f64()?,
            ts: ts.as_i64().unwrap_or_else(|| ts.as_f64() as Timestamp),
        })
    }

    /// Decode the wire shape from a tree.
    ///
    /// omnibench compat: the staged replica's `tsdb.append` probe replays
    /// the old decode with it. The bridge reads payloads with
    /// [`decode`](Self::decode).
    pub fn from_json(v: &Json) -> Option<SensorReading> {
        Some(SensorReading {
            xname: v.get("Context")?.as_str()?.parse().ok()?,
            sensor_id: v.get("Sensor")?.as_str()?.to_string(),
            kind: SensorKind::from_wire(v.get("PhysicalContext")?.as_str()?)?,
            value: v.get("Reading")?.as_f64()?,
            ts: v.get("Timestamp")?.as_f64()? as Timestamp,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn reading() -> SensorReading {
        SensorReading {
            xname: "x1000c0s0b0n0".parse().unwrap(),
            sensor_id: "t0".into(),
            kind: SensorKind::Temperature,
            value: 42.5,
            ts: 123,
        }
    }

    #[test]
    fn json_roundtrip() {
        let r = reading();
        let back = SensorReading::from_json(&r.to_json()).unwrap();
        assert_eq!(back, r);
    }

    #[test]
    fn text_roundtrip() {
        let r = reading();
        let text = r.to_json().dump();
        let back = SensorReading::from_json(&omni_json::parse(&text).unwrap()).unwrap();
        assert_eq!(back, r);
    }

    #[test]
    fn wire_roundtrip() {
        let r = reading();
        let mut text = String::new();
        r.write_wire(&mut text);
        assert_eq!(text, r.to_json().dump());
        let w = SensorReading::decode(&text).unwrap();
        assert_eq!((w.context.as_ref(), w.sensor.as_ref()), ("x1000c0s0b0n0", "t0"));
        assert_eq!((w.kind, w.value, w.ts), (r.kind, r.value, r.ts));
    }

    #[test]
    fn wire_keeps_real_epoch_nanoseconds() {
        // 2022-03-03 plus 123 ns: above 2^53, so an `f64` would round it.
        let r = SensorReading { ts: 1_646_272_077_000_000_123, ..reading() };
        let mut text = String::new();
        r.write_wire(&mut text);
        assert!(text.ends_with(r#""Timestamp":1646272077000000123}"#), "{text}");
        assert_eq!(SensorReading::decode(&text).unwrap().ts, r.ts);
    }

    #[test]
    fn decode_reads_the_first_duplicate_and_ignores_units() {
        let first_wins = r#"{"Context":"x1000c0s0b0n0","Sensor":"t0","PhysicalContext":"leak","Reading":1,"Reading":2,"Timestamp":3}"#;
        assert_eq!(SensorReading::decode(first_wins).unwrap().value, 1.0);
        let mistyped_first = r#"{"Context":"x1000c0s0b0n0","Sensor":"t0","PhysicalContext":"leak","Reading":"1","Reading":2,"Timestamp":3}"#;
        assert!(SensorReading::decode(mistyped_first).is_none());
        let null_reading = r#"{"Context":"x1000c0s0b0n0","Sensor":"t0","PhysicalContext":"leak","Reading":null,"Timestamp":3}"#;
        assert!(SensorReading::decode(null_reading).is_none());
        let odd_units = r#"{"Context":"x1000c0s0b0n0","Sensor":"t0","PhysicalContext":"leak","Reading":1,"Units":[{}],"Timestamp":3}"#;
        assert!(SensorReading::decode(odd_units).is_some());
    }

    #[test]
    fn decode_rejects_unknown_kind() {
        let mut v = reading().to_json();
        v.set("PhysicalContext", Json::from("vibes")).unwrap();
        assert!(SensorReading::from_json(&v).is_none());
    }

    #[test]
    fn kinds_have_distinct_topics() {
        let kinds = [
            SensorKind::Temperature,
            SensorKind::Humidity,
            SensorKind::Power,
            SensorKind::FanSpeed,
            SensorKind::Leak,
            SensorKind::Flow,
        ];
        let mut topics: Vec<&str> = kinds.iter().map(|k| k.topic()).collect();
        topics.sort();
        topics.dedup();
        assert_eq!(topics.len(), kinds.len());
    }
}
