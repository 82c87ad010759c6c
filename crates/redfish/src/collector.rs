//! The HMS (Hardware Management Service) collector.
//!
//! "The HMS collector pushes data to Kafka, where Kafka stores data in
//! different topics by categories and serves them to possible consumers."
//! Events and each telemetry kind get their own topic (the real SMA names),
//! keyed by xname so one component's stream stays ordered.

use crate::event::RedfishEvent;
use crate::sensor::SensorReading;
use omni_bus::{Broker, BusError, Bytes, TopicConfig};
use std::fmt::Write as _;

/// Room for a reading's wire payload and key beside its sensor id: the
/// field names and punctuation (82 bytes), two typical xnames, the longest
/// kind and unit, a typical reading and an `i64` at full width. A longer
/// reading only costs a reallocation.
const READING_WIRE_BYTES: usize = 82 + 2 * 24 + 11 + 7 + 24 + 20;

/// The Shasta Monitoring Framework Kafka topic names.
pub mod topics {
    /// Redfish resource events (leaks, power, ECC, ...).
    pub const RESOURCE_EVENTS: &str = "cray-dmtf-resource-event";
    /// Temperature telemetry.
    pub const TELEMETRY_TEMPERATURE: &str = "cray-telemetry-temperature";
    /// Humidity telemetry.
    pub const TELEMETRY_HUMIDITY: &str = "cray-telemetry-humidity";
    /// Power telemetry.
    pub const TELEMETRY_POWER: &str = "cray-telemetry-power";
    /// Fan telemetry.
    pub const TELEMETRY_FAN: &str = "cray-telemetry-fan";
    /// Leak-sensor state telemetry.
    pub const TELEMETRY_LEAK: &str = "cray-telemetry-pressure";
    /// Coolant-flow telemetry from the CDUs.
    pub const TELEMETRY_FLOW: &str = "cray-telemetry-flow";
    /// Fabric (Slingshot) health events from the fabric manager.
    pub const FABRIC_HEALTH: &str = "cray-fabric-health";
    /// GPFS health events from the filesystem monitor (§V future work).
    pub const GPFS_HEALTH: &str = "cray-gpfs-health";
    /// Node syslog stream.
    pub const SYSLOG: &str = "cray-syslog";
    /// Kubernetes container logs.
    pub const CONTAINER_LOGS: &str = "cray-container-logs";

    /// How long the bus keeps a message on any topic of [`ALL`] once every
    /// consumer group has read it: ten virtual minutes, ten times the
    /// longest brownout a drill schedules. The bus is the buffer between
    /// Redfish and OMNI, not a second store; a group never loses what it
    /// has not read, whatever its age.
    pub const REDFISH_RETENTION_NS: i64 = 10 * 60 * omni_model::NANOS_PER_SEC;

    /// Every topic the collector creates.
    pub const ALL: &[&str] = &[
        RESOURCE_EVENTS,
        TELEMETRY_TEMPERATURE,
        TELEMETRY_HUMIDITY,
        TELEMETRY_POWER,
        TELEMETRY_FAN,
        TELEMETRY_LEAK,
        TELEMETRY_FLOW,
        FABRIC_HEALTH,
        GPFS_HEALTH,
        SYSLOG,
        CONTAINER_LOGS,
    ];
}

/// Publishes Redfish events and sensor telemetry onto the bus.
#[derive(Clone)]
pub struct HmsCollector {
    broker: Broker,
}

impl HmsCollector {
    /// Attach a collector to a broker, creating the Shasta topic set with
    /// [`topics::REDFISH_RETENTION_NS`] as its retention.
    pub fn new(broker: Broker, partitions: usize) -> Self {
        let retention_ns = Some(topics::REDFISH_RETENTION_NS);
        for t in topics::ALL {
            broker.ensure_topic(t, TopicConfig { partitions, retention_ns, ..Default::default() });
        }
        Self { broker }
    }

    /// The underlying broker.
    pub fn broker(&self) -> &Broker {
        &self.broker
    }

    /// Publish a Redfish event to [`topics::RESOURCE_EVENTS`], keyed by its
    /// context, with message headers attached (e.g. the `omni-trace-id`
    /// propagation header). Headers ride beside the payload, invisible to
    /// consumers that don't look for them.
    pub fn publish_event_with_headers(
        &self,
        event: &RedfishEvent,
        headers: Vec<(String, String)>,
    ) -> Result<(usize, u64), BusError> {
        let payload = event.to_telemetry_json().dump();
        self.broker.produce_with_headers(
            topics::RESOURCE_EVENTS,
            Some(&event.context.to_string()),
            payload,
            headers,
        )
    }

    /// Publish a sensor reading to its kind's telemetry topic, keyed by
    /// its xname. One buffer holds the wire payload and, behind it, the
    /// key; no JSON tree is built.
    pub fn publish_reading(&self, reading: &SensorReading) -> Result<(usize, u64), BusError> {
        let mut buf = String::with_capacity(READING_WIRE_BYTES + reading.sensor_id.len());
        reading.write_wire(&mut buf);
        let payload_len = buf.len();
        let _ = write!(buf, "{}", reading.xname);
        let (payload, key) = buf.split_at(payload_len);
        self.broker.produce(reading.kind.topic(), Some(key), payload)
    }

    /// Publish a raw log line (syslog / container logs / fabric health).
    /// The bus builds its payload from `line`, so a caller that keeps its
    /// line passes it borrowed rather than cloning it.
    pub fn publish_log(
        &self,
        topic: &str,
        key: &str,
        line: impl Into<Bytes>,
    ) -> Result<(usize, u64), BusError> {
        self.broker.produce(topic, Some(key), line)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sensor::SensorKind;
    use omni_model::SimClock;

    fn collector() -> HmsCollector {
        HmsCollector::new(Broker::new(SimClock::new()), 4)
    }

    #[test]
    fn creates_all_topics() {
        let c = collector();
        let names = c.broker().topics();
        for t in topics::ALL {
            assert!(names.contains(&t.to_string()), "missing topic {t}");
        }
    }

    #[test]
    fn every_topic_keeps_a_window_of_redfish_retention() {
        let c = collector();
        let b = c.broker();
        for t in topics::ALL {
            b.produce(t, Some("x1000c0"), "old").unwrap();
        }
        b.clock().advance(topics::REDFISH_RETENTION_NS);
        for t in topics::ALL {
            b.produce(t, Some("x1000c0"), "new").unwrap();
        }
        // Exactly the retention age is still inside the window.
        assert_eq!(b.enforce_retention(), 0);
        b.clock().advance(1);
        assert_eq!(b.enforce_retention(), topics::ALL.len());
        for t in topics::ALL {
            assert_eq!(b.retained(t).unwrap(), 1, "{t}");
        }
    }

    #[test]
    fn event_lands_on_resource_topic_and_decodes() {
        let c = collector();
        let ev = RedfishEvent::paper_leak_event();
        let (p, o) = c.publish_event_with_headers(&ev, Vec::new()).unwrap();
        let msgs = c.broker().fetch(topics::RESOURCE_EVENTS, p, o, 1).unwrap();
        assert_eq!(msgs.len(), 1);
        assert_eq!(msgs[0].key.as_deref(), Some("x1203c1b0"));
        let v = omni_json::parse(std::str::from_utf8(&msgs[0].payload).unwrap()).unwrap();
        let back = RedfishEvent::from_telemetry_json(&v).unwrap();
        assert_eq!(back[0], ev);
    }

    #[test]
    fn readings_route_by_kind() {
        let c = collector();
        let r = SensorReading {
            xname: "x1000c0s0b0n0".parse().unwrap(),
            sensor_id: "t0".into(),
            kind: SensorKind::Power,
            value: 900.0,
            ts: 5,
        };
        c.publish_reading(&r).unwrap();
        let total: usize = (0..4)
            .map(|p| c.broker().fetch(topics::TELEMETRY_POWER, p, 0, 10).unwrap().len())
            .sum();
        assert_eq!(total, 1);
        let none: usize = (0..4)
            .map(|p| c.broker().fetch(topics::TELEMETRY_TEMPERATURE, p, 0, 10).unwrap().len())
            .sum();
        assert_eq!(none, 0);
    }

    #[test]
    fn same_component_events_stay_ordered() {
        let c = collector();
        let base = RedfishEvent::paper_leak_event();
        for i in 0..20 {
            let mut ev = base.clone();
            ev.timestamp += i;
            c.publish_event_with_headers(&ev, Vec::new()).unwrap();
        }
        // All share the key x1203c1b0, so they sit in one partition in order.
        let mut found = Vec::new();
        for p in 0..4 {
            let msgs = c.broker().fetch(topics::RESOURCE_EVENTS, p, 0, 100).unwrap();
            if !msgs.is_empty() {
                found = msgs;
            }
        }
        assert_eq!(found.len(), 20);
    }
}
