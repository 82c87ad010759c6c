//! The simulated exporter fleet, rendered against the Shasta machine.

use crate::exposition::{escape_into, write_value, PageFamily};
use omni_bus::Broker;
use omni_model::SimClock;
use omni_redfish::{SensorKind, SensorReading};
use omni_shasta::ShastaMachine;
use std::fmt::Write as _;
use std::sync::Arc;

/// Every metric family the simulated exporter fleet can emit, as
/// `(metric name, label keys)` pairs. This is the static source of truth
/// the `omni-lint` catalog is derived from: a query referencing a metric
/// or label key absent from this table (plus the scrape-added
/// `job`/`instance` labels) cannot ever return data.
pub fn shipped_exporter_families() -> Vec<(&'static str, &'static [&'static str])> {
    const NODE: &[&str] = &["xname", "sensor"];
    const PROBE: &[&str] = &["target"];
    const KAFKA: &[&str] = &["topic"];
    const ARUBA: &[&str] = &["switch", "port"];
    const GPFS: &[&str] = &["fs", "server"];
    vec![
        ("node_temp_celsius", NODE),
        ("node_power_watts", NODE),
        ("node_fan_rpm", NODE),
        ("chassis_humidity_percent", NODE),
        ("chassis_leak_detected", NODE),
        ("cdu_flow_lpm", NODE),
        ("probe_success", PROBE),
        ("probe_duration_seconds", PROBE),
        ("kafka_topic_messages_in_total", KAFKA),
        ("kafka_topic_bytes_in_total", KAFKA),
        ("kafka_topic_retained_messages", KAFKA),
        ("aruba_port_rx_octets_total", ARUBA),
        ("aruba_port_rx_errors_total", ARUBA),
        ("aruba_port_up", ARUBA),
        ("gpfs_server_healthy", GPFS),
        ("gpfs_sick_disks", GPFS),
        ("gpfs_longest_waiter_seconds", GPFS),
        ("gpfs_read_mb_per_sec", GPFS),
        ("gpfs_write_mb_per_sec", GPFS),
    ]
}

/// An exporter: renders its current exposition page.
pub trait Exporter: Send + Sync {
    /// The exporter's job name (Prometheus `job` label).
    fn job(&self) -> &str;
    /// Render the scrape page, appended to `out` (vmagent's reused
    /// buffer).
    fn render_into(&self, out: &mut String);
    /// The scrape page as a fresh string.
    fn render(&self) -> String {
        let mut out = String::new();
        self.render_into(&mut out);
        out
    }
}

/// `node-exporter` (installed by HPE): per-node temperature, power and
/// fan metrics straight from the machine's sensors.
pub struct NodeExporter {
    machine: Arc<ShastaMachine>,
}

impl NodeExporter {
    /// Export for a machine.
    pub fn new(machine: Arc<ShastaMachine>) -> Self {
        Self { machine }
    }
}

/// A family of a page whose every sample reads its value from an item.
type Column<T> = (PageFamily, fn(T) -> f64);

/// The node page's families in page order, by the sensor kind they show.
const NODE_FAMILIES: [(SensorKind, PageFamily); 6] = [
    (
        SensorKind::Temperature,
        PageFamily::gauge("node_temp_celsius", "Node temperature in Celsius."),
    ),
    (SensorKind::Power, PageFamily::gauge("node_power_watts", "Node power draw in Watts.")),
    (SensorKind::FanSpeed, PageFamily::gauge("node_fan_rpm", "Node fan speed in RPM.")),
    (
        SensorKind::Humidity,
        PageFamily::gauge("chassis_humidity_percent", "Chassis relative humidity."),
    ),
    (SensorKind::Leak, PageFamily::gauge("chassis_leak_detected", "Leak sensor state (1=wet).")),
    (SensorKind::Flow, PageFamily::gauge("cdu_flow_lpm", "CDU coolant flow (litres/minute).")),
];

impl Exporter for NodeExporter {
    fn job(&self) -> &str {
        "node-exporter"
    }

    fn render_into(&self, out: &mut String) {
        write_node_page(&self.machine.sample_sensors(), out);
    }
}

/// The node page, written in place: a family at a time in
/// [`NODE_FAMILIES`] order and its readings in sample order, byte for
/// byte what the exposition writer makes of one gauge family value per
/// kind with `{sensor, xname}` label sets (`node_page_reference`).
fn write_node_page(readings: &[SensorReading], out: &mut String) {
    for (kind, family) in NODE_FAMILIES {
        family.head(out);
        for r in readings.iter().filter(|r| r.kind == kind) {
            out.push_str(family.name());
            out.push_str("{sensor=\"");
            escape_into(out, &r.sensor_id, true);
            // Writing into a `String` cannot fail; an xname needs no escaping.
            let _ = write!(out, "\",xname=\"{}\"}} ", r.xname);
            write_value(out, r.value);
            out.push('\n');
        }
    }
}

/// `blackbox-exporter` (community): probe success/latency for the
/// service endpoints NERSC watches.
pub struct BlackboxExporter {
    targets: Vec<String>,
    clock: SimClock,
}

impl BlackboxExporter {
    /// Probe the given endpoints.
    pub fn new(targets: Vec<String>, clock: SimClock) -> Self {
        Self { targets, clock }
    }
}

impl Exporter for BlackboxExporter {
    fn job(&self) -> &str {
        "blackbox-exporter"
    }

    fn render_into(&self, out: &mut String) {
        const SUCCESS: PageFamily =
            PageFamily::gauge("probe_success", "Probe succeeded (1) or not (0).");
        const DURATION: PageFamily =
            PageFamily::gauge("probe_duration_seconds", "Probe round-trip time.");
        SUCCESS.head(out);
        for t in &self.targets {
            SUCCESS.sample(out, &[("target", t)], 1.0);
        }
        DURATION.head(out);
        let bucket = (self.clock.now() / 1_000_000_000) as u64;
        for (i, t) in self.targets.iter().enumerate() {
            // Deterministic pseudo-latency from target index + time
            // bucket: the key is written at the page's end, hashed and
            // cut off again.
            let key = out.len();
            let _ = write!(out, "{t}:{bucket}");
            let jitter = omni_model::fnv1a64(&out.as_bytes()[key..]) % 50;
            out.truncate(key);
            let seconds = 0.002 + i as f64 * 0.0005 + jitter as f64 * 1e-5;
            DURATION.sample(out, &[("target", t)], seconds);
        }
    }
}

/// `kafka-exporter` (community): per-topic throughput counters from the
/// bus broker.
pub struct KafkaExporter {
    broker: Broker,
}

impl KafkaExporter {
    /// Export the broker's topic stats.
    pub fn new(broker: Broker) -> Self {
        Self { broker }
    }
}

impl Exporter for KafkaExporter {
    fn job(&self) -> &str {
        "kafka-exporter"
    }

    fn render_into(&self, out: &mut String) {
        const MESSAGES: PageFamily =
            PageFamily::counter("kafka_topic_messages_in_total", "Messages produced per topic.");
        const BYTES: PageFamily =
            PageFamily::counter("kafka_topic_bytes_in_total", "Bytes produced per topic.");
        const RETAINED: PageFamily =
            PageFamily::gauge("kafka_topic_retained_messages", "Currently retained messages.");
        let topics: Vec<_> = (self.broker.topics().into_iter())
            .map(|topic| {
                let stats = self.broker.stats(&topic).ok();
                let retained = self.broker.retained(&topic).ok();
                (topic, stats, retained)
            })
            .collect();
        MESSAGES.head(out);
        for (topic, stats, _) in &topics {
            if let Some(s) = stats {
                MESSAGES.sample(out, &[("topic", topic)], s.messages_in as f64);
            }
        }
        BYTES.head(out);
        for (topic, stats, _) in &topics {
            if let Some(s) = stats {
                BYTES.sample(out, &[("topic", topic)], s.bytes_in as f64);
            }
        }
        RETAINED.head(out);
        for (topic, _, retained) in &topics {
            if let Some(n) = retained {
                RETAINED.sample(out, &[("topic", topic)], *n as f64);
            }
        }
    }
}

/// `aruba-exporter` (NERSC custom): management-network switch port
/// counters, the paper's example of a site-written exporter.
pub struct ArubaExporter {
    /// Each switch with its ports' octet baselines.
    switches: Vec<(String, [u64; ARUBA_PORTS.len()])>,
    clock: SimClock,
}

/// The ports each switch reports, as their `port` label values.
const ARUBA_PORTS: [&str; 4] = ["0", "1", "2", "3"];

impl ArubaExporter {
    /// Export for the named management switches.
    pub fn new(switches: Vec<String>, clock: SimClock) -> Self {
        let switches = switches
            .into_iter()
            .map(|sw| {
                let base = ARUBA_PORTS
                    .map(|port| omni_model::fnv1a64(format!("{sw}:{port}").as_bytes()) % 10_000);
                (sw, base)
            })
            .collect();
        Self { switches, clock }
    }
}

impl Exporter for ArubaExporter {
    fn job(&self) -> &str {
        "aruba-exporter"
    }

    fn render_into(&self, out: &mut String) {
        const OCTETS: PageFamily =
            PageFamily::counter("aruba_port_rx_octets_total", "Received octets per port.");
        const ERRORS: PageFamily =
            PageFamily::counter("aruba_port_rx_errors_total", "Receive errors per port.");
        const UP: PageFamily = PageFamily::gauge("aruba_port_up", "Port operational status.");
        let t = (self.clock.now() / 1_000_000_000) as u64;
        let values: [Column<(u64, u64)>; 3] = [
            (OCTETS, |(base, t)| (base * 100 + t * 1_000) as f64),
            (ERRORS, |(_, t)| (t / 600) as f64),
            (UP, |_| 1.0),
        ];
        for (family, value) in values {
            family.head(out);
            for (sw, bases) in &self.switches {
                for (port, base) in ARUBA_PORTS.into_iter().zip(bases) {
                    family.sample(out, &[("port", port), ("switch", sw)], value((*base, t)));
                }
            }
        }
    }
}

/// GPFS exporter (the §V future-work monitoring mechanism): per-NSD-server
/// health, throughput and long-waiter gauges from the filesystem simulator.
pub struct GpfsExporter {
    cluster: Arc<omni_shasta::GpfsCluster>,
}

impl GpfsExporter {
    /// Export a filesystem's health.
    pub fn new(cluster: Arc<omni_shasta::GpfsCluster>) -> Self {
        Self { cluster }
    }
}

impl Exporter for GpfsExporter {
    fn job(&self) -> &str {
        "gpfs-exporter"
    }

    fn render_into(&self, out: &mut String) {
        use omni_shasta::gpfs::{GpfsSample, GpfsState};
        let values: [Column<&GpfsSample>; 5] = [
            (PageFamily::gauge("gpfs_server_healthy", "NSD server health (1=HEALTHY)."), |s| {
                if s.state == GpfsState::Healthy {
                    1.0
                } else {
                    0.0
                }
            }),
            (PageFamily::gauge("gpfs_sick_disks", "Disks not HEALTHY per server."), |s| {
                s.sick_disks as f64
            }),
            (
                PageFamily::gauge("gpfs_longest_waiter_seconds", "Longest RPC waiter per server."),
                |s| s.longest_waiter_s,
            ),
            (PageFamily::gauge("gpfs_read_mb_per_sec", "Read throughput."), |s| s.read_mb_s),
            (PageFamily::gauge("gpfs_write_mb_per_sec", "Write throughput."), |s| s.write_mb_s),
        ];
        let samples = self.cluster.sample();
        let fs = self.cluster.name();
        for (family, value) in values {
            family.head(out);
            for s in &samples {
                family.sample(out, &[("fs", fs), ("server", &s.server)], value(s));
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exposition::{render_exposition_into, MetricFamily};
    use crate::parse_exposition;
    use omni_bus::TopicConfig;
    use omni_model::LabelSet;
    use omni_xname::TopologySpec;

    fn machine() -> Arc<ShastaMachine> {
        Arc::new(ShastaMachine::new(TopologySpec::tiny(), SimClock::starting_at(0), 1))
    }

    #[test]
    fn node_exporter_covers_sensors() {
        let exp = NodeExporter::new(machine());
        let text = exp.render();
        let records = parse_exposition(&text).unwrap();
        assert!(records.iter().any(|r| r.name() == Some("node_temp_celsius")));
        assert!(records.iter().any(|r| r.name() == Some("node_power_watts")));
        assert!(records.iter().any(|r| r.name() == Some("chassis_humidity_percent")));
        // Every sample carries an xname.
        assert!(records.iter().all(|r| r.labels.contains("xname")));
    }

    /// The node page as `render_exposition_into` makes it from one gauge
    /// `MetricFamily` per kind: the reference the in-place writer is held to.
    fn node_page_reference(readings: &[SensorReading]) -> String {
        let mut families = NODE_FAMILIES.map(|(_, family)| family.reference());
        for r in readings {
            let labels = LabelSet::from_pairs([
                ("xname", r.xname.to_string()),
                ("sensor", r.sensor_id.clone()),
            ]);
            let i = NODE_FAMILIES.iter().position(|(kind, _)| *kind == r.kind).unwrap();
            families[i].sample(labels, r.value);
        }
        let mut out = String::new();
        render_exposition_into(&families, &mut out);
        out
    }

    #[test]
    fn node_page_is_byte_identical_to_the_family_rendering() {
        for spec in [TopologySpec::tiny(), TopologySpec::perlmutter_like()] {
            let machine = |seed| Arc::new(ShastaMachine::new(spec.clone(), SimClock::new(), seed));
            let (scraped, twin) = (machine(5), machine(5));
            let chassis = scraped.topology().chassis()[0];
            scraped.inject_leak(chassis, 'A', omni_shasta::LeakZone::Front);
            twin.inject_leak(chassis, 'A', omni_shasta::LeakZone::Front);
            let exporter = NodeExporter::new(scraped);
            for scrape in 0..5 {
                let mut readings = twin.sample_sensors();
                let mut page = String::from("# left in the buffer\n");
                exporter.render_into(&mut page);
                let reference = node_page_reference(&readings);
                assert_eq!(page.strip_prefix("# left in the buffer\n"), Some(reference.as_str()));
                // Sensor ids the machine never emits: quote, backslash and
                // line feed are escaped in the label value.
                readings[scrape].sensor_id = format!("t\"{scrape}\\\n");
                readings.push(SensorReading { value: f64::NAN, ..readings[scrape].clone() });
                let mut page = String::new();
                write_node_page(&readings, &mut page);
                assert!(page.contains(&format!("sensor=\"t\\\"{scrape}\\\\\\n\"")));
                assert_eq!(page, node_page_reference(&readings));
            }
        }
    }

    /// The four other pages as they were rendered through `MetricFamily`
    /// values, before they were written in place: the references the
    /// in-place writers are held to.
    fn blackbox_page_reference(targets: &[String], clock: &SimClock) -> String {
        let mut success = MetricFamily::gauge("probe_success", "Probe succeeded (1) or not (0).");
        let mut duration = MetricFamily::gauge("probe_duration_seconds", "Probe round-trip time.");
        let now = clock.now();
        for (i, t) in targets.iter().enumerate() {
            let labels = LabelSet::from_pairs([("target", t.as_str())]);
            let bucket = (now / 1_000_000_000) as u64;
            let jitter = omni_model::fnv1a64(format!("{t}:{bucket}").as_bytes()) % 50;
            success.sample(labels.clone(), 1.0);
            duration.sample(labels, 0.002 + i as f64 * 0.0005 + jitter as f64 * 1e-5);
        }
        let mut out = String::new();
        render_exposition_into(&[success, duration], &mut out);
        out
    }

    fn kafka_page_reference(broker: &Broker) -> String {
        let mut msgs =
            MetricFamily::counter("kafka_topic_messages_in_total", "Messages produced per topic.");
        let mut bytes =
            MetricFamily::counter("kafka_topic_bytes_in_total", "Bytes produced per topic.");
        let mut retained =
            MetricFamily::gauge("kafka_topic_retained_messages", "Currently retained messages.");
        for topic in broker.topics() {
            let labels = LabelSet::from_pairs([("topic", topic.as_str())]);
            if let Ok(stats) = broker.stats(&topic) {
                msgs.sample(labels.clone(), stats.messages_in as f64);
                bytes.sample(labels.clone(), stats.bytes_in as f64);
            }
            if let Ok(n) = broker.retained(&topic) {
                retained.sample(labels, n as f64);
            }
        }
        let mut out = String::new();
        render_exposition_into(&[msgs, bytes, retained], &mut out);
        out
    }

    fn aruba_page_reference(switches: &[String], clock: &SimClock) -> String {
        let mut octets =
            MetricFamily::counter("aruba_port_rx_octets_total", "Received octets per port.");
        let mut errors =
            MetricFamily::counter("aruba_port_rx_errors_total", "Receive errors per port.");
        let mut status = MetricFamily::gauge("aruba_port_up", "Port operational status.");
        let t = (clock.now() / 1_000_000_000) as u64;
        for sw in switches {
            for port in 0..4u32 {
                let labels =
                    LabelSet::from_pairs([("switch", sw.to_string()), ("port", format!("{port}"))]);
                let base = omni_model::fnv1a64(format!("{sw}:{port}").as_bytes()) % 10_000;
                octets.sample(labels.clone(), (base * 100 + t * 1_000) as f64);
                errors.sample(labels.clone(), (t / 600) as f64);
                status.sample(labels, 1.0);
            }
        }
        let mut out = String::new();
        render_exposition_into(&[octets, errors, status], &mut out);
        out
    }

    fn gpfs_page_reference(cluster: &omni_shasta::GpfsCluster) -> String {
        let mut state =
            MetricFamily::gauge("gpfs_server_healthy", "NSD server health (1=HEALTHY).");
        let mut sick = MetricFamily::gauge("gpfs_sick_disks", "Disks not HEALTHY per server.");
        let mut waiters =
            MetricFamily::gauge("gpfs_longest_waiter_seconds", "Longest RPC waiter per server.");
        let mut read = MetricFamily::gauge("gpfs_read_mb_per_sec", "Read throughput.");
        let mut write = MetricFamily::gauge("gpfs_write_mb_per_sec", "Write throughput.");
        for s in cluster.sample() {
            let labels = LabelSet::from_pairs([
                ("fs", cluster.name().to_string()),
                ("server", s.server.clone()),
            ]);
            state.sample(
                labels.clone(),
                if s.state == omni_shasta::GpfsState::Healthy { 1.0 } else { 0.0 },
            );
            sick.sample(labels.clone(), s.sick_disks as f64);
            waiters.sample(labels.clone(), s.longest_waiter_s);
            read.sample(labels.clone(), s.read_mb_s);
            write.sample(labels, s.write_mb_s);
        }
        let mut out = String::new();
        render_exposition_into(&[state, sick, waiters, read, write], &mut out);
        out
    }

    /// `exporter`'s page after whatever the buffer already held.
    fn appended(exporter: &dyn Exporter) -> String {
        let mut page = String::from("# left in the buffer\n");
        exporter.render_into(&mut page);
        page.strip_prefix("# left in the buffer\n").expect("appended").to_string()
    }

    #[test]
    fn every_page_is_byte_identical_to_its_family_rendering() {
        use omni_model::NANOS_PER_SEC;
        let clock = SimClock::starting_at(0);
        // A target and a switch whose names need escaping in a label value.
        let targets: Vec<String> =
            vec!["https://telemetry-api".into(), "https://grafana".into(), "q\"b\\n\n".into()];
        let switches: Vec<String> = vec!["mgmt-sw1".into(), "mgmt-sw2".into(), "sw\"3".into()];
        let blackbox = BlackboxExporter::new(targets.clone(), clock.clone());
        let aruba = ArubaExporter::new(switches.clone(), clock.clone());
        let broker = Broker::new(clock.clone());
        let kafka = KafkaExporter::new(broker.clone());
        let cluster = |seed| omni_shasta::GpfsCluster::new("scratch", 3, 4, clock.clone(), seed);
        let (scraped, twin) = (cluster(9), cluster(9));
        scraped.fail_disk("nsd01", 0);
        twin.fail_disk("nsd01", 0);
        let gpfs = GpfsExporter::new(scraped);
        for step in 0..5 {
            clock.advance(601 * NANOS_PER_SEC);
            broker.ensure_topic(&format!("topic-{}", step % 3), TopicConfig::default());
            broker.produce("topic-0", None, "hello").unwrap();
            assert_eq!(appended(&blackbox), blackbox_page_reference(&targets, &clock));
            assert_eq!(appended(&aruba), aruba_page_reference(&switches, &clock));
            assert_eq!(appended(&kafka), kafka_page_reference(&broker));
            assert_eq!(appended(&gpfs), gpfs_page_reference(&twin));
        }
    }

    #[test]
    fn node_exporter_reports_leaks() {
        let m = machine();
        let chassis = m.topology().chassis()[0];
        m.inject_leak(chassis, 'A', omni_shasta::LeakZone::Front);
        let exp = NodeExporter::new(m);
        let records = parse_exposition(&exp.render()).unwrap();
        let leaks: Vec<_> =
            records.iter().filter(|r| r.name() == Some("chassis_leak_detected")).collect();
        assert_eq!(leaks.len(), 1);
        assert_eq!(leaks[0].sample.value, 1.0);
    }

    #[test]
    fn blackbox_probes_targets() {
        let exp = BlackboxExporter::new(
            vec!["https://telemetry-api".into(), "https://loki-gw".into()],
            SimClock::starting_at(0),
        );
        let records = parse_exposition(&exp.render()).unwrap();
        assert_eq!(records.iter().filter(|r| r.name() == Some("probe_success")).count(), 2);
    }

    #[test]
    fn kafka_exporter_reflects_broker() {
        let broker = Broker::new(SimClock::new());
        broker.ensure_topic("cray-syslog", TopicConfig::default());
        broker.produce("cray-syslog", None, "hello").unwrap();
        let exp = KafkaExporter::new(broker);
        let records = parse_exposition(&exp.render()).unwrap();
        let m = records.iter().find(|r| r.name() == Some("kafka_topic_messages_in_total")).unwrap();
        assert_eq!(m.sample.value, 1.0);
        assert_eq!(m.labels.get("topic"), Some("cray-syslog"));
    }

    #[test]
    fn aruba_exporter_renders_ports() {
        let exp = ArubaExporter::new(vec!["mgmt-sw1".into()], SimClock::starting_at(0));
        let records = parse_exposition(&exp.render()).unwrap();
        assert_eq!(records.iter().filter(|r| r.name() == Some("aruba_port_up")).count(), 4);
    }

    #[test]
    fn gpfs_exporter_renders_health() {
        let gpfs = omni_shasta::GpfsCluster::new("scratch", 3, 4, SimClock::starting_at(0), 9);
        gpfs.fail_disk("nsd01", 0);
        let exp = GpfsExporter::new(gpfs);
        let records = parse_exposition(&exp.render()).unwrap();
        let healthy: Vec<_> =
            records.iter().filter(|r| r.name() == Some("gpfs_server_healthy")).collect();
        assert_eq!(healthy.len(), 3);
        let degraded = healthy.iter().find(|r| r.labels.get("server") == Some("nsd01")).unwrap();
        assert_eq!(degraded.sample.value, 0.0);
        let sick = records
            .iter()
            .find(|r| {
                r.name() == Some("gpfs_sick_disks") && r.labels.get("server") == Some("nsd01")
            })
            .unwrap();
        assert_eq!(sick.sample.value, 1.0);
    }

    #[test]
    fn rendered_pages_match_the_shipped_family_table() {
        // Both directions, per exporter: every family and label key on a
        // rendered page is a row of `shipped_exporter_families()`, and
        // every row (matched to its exporter by name prefix) is on the
        // page — so neither the table nor a `render` can drift alone.
        use std::collections::{BTreeMap, BTreeSet};
        let clock = SimClock::starting_at(0);
        let broker = Broker::new(clock.clone());
        broker.ensure_topic("cray-syslog", TopicConfig::default());
        broker.produce("cray-syslog", None, "hello").unwrap();
        // Leak sensors only report while wet.
        let machine = machine();
        machine.inject_leak(machine.topology().chassis()[0], 'A', omni_shasta::LeakZone::Front);
        let fleet: Vec<(Box<dyn Exporter>, &[&str])> = vec![
            (Box::new(NodeExporter::new(machine)), &["node_", "chassis_", "cdu_"]),
            (
                Box::new(BlackboxExporter::new(vec!["https://grafana".into()], clock.clone())),
                &["probe_"],
            ),
            (Box::new(KafkaExporter::new(broker)), &["kafka_"]),
            (Box::new(ArubaExporter::new(vec!["mgmt-sw1".into()], clock.clone())), &["aruba_"]),
            (
                Box::new(GpfsExporter::new(omni_shasta::GpfsCluster::new(
                    "scratch", 2, 2, clock, 9,
                ))),
                &["gpfs_"],
            ),
        ];
        let mut covered = 0;
        for (exporter, prefixes) in fleet {
            let declared: BTreeMap<String, BTreeSet<String>> = shipped_exporter_families()
                .into_iter()
                .filter(|(name, _)| prefixes.iter().any(|p| name.starts_with(p)))
                .map(|(name, labels)| (name.into(), labels.iter().map(|l| l.to_string()).collect()))
                .collect();
            covered += declared.len();
            let mut seen: BTreeMap<String, BTreeSet<String>> = BTreeMap::new();
            for r in parse_exposition(&exporter.render()).unwrap() {
                let keys = r.labels.iter().map(|(k, _)| k.to_string()).filter(|k| k != "__name__");
                seen.entry(r.name().unwrap().to_string()).or_default().extend(keys);
            }
            assert_eq!(seen, declared, "{} drifted from its table rows", exporter.job());
        }
        assert_eq!(covered, shipped_exporter_families().len(), "a row belongs to no exporter");
    }

    #[test]
    fn all_exporters_have_distinct_jobs() {
        let m = machine();
        let clock = SimClock::new();
        let broker = Broker::new(clock.clone());
        let exps: Vec<Box<dyn Exporter>> = vec![
            Box::new(NodeExporter::new(m)),
            Box::new(BlackboxExporter::new(vec![], clock.clone())),
            Box::new(KafkaExporter::new(broker)),
            Box::new(ArubaExporter::new(vec![], clock.clone())),
            Box::new(GpfsExporter::new(omni_shasta::GpfsCluster::new("scratch", 1, 1, clock, 0))),
        ];
        let mut jobs: Vec<&str> = exps.iter().map(|e| e.job()).collect();
        jobs.sort();
        jobs.dedup();
        assert_eq!(jobs.len(), 5);
    }
}
