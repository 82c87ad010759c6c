//! Syslog and container-log generators.
//!
//! OMNI's dominant ingest volume is plain logs ("Syslog, container logs,
//! and redfish events that are stored in Kafka"). These generators
//! produce realistic, deterministic line mixes for the throughput and
//! compression experiments (C1, C2) and for soak-testing the Loki path.

use omni_model::{format_iso8601, SimClock, Timestamp};
use omni_xname::XName;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::fmt::Write as _;

/// Message templates with weights; `{}` slots are filled per line.
const SYSLOG_TEMPLATES: &[(&str, u32)] = &[
    ("systemd[1]: Started Session {} of user nersc.", 20),
    ("sshd[{}]: Accepted publickey for user{} from 10.10.{}.{} port 50022", 12),
    ("kernel: [{}] EDAC MC0: 1 CE memory read error on CPU_SrcID#0_MC#0", 6),
    ("slurmd[{}]: launch task StepId={}.0 request from UID 6{}", 18),
    ("slurmd[{}]: done with job {}", 18),
    ("kernel: [{}] nvidia-smi: GPU {} temperature within range", 8),
    ("munged[{}]: Decoded credential for UID {}", 10),
    ("ntpd[{}]: adjusting local clock by {}.{}s", 4),
    ("lustre: {}.{}: Connection restored to MGS (at 10.100.0.{})", 3),
    ("kernel: [{}] BUG: soft lockup - CPU#{} stuck for 23s!", 1),
];

const CONTAINER_TEMPLATES: &[(&str, u32)] = &[
    (
        r#"{{"level":"info","msg":"request handled","path":"/apis/telemetry/v1/stream","code":200,"dur_ms":{}}}"#,
        30,
    ),
    (r#"{{"level":"info","msg":"scrape ok","target":"node-exporter-{}","samples":{}}}"#, 25),
    (
        r#"{{"level":"warn","msg":"retrying kafka publish","topic":"cray-telemetry-temperature","attempt":{}}}"#,
        6,
    ),
    (r#"{{"level":"info","msg":"chunk flushed","stream_count":{},"bytes":{}}}"#, 15),
    (r#"{{"level":"error","msg":"connection reset by peer","remote":"10.20.{}.{}"}}"#, 3),
    (r#"{{"level":"info","msg":"compaction done","tables":{},"dur_ms":{}}}"#, 10),
];

fn pick_weighted(rng: &mut StdRng, templates: &'static [(&'static str, u32)]) -> &'static str {
    let total: u32 = templates.iter().map(|(_, w)| w).sum();
    let mut roll = rng.gen_range(0..total);
    for (t, w) in templates {
        if roll < *w {
            return t;
        }
        roll -= w;
    }
    templates[0].0
}

/// Append `template` to `out`, each bare `{}` slot filled with a random
/// number and each `{{` / `}}` unescaped to a literal brace (pre-rendered
/// JSON templates). A number holds no brace, so unescaping the text
/// between slots one piece at a time unescapes the whole line.
fn fill_slots(template: &str, rng: &mut StdRng, out: &mut String) {
    let mut rest = template;
    loop {
        // Don't treat the `{}` inside an escaped `{{}}` specially: the
        // templates above never produce that sequence.
        let slot = rest.find("{}");
        let literal = &rest[..slot.unwrap_or(rest.len())];
        if literal.contains(['{', '}']) {
            // The second brace of a doubled pair is dropped.
            let mut unpaired = None;
            for c in literal.chars() {
                if unpaired == Some(c) {
                    unpaired = None;
                    continue;
                }
                out.push(c);
                unpaired = matches!(c, '{' | '}').then_some(c);
            }
        } else {
            out.push_str(literal);
        }
        let Some(pos) = slot else { return };
        let _ = write!(out, "{}", rng.gen_range(1u32..99_999));
        rest = &rest[pos + 2..];
    }
}

/// Deterministic syslog line generator for a set of hosts.
pub struct SyslogGenerator {
    hosts: Vec<String>,
    clock: SimClock,
    rng: StdRng,
    /// The last timestamp formatted, and its text: a step's lines share
    /// one clock reading.
    stamp: (Timestamp, String),
    /// A line's body, reused.
    body: String,
}

impl SyslogGenerator {
    /// Generate for the given node xnames.
    pub fn new(nodes: &[XName], clock: SimClock, seed: u64) -> Self {
        assert!(!nodes.is_empty(), "need at least one host");
        Self {
            hosts: nodes.iter().map(|x| x.to_string()).collect(),
            stamp: (clock.now(), format_iso8601(clock.now())),
            clock,
            rng: StdRng::seed_from_u64(seed),
            body: String::new(),
        }
    }

    /// Produce one `(host, line)` pair in RFC 5424-ish shape:
    /// `<13> 2022-03-03T01:47:57Z x1000c0s0b0n0 slurmd[1234]: ...`.
    pub fn next_line(&mut self) -> (String, String) {
        let host = &self.hosts[self.rng.gen_range(0..self.hosts.len())];
        let template = pick_weighted(&mut self.rng, SYSLOG_TEMPLATES);
        let body = &mut self.body;
        body.clear();
        fill_slots(template, &mut self.rng, body);
        let now = self.clock.now();
        if self.stamp.0 != now {
            self.stamp = (now, format_iso8601(now));
        }
        let ts = &self.stamp.1;
        let pri = if body.contains("BUG") { 2 } else { 13 };
        let mut line = String::with_capacity(8 + ts.len() + host.len() + body.len());
        let _ = write!(line, "<{pri}> {ts} {host} {body}");
        (host.clone(), line)
    }

    /// Produce a batch of lines.
    pub fn batch(&mut self, n: usize) -> Vec<(String, String)> {
        (0..n).map(|_| self.next_line()).collect()
    }
}

/// Deterministic container (K8s pod) log generator.
pub struct ContainerLogGenerator {
    pods: Vec<String>,
    rng: StdRng,
}

impl ContainerLogGenerator {
    /// Generate for the named pods (e.g. `telemetry-api-0`).
    pub fn new(pods: Vec<String>, seed: u64) -> Self {
        assert!(!pods.is_empty(), "need at least one pod");
        Self { pods, rng: StdRng::seed_from_u64(seed) }
    }

    /// The paper's K3s service pod set.
    pub fn k3s_services(seed: u64) -> Self {
        let pods = [
            "telemetry-api-server",
            "kafka-broker",
            "rsyslog-aggregator",
            "vmagent",
            "loki-ingester",
            "loki-querier",
            "bridge-client-logs",
            "bridge-client-metrics",
        ]
        .iter()
        .flat_map(|s| (0..2).map(move |i| format!("{s}-{i}")))
        .collect();
        Self::new(pods, seed)
    }

    /// Produce one `(pod, json_line)` pair.
    pub fn next_line(&mut self) -> (String, String) {
        let pod = self.pods[self.rng.gen_range(0..self.pods.len())].clone();
        let template = pick_weighted(&mut self.rng, CONTAINER_TEMPLATES);
        let mut line = String::with_capacity(template.len() + 16);
        fill_slots(template, &mut self.rng, &mut line);
        (pod, line)
    }

    /// Produce a batch of lines.
    pub fn batch(&mut self, n: usize) -> Vec<(String, String)> {
        (0..n).map(|_| self.next_line()).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use omni_xname::{MachineTopology, TopologySpec};

    fn nodes() -> Vec<XName> {
        MachineTopology::new(TopologySpec::tiny()).nodes().to_vec()
    }

    #[test]
    fn syslog_lines_have_shape() {
        let clock = SimClock::starting_at(1_646_272_077_000_000_000);
        let mut g = SyslogGenerator::new(&nodes(), clock, 7);
        for _ in 0..100 {
            let (host, line) = g.next_line();
            assert!(line.starts_with('<'), "{line}");
            assert!(line.contains(&host), "{line}");
            assert!(line.contains("2022-03-03T"), "{line}");
            assert!(!line.contains("{}"), "unfilled slot in {line}");
        }
    }

    /// The generator as it formatted lines before it wrote them in place:
    /// every slot's number through `to_string`, the braces unescaped by
    /// two `replace` passes over the whole line.
    fn reference_fill(template: &str, rng: &mut StdRng) -> String {
        let mut out = String::new();
        let mut rest = template;
        while let Some(pos) = rest.find("{}") {
            out.push_str(&rest[..pos]);
            out.push_str(&rng.gen_range(1u32..99_999).to_string());
            rest = &rest[pos + 2..];
        }
        out.push_str(rest);
        out.replace("{{", "{").replace("}}", "}")
    }

    #[test]
    fn lines_are_the_reference_formatting_byte_for_byte() {
        let clock = SimClock::starting_at(1_646_272_077_000_000_000);
        let hosts: Vec<String> = nodes().iter().map(|x| x.to_string()).collect();
        let (mut syslog, mut container) = (
            SyslogGenerator::new(&nodes(), clock.clone(), 11),
            ContainerLogGenerator::k3s_services(11),
        );
        let (mut rng, mut crng) = (StdRng::seed_from_u64(11), StdRng::seed_from_u64(11));
        for i in 0..2_000 {
            if i % 300 == 0 {
                clock.advance(1_500_000_000);
            }
            let host = hosts[rng.gen_range(0..hosts.len())].clone();
            let body = reference_fill(pick_weighted(&mut rng, SYSLOG_TEMPLATES), &mut rng);
            let ts = format_iso8601(clock.now());
            let pri = if body.contains("BUG") { 2 } else { 13 };
            let want = (host.clone(), format!("<{pri}> {ts} {host} {body}"));
            assert_eq!(syslog.next_line(), want);
            let pod = container.pods[crng.gen_range(0..container.pods.len())].clone();
            let line = reference_fill(pick_weighted(&mut crng, CONTAINER_TEMPLATES), &mut crng);
            assert_eq!(container.next_line(), (pod, line));
        }
        // Doubled, tripled and lone braces, next to slots and each other.
        for template in ["{{{}}}", "{{{{x}}}", "}{a{{", "{}{}", "x}}}}}{}{{{"] {
            let (mut a, mut b) = (StdRng::seed_from_u64(5), StdRng::seed_from_u64(5));
            let mut got = String::new();
            fill_slots(template, &mut a, &mut got);
            assert_eq!(got, reference_fill(template, &mut b), "{template}");
        }
    }

    #[test]
    fn syslog_is_deterministic() {
        let mk = || {
            let clock = SimClock::new();
            SyslogGenerator::new(&nodes(), clock, 99).batch(50)
        };
        assert_eq!(mk(), mk());
    }

    #[test]
    fn container_lines_are_valid_json() {
        let mut g = ContainerLogGenerator::k3s_services(3);
        for _ in 0..200 {
            let (_pod, line) = g.next_line();
            omni_json::parse(&line).unwrap_or_else(|e| panic!("bad json {line}: {e}"));
        }
    }

    #[test]
    fn container_pods_cover_services() {
        let g = ContainerLogGenerator::k3s_services(3);
        assert_eq!(g.pods.len(), 16);
        assert!(g.pods.iter().any(|p| p.starts_with("telemetry-api-server")));
    }

    #[test]
    fn weighted_pick_hits_common_templates() {
        let clock = SimClock::new();
        let mut g = SyslogGenerator::new(&nodes(), clock, 1);
        let lines = g.batch(500);
        let slurm = lines.iter().filter(|(_, l)| l.contains("slurmd")).count();
        // slurmd templates carry 36/100 weight; expect a healthy share.
        assert!(slurm > 100, "slurmd lines: {slurm}");
    }
}
