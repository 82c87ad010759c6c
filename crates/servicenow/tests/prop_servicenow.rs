//! `ServiceNow` against a reference: the linear-scan instance it replaced
//! (an event folded through an owned `SnEvent`, a whole-alert snapshot per
//! event, every incident scanned to resolve one), with three fixes
//! applied: an SN Alert's worst severity is folded from firing events
//! only, so a clear no longer lowers it to critical; an SN Alert a clear
//! creates starts at 5 (OK), so the next firing event sets its severity;
//! and an Alertmanager alert clears only when it is resolved, so a firing
//! `info` / `ok` alert (code 5) no longer closes its SN Alert.
//!
//! Both are fed the same ops, with the CMDB loaded and a random subset of
//! incident rules in a random order:
//! - notifications of one to four Alertmanager alerts, firing or resolved,
//!   whose `severity` label is missing, known in either case (`info`,
//!   `ok`, `clear` and `informational` among them, code 5) or unknown,
//!   whose node comes from `Context`, `xname`, `instance` or nothing (a
//!   CMDB xname or an unknown name), with or without `category` and a
//!   `summary`;
//! - direct `SnEvent`s of severity 0 to 6 (0 and 5 are clears);
//! - `resolve_incident` on open, resolved, out-of-range and malformed
//!   numbers (`INC1`, `INC0000000`, `""`, ...).
//!
//! After every op the two must agree on the op's return value, `alerts()`,
//! `incidents()`, `mttr_ns()` and `events_received()`.
//!
//! Mutations this catches: a slot lookup without the number check (`INC1`
//! resolves `INC0000001`); a severity fold that includes clears; an SN
//! Alert a clear creates at the clear's severity; a firing alert of code 5
//! read as a clear; a clear that re-stamps
//! an incident already resolved; a notification that returns the newest
//! incident in the instance instead of the alert's own; a message key
//! written without its `:`; a case-sensitive severity parse.
//!
//! Cases: `PROPTEST_CASES` (default 64), each on its own seeded generator.

use omni_alertmanager::{Alert, AlertStatus, Notification};
use omni_model::{LabelSet, Timestamp};
use omni_servicenow::{
    Cmdb, Incident, IncidentRule, IncidentState, ServiceNow, SnAlert, SnAlertState, SnEvent,
};
use omni_xname::{MachineTopology, TopologySpec};
use std::collections::HashMap;

/// The instance `ServiceNow` replaced, fixed only in its severity fold, in
/// the severity a clear creates an SN Alert with, and in what counts as
/// an alert's clear.
struct Reference {
    cmdb: Cmdb,
    alerts: HashMap<String, SnAlert>,
    incidents: Vec<Incident>,
    rules: Vec<IncidentRule>,
    events_received: u64,
    next_alert: u64,
    next_incident: u64,
}

impl Reference {
    fn new(cmdb: Cmdb, rules: Vec<IncidentRule>) -> Self {
        Reference {
            cmdb,
            alerts: HashMap::new(),
            incidents: Vec::new(),
            rules,
            events_received: 0,
            next_alert: 1,
            next_incident: 1,
        }
    }

    fn process_event(&mut self, event: SnEvent, now: Timestamp) -> String {
        let is_clear = event.severity == 0 || event.severity == 5;
        self.apply(event, is_clear, now)
    }

    fn apply(&mut self, event: SnEvent, is_clear: bool, now: Timestamp) -> String {
        self.events_received += 1;
        let key = event.message_key.clone();
        if !self.alerts.contains_key(&key) {
            let number = format!("Alert{:07}", self.next_alert);
            self.next_alert += 1;
            let ci_bound = self.cmdb.find_by_name(&event.node).map(|ci| ci.sys_id.clone());
            self.alerts.insert(
                key.clone(),
                SnAlert {
                    number,
                    message_key: key.clone(),
                    severity: if is_clear { 5 } else { event.severity },
                    state: SnAlertState::Open,
                    description: event.description.clone(),
                    node: event.node.clone(),
                    resource: event.resource.clone(),
                    ci: ci_bound,
                    event_count: 0,
                    first_event_at: now,
                    last_event_at: now,
                    incident: None,
                },
            );
        }
        let alert = self.alerts.get_mut(&key).unwrap();
        alert.event_count += 1;
        alert.last_event_at = now;
        if !is_clear {
            alert.severity = alert.severity.min(event.severity.max(1));
        }
        let mut incident_to_close = None;
        if is_clear {
            alert.state = SnAlertState::Closed;
            incident_to_close = alert.incident.clone();
        } else if alert.state == SnAlertState::Closed {
            alert.state = SnAlertState::Reopen;
            alert.incident = None;
        }
        let number = alert.number.clone();
        let alert_snapshot = alert.clone();
        if let Some(inc_number) = incident_to_close {
            for inc in self.incidents.iter_mut() {
                if inc.number == inc_number && inc.state != IncidentState::Resolved {
                    inc.state = IncidentState::Resolved;
                    inc.resolved_at = Some(now);
                }
            }
        }
        if alert_snapshot.state != SnAlertState::Closed && alert_snapshot.incident.is_none() {
            let matched = self.rules.iter().find(|r| r.matches(&alert_snapshot)).cloned();
            if let Some(rule) = matched {
                let inc_number = format!("INC{:07}", self.next_incident);
                self.next_incident += 1;
                self.incidents.push(Incident {
                    number: inc_number.clone(),
                    short_description: alert_snapshot.description.clone(),
                    state: IncidentState::New,
                    priority: rule.priority_for(alert_snapshot.severity),
                    assignment_group: rule.assignment_group.clone(),
                    ci: alert_snapshot.ci.clone(),
                    alert_number: number.clone(),
                    opened_at: now,
                    resolved_at: None,
                });
                self.alerts.get_mut(&key).unwrap().incident = Some(inc_number);
            }
        }
        number
    }

    fn receive_notification(&mut self, n: &Notification, now: Timestamp) -> Vec<Option<String>> {
        n.alerts
            .iter()
            .map(|a| {
                let event = reference_event(a);
                let key = event.message_key.clone();
                self.apply(event, a.status == AlertStatus::Resolved, now);
                self.alerts[&key].incident.clone()
            })
            .collect()
    }

    fn resolve_incident(&mut self, number: &str, now: Timestamp) -> bool {
        for inc in self.incidents.iter_mut() {
            if inc.number == number && inc.state != IncidentState::Resolved {
                inc.state = IncidentState::Resolved;
                inc.resolved_at = Some(now);
                return true;
            }
        }
        false
    }

    fn alerts(&self) -> Vec<SnAlert> {
        let mut v: Vec<SnAlert> = self.alerts.values().cloned().collect();
        v.sort_by(|a, b| a.number.cmp(&b.number));
        v
    }

    fn mttr_ns(&self) -> Option<i64> {
        let durations: Vec<i64> =
            self.incidents.iter().filter_map(|i| i.resolved_at.map(|r| r - i.opened_at)).collect();
        if durations.is_empty() {
            None
        } else {
            Some(durations.iter().sum::<i64>() / durations.len() as i64)
        }
    }
}

/// The Alertmanager → SN Event mapping it replaced, severity parse
/// included.
fn reference_event(alert: &Alert) -> SnEvent {
    let severity = match alert.status {
        AlertStatus::Resolved => 0,
        AlertStatus::Firing => alert
            .labels
            .get("severity")
            .and_then(|s| match s.to_ascii_lowercase().as_str() {
                "critical" | "crit" | "fatal" => Some(1),
                "major" | "error" => Some(2),
                "warning" | "warn" | "minor" => Some(3),
                "ok" | "clear" | "resolved" | "info" | "informational" => Some(5),
                _ => None,
            })
            .unwrap_or(3),
    };
    let node = alert
        .labels
        .get("Context")
        .or_else(|| alert.labels.get("xname"))
        .or_else(|| alert.labels.get("instance"))
        .unwrap_or("")
        .to_string();
    let description = alert
        .annotations
        .iter()
        .find(|(k, _)| k == "summary")
        .map(|(_, v)| v.clone())
        .unwrap_or_else(|| alert.name().to_string());
    SnEvent {
        source: "alertmanager".into(),
        message_key: format!("{}:{}", alert.name(), node),
        node,
        metric_type: alert.name().to_string(),
        resource: alert.labels.get("category").unwrap_or("infrastructure").to_string(),
        severity,
        description,
    }
}

/// SplitMix64: a seeded generator for the ops.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }

    fn pick<'a, T>(&mut self, options: &'a [T]) -> &'a T {
        &options[self.below(options.len())]
    }
}

const NAMES: [&str; 3] = ["PerlmutterCabinetLeak", "PerlmutterSwitchOffline", ""];
const SEVERITIES: [Option<&str>; 11] = [
    None,
    Some("critical"),
    Some("CRITICAL"),
    Some("Crit"),
    Some("major"),
    Some("warning"),
    Some("info"),
    Some("OK"),
    Some("clear"),
    Some("Informational"),
    Some("bogus"),
];
const NODE_LABELS: [Option<&str>; 4] = [Some("Context"), Some("xname"), Some("instance"), None];
const CATEGORIES: [Option<&str>; 3] = [None, Some("facility"), Some("fabric")];
const SUMMARIES: [Option<&str>; 3] = [None, Some("leak detected"), Some("")];
const DIRECT_KEYS: [&str; 4] = ["k1", "k2", "PerlmutterCabinetLeak:", "k4"];
const RESOURCES: [&str; 3] = ["infrastructure", "fabric", "storage"];

fn rules() -> Vec<IncidentRule> {
    let rule =
        |name: &str, max_severity, node: Option<&str>, resource: Option<&str>| IncidentRule {
            name: name.into(),
            max_severity,
            node_contains: node.map(Into::into),
            resource: resource.map(Into::into),
            assignment_group: format!("{name}-group"),
        };
    vec![
        rule("critical", 1, None, None),
        rule("major", 2, None, None),
        rule("chassis-one", 3, Some("c1"), None),
        rule("fabric", 4, None, Some("fabric")),
        rule("anything", 6, None, None),
    ]
}

fn random_alert(rng: &mut Rng, nodes: &[String]) -> Alert {
    let mut pairs: Vec<(&str, &str)> = vec![("alertname", *rng.pick(&NAMES))];
    if let Some(severity) = rng.pick(&SEVERITIES) {
        pairs.push(("severity", severity));
    }
    if let Some(label) = rng.pick(&NODE_LABELS) {
        pairs.push((label, rng.pick(nodes).as_str()));
    }
    if let Some(category) = rng.pick(&CATEGORIES) {
        pairs.push(("category", category));
    }
    let mut annotations = vec![("trace_id".to_string(), "0000000000000001".to_string())];
    if let Some(summary) = rng.pick(&SUMMARIES) {
        annotations.push(("summary".into(), summary.to_string()));
    }
    let status = if rng.below(3) == 0 { AlertStatus::Resolved } else { AlertStatus::Firing };
    Alert { labels: LabelSet::from_pairs(pairs), annotations, status, starts_at: 0 }
}

fn incident_number(rng: &mut Rng, opened: usize) -> String {
    match rng.below(6) {
        0 => "INC1".into(),
        1 => "INC0000000".into(),
        2 => String::new(),
        3 => format!("INC{:07}", opened + 1 + rng.below(3)),
        _ if opened > 0 => format!("INC{:07}", 1 + rng.below(opened)),
        _ => "INC0000001".into(),
    }
}

fn run_case(seed: u64) {
    let mut rng = Rng(seed);
    let topo = MachineTopology::new(TopologySpec::tiny());
    let mut cmdb = Cmdb::new();
    cmdb.load_topology("perlmutter", &topo);
    let mut nodes: Vec<String> =
        topo.chassis_bmcs().iter().take(3).map(|x| x.to_string()).collect();
    nodes.extend(topo.switches().iter().take(2).map(|x| x.to_string()));
    nodes.push("nid999999".into());

    let mut rules = rules();
    rules.retain(|_| rng.below(3) > 0);
    for i in (1..rules.len()).rev() {
        rules.swap(i, rng.below(i + 1));
    }
    let sn = ServiceNow::new();
    sn.with_cmdb(|c| c.load_topology("perlmutter", &topo));
    for rule in &rules {
        sn.add_incident_rule(rule.clone());
    }
    let mut reference = Reference::new(cmdb, rules);

    let mut now: Timestamp = 0;
    let ops = 1 + rng.below(80);
    for op in 0..ops {
        now += rng.below(4) as i64 * 1_000;
        let what = match rng.below(10) {
            0..=5 => {
                let alerts =
                    (0..1 + rng.below(4)).map(|_| random_alert(&mut rng, &nodes)).collect();
                let n = Notification {
                    receiver: "servicenow".into(),
                    group_labels: LabelSet::from_pairs([("alertname", "any")]),
                    alerts,
                };
                let got = sn.receive_notification(&n, now);
                assert_eq!(
                    got,
                    reference.receive_notification(&n, now),
                    "seed {seed:#x} op {op}: {n:?}"
                );
                format!("{n:?}")
            }
            6 | 7 => {
                let event = SnEvent {
                    source: "test".into(),
                    node: rng.pick(&nodes).clone(),
                    metric_type: "direct".into(),
                    resource: rng.pick(&RESOURCES).to_string(),
                    severity: rng.below(7) as u8,
                    message_key: rng.pick(&DIRECT_KEYS).to_string(),
                    description: "direct event".into(),
                };
                let got = sn.process_event(event.clone(), now);
                assert_eq!(
                    got,
                    reference.process_event(event.clone(), now),
                    "seed {seed:#x} op {op}"
                );
                format!("{event:?}")
            }
            _ => {
                let number = incident_number(&mut rng, reference.incidents.len());
                let got = sn.resolve_incident(&number, now);
                assert_eq!(
                    got,
                    reference.resolve_incident(&number, now),
                    "seed {seed:#x} op {op}: {number:?}"
                );
                format!("resolve {number:?}")
            }
        };
        assert_eq!(sn.alerts(), reference.alerts(), "seed {seed:#x} op {op}: {what}");
        assert_eq!(sn.incidents(), reference.incidents, "seed {seed:#x} op {op}: {what}");
        assert_eq!(sn.mttr_ns(), reference.mttr_ns(), "seed {seed:#x} op {op}: {what}");
        assert_eq!(
            sn.events_received(),
            reference.events_received,
            "seed {seed:#x} op {op}: {what}"
        );
        assert_eq!(sn.incident_count(), reference.incidents.len(), "seed {seed:#x} op {op}");
    }
}

#[test]
fn servicenow_matches_the_linear_scan_reference() {
    let cases: u64 =
        std::env::var("PROPTEST_CASES").ok().and_then(|v| v.parse().ok()).unwrap_or(64);
    for case in 0..cases {
        run_case(0x5eed_0000 + case);
    }
}
