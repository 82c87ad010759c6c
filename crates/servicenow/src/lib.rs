//! A ServiceNow event-management substitute.
//!
//! "Alerts are transformed into ServiceNow (SN) 'Events', which are
//! correlated and grouped into SN 'Alerts', which then trigger automated
//! response actions (incidents, notifications, etc.)" (§IV). NERSC "only
//! use their incident management module, and event management module",
//! which is exactly the slice implemented here:
//!
//! * [`cmdb`] — the configuration management database, its CIs generated
//!   from Perlmutter assets;
//! * [`event`] — Events deduplicated by `message_key` into SN Alerts;
//! * [`incident`] — alert-rule driven Incident creation, assignment
//!   groups, resolution and MTTR accounting.

pub mod cmdb;
pub mod event;
pub mod incident;

pub use cmdb::{Ci, Cmdb};
pub use event::{SnAlert, SnAlertState, SnEvent};
pub use incident::{Incident, IncidentRule, IncidentState};

use event::{AlertEvent, EventFields};
use omni_alertmanager::Notification;
use omni_model::Timestamp;
use parking_lot::Mutex;
use std::collections::HashMap;
use std::sync::Arc;

/// The ServiceNow instance.
#[derive(Clone)]
pub struct ServiceNow {
    inner: Arc<Mutex<Inner>>,
}

struct Inner {
    cmdb: Cmdb,
    alerts: HashMap<String, SnAlert>, // message_key -> alert
    incidents: Vec<Incident>,
    rules: Vec<IncidentRule>,
    events_received: u64,
    next_alert: u64,
    next_incident: u64,
    /// Reused message-key buffer for events read from an alert.
    key_buf: String,
}

impl Inner {
    /// Ingest one event under `key`: dedup into an SN Alert (created,
    /// with its CI bound, on the key's first event), fold the severity,
    /// close or reopen it, and apply the incident rules. Strings are
    /// copied only into a new SN Alert or a new incident.
    fn apply(&mut self, key: &str, event: EventFields<'_>, now: Timestamp) -> &SnAlert {
        let Inner {
            cmdb,
            alerts,
            incidents,
            rules,
            events_received,
            next_alert,
            next_incident,
            ..
        } = self;
        *events_received += 1;
        if !alerts.contains_key(key) {
            let number = format!("Alert{:07}", *next_alert);
            *next_alert += 1;
            let ci = cmdb.find_by_name(event.node).map(|ci| ci.sys_id.clone());
            alerts.insert(
                key.to_string(),
                SnAlert {
                    number,
                    message_key: key.to_string(),
                    // A clear records no firing severity: 5 (OK) is above
                    // every firing code, so the next firing event sets it.
                    severity: if event.clear { 5 } else { event.severity },
                    state: SnAlertState::Open,
                    description: event.description.to_string(),
                    node: event.node.to_string(),
                    resource: event.resource.to_string(),
                    ci,
                    event_count: 0,
                    first_event_at: now,
                    last_event_at: now,
                    incident: None,
                },
            );
        }
        let alert = alerts.get_mut(key).expect("inserted above");
        alert.event_count += 1;
        alert.last_event_at = now;
        if event.clear {
            alert.state = SnAlertState::Closed;
            // Clearing the alert auto-resolves its incident (the paper's
            // "automated response actions"); MTTR accrues from this.
            let open = alert.incident.as_deref().and_then(|n| incident_mut(incidents, n));
            if let Some(inc) = open.filter(|inc| inc.state != IncidentState::Resolved) {
                inc.state = IncidentState::Resolved;
                inc.resolved_at = Some(now);
            }
        } else {
            // Worst severity seen, from firing events only: a clear
            // carries no severity of its own.
            alert.severity = alert.severity.min(event.severity);
            if alert.state == SnAlertState::Closed {
                alert.state = SnAlertState::Reopen;
                alert.incident = None; // a re-occurrence opens a fresh ticket
            }
        }
        // Incident rules.
        if alert.state != SnAlertState::Closed && alert.incident.is_none() {
            if let Some(rule) = rules.iter().find(|r| r.matches(alert)) {
                let number = format!("INC{:07}", *next_incident);
                *next_incident += 1;
                incidents.push(Incident {
                    number: number.clone(),
                    short_description: alert.description.clone(),
                    state: IncidentState::New,
                    priority: rule.priority_for(alert.severity),
                    assignment_group: rule.assignment_group.clone(),
                    ci: alert.ci.clone(),
                    alert_number: alert.number.clone(),
                    opened_at: now,
                    resolved_at: None,
                });
                alert.incident = Some(number);
            }
        }
        alert
    }
}

/// The incident numbered `number`. Numbers are `INC{n:07}` from 1, pushed
/// in order, so `INCn` lives in slot `n - 1`; the slot's own number must
/// equal `number` (so `INC1` or `INC0000000` finds nothing).
fn incident_mut<'a>(incidents: &'a mut [Incident], number: &str) -> Option<&'a mut Incident> {
    let n: usize = number.strip_prefix("INC")?.parse().ok()?;
    incidents.get_mut(n.checked_sub(1)?).filter(|inc| inc.number == number)
}

impl Default for ServiceNow {
    fn default() -> Self {
        Self::new()
    }
}

impl ServiceNow {
    /// An empty instance.
    pub fn new() -> Self {
        Self {
            inner: Arc::new(Mutex::new(Inner {
                cmdb: Cmdb::new(),
                alerts: HashMap::new(),
                incidents: Vec::new(),
                rules: Vec::new(),
                events_received: 0,
                next_alert: 1,
                next_incident: 1,
                key_buf: String::new(),
            })),
        }
    }

    /// Access the CMDB (loads, lookups).
    pub fn with_cmdb<R>(&self, f: impl FnOnce(&mut Cmdb) -> R) -> R {
        f(&mut self.inner.lock().cmdb)
    }

    /// Register an incident rule.
    pub fn add_incident_rule(&self, rule: IncidentRule) {
        self.inner.lock().rules.push(rule);
    }

    /// Ingest one event: dedup into an SN Alert, bind its CI, and apply
    /// incident rules. Returns the alert number.
    pub fn process_event(&self, event: SnEvent, now: Timestamp) -> String {
        let mut inner = self.inner.lock();
        inner.apply(&event.message_key, event.as_fields(), now).number.clone()
    }

    /// Convert and ingest an Alertmanager notification: one SN Event per
    /// contained alert (the paper's "alerts are transformed into SN
    /// Events"), each read borrowed. Returns, per alert and in order, the
    /// incident bound to its SN Alert after its event.
    pub fn receive_notification(
        &self,
        notification: &Notification,
        now: Timestamp,
    ) -> Vec<Option<String>> {
        let mut inner = self.inner.lock();
        let mut key = std::mem::take(&mut inner.key_buf);
        let bound = notification
            // `Notification::alerts` is a Vec the grouper already sorted;
            // the `alerts` hash map belongs to `SnInner`.
            .alerts // lint:allow(nondet-iter)
            .iter()
            .map(|a| {
                let event = AlertEvent::of(a);
                event.write_key(&mut key);
                inner.apply(&key, event.fields, now).incident.clone()
            })
            .collect();
        inner.key_buf = key;
        bound
    }

    /// Resolve an incident (operator action or automated remediation).
    /// `false` when no incident has that number or it is already resolved.
    pub fn resolve_incident(&self, number: &str, now: Timestamp) -> bool {
        let mut inner = self.inner.lock();
        match incident_mut(&mut inner.incidents, number) {
            Some(inc) if inc.state != IncidentState::Resolved => {
                inc.state = IncidentState::Resolved;
                inc.resolved_at = Some(now);
                true
            }
            _ => false,
        }
    }

    /// All incidents (snapshot).
    pub fn incidents(&self) -> Vec<Incident> {
        self.inner.lock().incidents.clone()
    }

    /// How many incidents were ever opened, without cloning them.
    pub fn incident_count(&self) -> usize {
        self.inner.lock().incidents.len()
    }

    /// All alerts (snapshot), sorted by number.
    pub fn alerts(&self) -> Vec<SnAlert> {
        let mut v: Vec<SnAlert> = self.inner.lock().alerts.values().cloned().collect();
        v.sort_by(|a, b| a.number.cmp(&b.number));
        v
    }

    /// Events received so far.
    pub fn events_received(&self) -> u64 {
        self.inner.lock().events_received
    }

    /// Mean time to resolution over resolved incidents, in nanoseconds.
    /// The paper: ServiceNow "employing machine learning to reduce the
    /// Mean Time to Resolution (MTTR)" — here it is measured, not
    /// predicted.
    pub fn mttr_ns(&self) -> Option<i64> {
        let inner = self.inner.lock();
        let durations: Vec<i64> =
            inner.incidents.iter().filter_map(|i| i.resolved_at.map(|r| r - i.opened_at)).collect();
        if durations.is_empty() {
            None
        } else {
            Some(durations.iter().sum::<i64>() / durations.len() as i64)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use omni_model::{labels, NANOS_PER_SEC};
    use omni_xname::{MachineTopology, TopologySpec};

    fn sn_with_rule() -> ServiceNow {
        let sn = ServiceNow::new();
        sn.add_incident_rule(IncidentRule {
            name: "critical-to-ops".into(),
            max_severity: 2,
            node_contains: None,
            resource: None,
            assignment_group: "nersc-ops".into(),
        });
        sn
    }

    fn critical_event(key: &str, node: &str) -> SnEvent {
        SnEvent {
            source: "alertmanager".into(),
            node: node.into(),
            metric_type: "leak".into(),
            resource: "chassis".into(),
            severity: 1,
            message_key: key.into(),
            description: "Cabinet leak detected".into(),
        }
    }

    #[test]
    fn events_dedupe_into_one_alert() {
        let sn = sn_with_rule();
        for i in 0..5 {
            sn.process_event(critical_event("leak:x1203c1", "x1203c1b0"), i * NANOS_PER_SEC);
        }
        let alerts = sn.alerts();
        assert_eq!(alerts.len(), 1);
        assert_eq!(alerts[0].event_count, 5);
        assert_eq!(sn.events_received(), 5);
    }

    #[test]
    fn critical_alert_opens_incident_once() {
        let sn = sn_with_rule();
        sn.process_event(critical_event("leak:x1203c1", "x1203c1b0"), 0);
        sn.process_event(critical_event("leak:x1203c1", "x1203c1b0"), 1);
        let incidents = sn.incidents();
        assert_eq!(incidents.len(), 1);
        assert_eq!(incidents[0].assignment_group, "nersc-ops");
        assert_eq!(incidents[0].priority, 1);
        assert_eq!(incidents[0].state, IncidentState::New);
    }

    #[test]
    fn low_severity_does_not_open_incident() {
        let sn = sn_with_rule();
        let mut ev = critical_event("warn:x1", "x1");
        ev.severity = 3;
        sn.process_event(ev, 0);
        assert!(sn.incidents().is_empty());
        assert_eq!(sn.incident_count(), 0);
        assert_eq!(sn.alerts().len(), 1);
    }

    #[test]
    fn clear_event_closes_alert_and_reopen_works() {
        let sn = sn_with_rule();
        sn.process_event(critical_event("leak:x1", "x1"), 0);
        let mut clear = critical_event("leak:x1", "x1");
        clear.severity = 5;
        sn.process_event(clear, 10);
        assert_eq!(sn.alerts()[0].state, SnAlertState::Closed);
        sn.process_event(critical_event("leak:x1", "x1"), 20);
        assert_eq!(sn.alerts()[0].state, SnAlertState::Reopen);
    }

    #[test]
    fn mttr_accounting() {
        let sn = sn_with_rule();
        sn.process_event(critical_event("a", "x1"), 0);
        sn.process_event(critical_event("b", "x2"), 0);
        let incs = sn.incidents();
        assert_eq!(incs.len(), 2);
        assert!(sn.mttr_ns().is_none());
        sn.resolve_incident(&incs[0].number, 100 * NANOS_PER_SEC);
        sn.resolve_incident(&incs[1].number, 300 * NANOS_PER_SEC);
        assert_eq!(sn.mttr_ns(), Some(200 * NANOS_PER_SEC));
        // Double-resolve is a no-op.
        assert!(!sn.resolve_incident(&incs[0].number, 500 * NANOS_PER_SEC));
    }

    #[test]
    fn ci_binding_from_cmdb() {
        let sn = sn_with_rule();
        let topo = MachineTopology::new(TopologySpec::tiny());
        sn.with_cmdb(|cmdb| cmdb.load_topology("perlmutter", &topo));
        let node = topo.chassis_bmcs()[0].to_string();
        sn.process_event(critical_event("leak:a", &node), 0);
        let alert = &sn.alerts()[0];
        assert!(alert.ci.is_some());
        let incident = &sn.incidents()[0];
        assert_eq!(incident.ci, alert.ci);
    }

    #[test]
    fn clear_event_auto_resolves_incident() {
        let sn = sn_with_rule();
        sn.process_event(critical_event("leak:x1", "x1"), 0);
        let incidents = sn.incidents();
        assert_eq!(incidents.len(), 1);
        assert_eq!(incidents[0].state, IncidentState::New);
        let mut clear = critical_event("leak:x1", "x1");
        clear.severity = 0;
        sn.process_event(clear, 300 * NANOS_PER_SEC);
        let incidents = sn.incidents();
        assert_eq!(incidents[0].state, IncidentState::Resolved);
        assert_eq!(sn.mttr_ns(), Some(300 * NANOS_PER_SEC));
        // Reoccurrence opens a new incident instead of reviving the old.
        sn.process_event(critical_event("leak:x1", "x1"), 400 * NANOS_PER_SEC);
        assert_eq!(sn.incidents().len(), 2);
        assert_eq!(sn.incident_count(), 2);
    }

    #[test]
    fn a_clear_does_not_lower_the_worst_severity() {
        // A warning opens nothing under a critical-and-major rule; a
        // clear and a re-fire of the same warning still open nothing.
        let sn = sn_with_rule();
        let mut warning = critical_event("warn:x1", "x1");
        warning.severity = 3;
        sn.process_event(warning.clone(), 0);
        let mut clear = warning.clone();
        clear.severity = 0;
        sn.process_event(clear, 10);
        sn.process_event(warning, 20);
        let alerts = sn.alerts();
        assert_eq!((alerts[0].severity, alerts[0].state), (3, SnAlertState::Reopen));
        assert_eq!(sn.incident_count(), 0);
    }

    #[test]
    fn an_alert_a_clear_created_takes_the_next_firing_severity() {
        // Regression: the SN Alert kept the clear's severity 0 as its worst,
        // so a warning firing under it opened a priority-1 incident under
        // a critical-and-major rule.
        let sn = sn_with_rule();
        let mut clear = critical_event("warn:x1", "x1");
        clear.severity = 0;
        sn.process_event(clear, 0);
        let mut warning = critical_event("warn:x1", "x1");
        warning.severity = 4;
        sn.process_event(warning, 10);
        let alerts = sn.alerts();
        assert_eq!((alerts[0].severity, alerts[0].state), (4, SnAlertState::Reopen));
        assert_eq!(sn.incident_count(), 0);
    }

    #[test]
    fn an_incident_is_found_only_by_its_exact_number() {
        let sn = sn_with_rule();
        sn.process_event(critical_event("a", "x1"), 0);
        sn.process_event(critical_event("b", "x2"), 0);
        for wrong in ["INC1", "INC0000000", "INC0000003", "INC+000001", "inc0000001", "", "INC"] {
            assert!(!sn.resolve_incident(wrong, 1), "{wrong:?}");
        }
        assert!(sn.resolve_incident("INC0000002", 1));
        assert!(!sn.resolve_incident("INC0000002", 2), "already resolved");
        let states: Vec<_> = sn.incidents().iter().map(|i| i.state).collect();
        assert_eq!(states, [IncidentState::New, IncidentState::Resolved]);
    }

    #[test]
    fn notification_conversion() {
        use omni_alertmanager::{Alert, AlertStatus, Notification};
        let sn = sn_with_rule();
        let notification = Notification {
            receiver: "servicenow".into(),
            group_labels: labels!("alertname" => "Leak"),
            alerts: vec![Alert {
                labels: labels!(
                    "alertname" => "Leak",
                    "severity" => "critical",
                    "Context" => "x1203c1b0"
                ),
                annotations: vec![("summary".into(), "leak at x1203c1b0".into())],
                status: AlertStatus::Firing,
                starts_at: 0,
            }],
        };
        let bound = sn.receive_notification(&notification, NANOS_PER_SEC);
        assert_eq!(bound, vec![Some("INC0000001".to_string())]);
        assert_eq!(sn.incidents().len(), 1);
        assert_eq!(sn.incidents()[0].short_description, "leak at x1203c1b0");
    }

    #[test]
    fn a_firing_info_alert_does_not_clear_its_sn_alert() {
        // Regression: a firing `info` maps to code 5, which was read as a
        // clear, so a still-firing alert closed its SN Alert and resolved
        // the incident. Only a resolved alert clears.
        use omni_alertmanager::{Alert, AlertStatus, Notification};
        let sn = sn_with_rule();
        let fire = |severity: &str, status| Notification {
            receiver: "servicenow".into(),
            group_labels: labels!("alertname" => "Leak"),
            alerts: vec![Alert {
                labels: labels!("alertname" => "Leak", "severity" => severity, "xname" => "x1"),
                annotations: vec![],
                status,
                starts_at: 0,
            }],
        };
        sn.receive_notification(&fire("critical", AlertStatus::Firing), 0);
        let bound = sn.receive_notification(&fire("info", AlertStatus::Firing), 10);
        assert_eq!(bound, vec![Some("INC0000001".to_string())]);
        let alerts = sn.alerts();
        assert_eq!((alerts[0].severity, alerts[0].state), (1, SnAlertState::Open));
        assert_eq!(sn.incidents()[0].state, IncidentState::New);
        sn.receive_notification(&fire("info", AlertStatus::Resolved), 20);
        assert_eq!(sn.alerts()[0].state, SnAlertState::Closed);
        assert_eq!(sn.incidents()[0].state, IncidentState::Resolved);
    }
}
