//! SN Events and their deduplication into SN Alerts.

use omni_alertmanager::{Alert, AlertStatus};
use omni_model::{Severity, Timestamp};

/// One inbound event, the shape the ServiceNow event-management webhook
/// receives from monitoring tools.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SnEvent {
    /// Originating system (`alertmanager`, `prometheus`, ...).
    pub source: String,
    /// The affected node / CI name (an xname for hardware).
    pub node: String,
    /// Metric/event type (`leak`, `switch_state`, ...).
    pub metric_type: String,
    /// Affected resource within the node.
    pub resource: String,
    /// ServiceNow severity code: 1 critical ... 5 info/OK (0 = clear).
    pub severity: u8,
    /// Deduplication key: events sharing it collapse into one SN Alert.
    pub message_key: String,
    /// Human-readable description.
    pub description: String,
}

impl SnEvent {
    /// The fields an event feeds into its SN Alert, borrowed. A webhook
    /// event carries no status, so its severity code decides the clear.
    pub(crate) fn as_fields(&self) -> EventFields<'_> {
        EventFields {
            clear: self.severity == 0 || self.severity == 5,
            severity: self.severity,
            node: &self.node,
            resource: &self.resource,
            description: &self.description,
        }
    }
}

/// The fields an event feeds into its SN Alert: what an SN Alert or an
/// incident copies when it is created, and only then.
#[derive(Debug, Clone, Copy)]
pub(crate) struct EventFields<'a> {
    /// Whether the event clears its SN Alert (and resolves its incident).
    pub clear: bool,
    /// ServiceNow severity code (1 critical ... 5 info/OK); folded into
    /// the SN Alert's worst severity only when the event is no clear.
    pub severity: u8,
    /// The affected node / CI name.
    pub node: &'a str,
    /// Affected resource within the node.
    pub resource: &'a str,
    /// Human-readable description.
    pub description: &'a str,
}

/// An Alertmanager alert read as an SN Event without copying it: the one
/// mapping from an alert's labels and annotations to an event's fields.
#[derive(Debug, Clone, Copy)]
pub(crate) struct AlertEvent<'a> {
    /// The alert's `alertname` (the event's metric type).
    pub name: &'a str,
    /// Everything else the event carries.
    pub fields: EventFields<'a>,
}

impl<'a> AlertEvent<'a> {
    /// Read `alert`: a resolved alert, and only a resolved one, is a
    /// clear (severity 0); a firing one maps its `severity` label
    /// (moderate, 3, when missing or unknown; `info`/`ok` are 5, still
    /// firing); the node is the first of `Context`, `xname`, `instance`;
    /// the resource is `category` (default `infrastructure`); the
    /// description is the `summary` annotation, else the alert name.
    pub fn of(alert: &'a Alert) -> Self {
        let severity = match alert.status {
            AlertStatus::Resolved => 0,
            AlertStatus::Firing => alert
                .labels
                .get("severity")
                .and_then(|s| s.parse::<Severity>().ok())
                .map(|s| s.servicenow_code())
                .unwrap_or(3),
        };
        let node = alert
            .labels
            .get("Context")
            .or_else(|| alert.labels.get("xname"))
            .or_else(|| alert.labels.get("instance"))
            .unwrap_or("");
        let description = alert
            .annotations
            .iter()
            .find(|(k, _)| k == "summary")
            .map_or_else(|| alert.name(), |(_, v)| v.as_str());
        AlertEvent {
            name: alert.name(),
            fields: EventFields {
                clear: alert.status == AlertStatus::Resolved,
                severity,
                node,
                resource: alert.labels.get("category").unwrap_or("infrastructure"),
                description,
            },
        }
    }

    /// Write the deduplication key, `alertname:node`, into `out`
    /// (cleared first).
    pub fn write_key(&self, out: &mut String) {
        out.clear();
        out.push_str(self.name);
        out.push(':');
        out.push_str(self.fields.node);
    }
}

/// SN Alert lifecycle state.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SnAlertState {
    /// Active.
    Open,
    /// Closed by a clear event.
    Closed,
    /// Re-activated after closing.
    Reopen,
}

/// A deduplicated SN Alert.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SnAlert {
    /// `AlertNNNNNNN` number.
    pub number: String,
    /// Deduplication key.
    pub message_key: String,
    /// Worst firing severity seen (1 = critical); 5 (OK) while only
    /// clears have been seen.
    pub severity: u8,
    /// Lifecycle state.
    pub state: SnAlertState,
    /// Description from the first event.
    pub description: String,
    /// Affected node name.
    pub node: String,
    /// Resource/category (`facility`, `fabric`, `storage`, ...).
    pub resource: String,
    /// Bound CI sys_id, when the CMDB knows the node.
    pub ci: Option<String>,
    /// Number of deduplicated events.
    pub event_count: u64,
    /// First event time.
    pub first_event_at: Timestamp,
    /// Latest event time.
    pub last_event_at: Timestamp,
    /// Incident opened for this alert, if any.
    pub incident: Option<String>,
}

#[cfg(test)]
mod tests {
    use super::*;
    use omni_model::labels;

    #[test]
    fn conversion_maps_severity_and_node() {
        let alert = Alert {
            labels: labels!(
                "alertname" => "PerlmutterSwitchOffline",
                "severity" => "critical",
                "xname" => "x1002c1r7b0"
            ),
            annotations: vec![("summary".into(), "Switch x1002c1r7b0 is UNKNOWN".into())],
            status: AlertStatus::Firing,
            starts_at: 0,
        };
        let ev = AlertEvent::of(&alert);
        let mut key = String::new();
        ev.write_key(&mut key);
        assert_eq!((ev.fields.severity, ev.fields.clear), (1, false));
        assert_eq!(ev.fields.node, "x1002c1r7b0");
        assert_eq!(key, "PerlmutterSwitchOffline:x1002c1r7b0");
        assert_eq!(ev.fields.description, "Switch x1002c1r7b0 is UNKNOWN");
    }

    #[test]
    fn resolved_becomes_clear_event() {
        let alert = Alert {
            labels: labels!("alertname" => "X", "severity" => "critical"),
            annotations: vec![],
            status: AlertStatus::Resolved,
            starts_at: 0,
        };
        let ev = AlertEvent::of(&alert);
        assert_eq!((ev.fields.severity, ev.fields.clear), (0, true));
    }

    #[test]
    fn missing_severity_defaults_to_moderate() {
        let alert = Alert {
            labels: labels!("alertname" => "X"),
            annotations: vec![],
            status: AlertStatus::Firing,
            starts_at: 0,
        };
        let ev = AlertEvent::of(&alert);
        assert_eq!((ev.fields.severity, ev.fields.clear), (3, false));
    }
}
