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
    /// Convert an Alertmanager alert into an SN Event (the paper's
    /// "alerts are transformed into SN Events"): the crate's borrowed
    /// `AlertEvent` view of the alert, made owned.
    pub fn from_alertmanager(alert: &Alert) -> SnEvent {
        let event = AlertEvent::of(alert);
        let mut message_key = String::new();
        event.write_key(&mut message_key);
        let EventFields { severity, node, resource, description } = event.fields;
        SnEvent {
            source: "alertmanager".into(),
            node: node.to_string(),
            metric_type: event.name.to_string(),
            resource: resource.to_string(),
            severity,
            message_key,
            description: description.to_string(),
        }
    }

    /// The fields an event feeds into its SN Alert, borrowed.
    pub(crate) fn as_fields(&self) -> EventFields<'_> {
        EventFields {
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
    /// ServiceNow severity code (0 or 5 = clear).
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
    /// Read `alert`: a resolved alert is a clear (severity 0); a firing
    /// one maps its `severity` label (moderate, 3, when missing or
    /// unknown); the node is the first of `Context`, `xname`, `instance`;
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
        let ev = SnEvent::from_alertmanager(&alert);
        assert_eq!(ev.severity, 1);
        assert_eq!(ev.node, "x1002c1r7b0");
        assert_eq!(ev.message_key, "PerlmutterSwitchOffline:x1002c1r7b0");
        assert_eq!(ev.description, "Switch x1002c1r7b0 is UNKNOWN");
    }

    #[test]
    fn resolved_becomes_clear_event() {
        let alert = Alert {
            labels: labels!("alertname" => "X", "severity" => "critical"),
            annotations: vec![],
            status: AlertStatus::Resolved,
            starts_at: 0,
        };
        assert_eq!(SnEvent::from_alertmanager(&alert).severity, 0);
    }

    #[test]
    fn missing_severity_defaults_to_moderate() {
        let alert = Alert {
            labels: labels!("alertname" => "X"),
            annotations: vec![],
            status: AlertStatus::Firing,
            starts_at: 0,
        };
        assert_eq!(SnEvent::from_alertmanager(&alert).severity, 3);
    }
}
