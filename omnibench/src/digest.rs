//! Output digest of one replica: what the pipeline stored and sent.
//!
//! Three order-independent sums over (a) the Loki entries the bridges
//! delivered, (b) the notifications Alertmanager dispatched and (c) the
//! ServiceNow incidents. Replicas of one `(workload, seed)` must agree, and
//! so must the staged replica and the real `MonitoringStack`.
//!
//! Two things the real stack's private introspection produces are left out,
//! because the staged driver has no public door to them and would otherwise
//! never match:
//!
//! * trace ids — `TraceStore` hands them out in sequence and the real stack
//!   also draws ids for the query traces it builds, so the *values* differ
//!   although every event, alert and incident is the same;
//! * the monitor's alerts about itself (`SloFastBurn`, `SloSlowBurn`): they
//!   fire from gauges a private collector exports. Incident and SN-alert
//!   *numbers* are sequence numbers those alerts shift, so they are left
//!   out of the incident hash as well.

use omni_alertmanager::{AlertStatus, Notification};
use omni_loki::{Direction, LokiCluster, QueryError};
use omni_model::{fnv1a64, LabelSet, LogRecord, Timestamp};
use omni_servicenow::Incident;

const TRACE_KEY: &str = "trace_id";

/// Alert names of the SLO burn-rate meta-alerts start with this.
const SELF_ALERT_PREFIX: &str = "Slo";
/// ...and the incidents they open are described starting with this.
const SELF_INCIDENT_PREFIX: &str = "SLO ";

#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Digest {
    pub entries: u64,
    pub entry_hash: u64,
    pub notifications: u64,
    pub notification_hash: u64,
    pub incidents: u64,
    pub incident_hash: u64,
}

impl Digest {
    /// One hex word for the report.
    pub fn hex(&self) -> String {
        let all = [
            self.entries,
            self.entry_hash,
            self.notifications,
            self.notification_hash,
            self.incidents,
            self.incident_hash,
        ];
        let bytes: Vec<u8> = all.iter().flat_map(|v| v.to_le_bytes()).collect();
        format!("{:016x}", fnv1a64(&bytes))
    }

    /// Add every entry the bridges delivered to `loki` up to `now`: all of
    /// their streams carry the `cluster` label, which the self-ingested
    /// slow-query log (private to the real stack) does not.
    pub fn add_delivered_entries(
        &mut self,
        loki: &LokiCluster,
        now: Timestamp,
    ) -> Result<(), QueryError> {
        let all = r#"{cluster=~".+"}"#;
        let records = loki.query_logs_directed(all, -1, now, usize::MAX, Direction::Forward)?;
        self.add_entries(&records);
        Ok(())
    }

    pub fn add_entries(&mut self, records: &[LogRecord]) {
        let mut buf = String::new();
        for r in records {
            buf.clear();
            push_labels(&mut buf, &r.labels);
            buf.push_str(&format!("|{}|{}", r.entry.ts, r.entry.line));
            self.entries += 1;
            self.entry_hash = self.entry_hash.wrapping_add(fnv1a64(buf.as_bytes()));
        }
    }

    pub fn add_notifications(&mut self, notifications: &[Notification]) {
        let mut buf = String::new();
        for n in notifications {
            let alerts: Vec<_> =
                n.alerts.iter().filter(|a| !a.name().starts_with(SELF_ALERT_PREFIX)).collect();
            if alerts.is_empty() {
                continue;
            }
            buf.clear();
            buf.push_str(&n.receiver);
            buf.push('|');
            push_labels(&mut buf, &n.group_labels);
            for a in alerts {
                buf.push('|');
                push_labels(&mut buf, &a.labels);
                let status = match a.status {
                    AlertStatus::Firing => "firing",
                    AlertStatus::Resolved => "resolved",
                };
                buf.push_str(&format!("|{status}|{}", a.starts_at));
                for (k, v) in a.annotations.iter().filter(|(k, _)| k != TRACE_KEY) {
                    buf.push_str(&format!("|{k}={v}"));
                }
            }
            self.notifications += 1;
            self.notification_hash = self.notification_hash.wrapping_add(fnv1a64(buf.as_bytes()));
        }
    }

    pub fn add_incidents(&mut self, incidents: &[Incident]) {
        for i in incidents.iter().filter(|i| !i.short_description.starts_with(SELF_INCIDENT_PREFIX))
        {
            let text = format!(
                "{}|{:?}|{}|{}|{:?}|{}|{:?}",
                i.short_description,
                i.state,
                i.priority,
                i.assignment_group,
                i.ci,
                i.opened_at,
                i.resolved_at
            );
            self.incidents += 1;
            self.incident_hash = self.incident_hash.wrapping_add(fnv1a64(text.as_bytes()));
        }
    }
}

fn push_labels(buf: &mut String, labels: &LabelSet) {
    for (k, v) in labels.iter().filter(|(k, _)| *k != TRACE_KEY) {
        buf.push_str(k);
        buf.push('=');
        buf.push_str(v);
        buf.push(',');
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use omni_model::labels;

    fn record(host: &str, ts: i64, line: &str) -> LogRecord {
        LogRecord::new(labels!("hostname" => host, "cluster" => "c"), ts, line)
    }

    #[test]
    fn entry_digest_ignores_order_and_trace_ids_but_not_content() {
        let (a, b) = (record("n0", 1, "x"), record("n1", 2, "y"));
        let mut traced = a.clone();
        traced.labels.insert(TRACE_KEY, "00ff");
        let digest = |rs: &[LogRecord]| {
            let mut d = Digest::default();
            d.add_entries(rs);
            d
        };
        let base = digest(&[a.clone(), b.clone()]);
        assert_eq!(base, digest(&[b.clone(), a.clone()]));
        assert_eq!(base, digest(&[traced, b.clone()]));
        assert_ne!(base, digest(&[a.clone(), record("n1", 2, "z")]));
        assert_ne!(base, digest(std::slice::from_ref(&a)));
        assert_ne!(base.hex(), digest(&[a]).hex());
    }
}
