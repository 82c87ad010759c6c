//! A Prometheus Alertmanager substitute.
//!
//! "Alertmanager receives events, groups them by priority, category,
//! source, etc. and sends alert messages to Slack or ServiceNow." (§IV)
//!
//! * [`route::Route`] — the routing tree deciding which receiver handles
//!   which alert;
//! * [`Alertmanager`] — grouping with `group_wait` / `group_interval` /
//!   `repeat_interval`, inhibition rules and silences (the noise-reduction
//!   machinery of experiment C7);
//! * [`slack`] — the Slack message formatter reproducing Figures 6 and 9.

pub mod delivery;
pub mod route;
pub mod slack;

pub use delivery::{DeliveryQueue, DeliveryStats};
pub use route::{Route, RouteIssue, RouteIssueKind};
pub use slack::{format_slack_message, SlackMessage, SlackSink};

use omni_logql::Matcher;
pub use omni_model::{Alert, AlertStatus};
use omni_model::{LabelSet, Timestamp};
use std::collections::BTreeMap;

/// One inhibition rule: a firing source mutes matching targets when the
/// `equal` labels agree.
#[derive(Debug, Clone)]
pub struct InhibitRule {
    /// Matchers selecting source alerts.
    pub source_matchers: Vec<Matcher>,
    /// Matchers selecting target alerts to mute.
    pub target_matchers: Vec<Matcher>,
    /// Labels that must be equal between source and target.
    pub equal: Vec<String>,
}

/// A silence: matching alerts are muted between `starts_at` and `ends_at`.
#[derive(Debug, Clone)]
pub struct Silence {
    /// Matchers.
    pub matchers: Vec<Matcher>,
    /// Activation time.
    pub starts_at: Timestamp,
    /// Expiry time.
    pub ends_at: Timestamp,
    /// Who created it (audit trail).
    pub created_by: String,
}

/// A flushed notification: one receiver, one group, its current alerts.
#[derive(Debug, Clone, PartialEq)]
pub struct Notification {
    /// Receiver name from the routing tree.
    pub receiver: String,
    /// The labels the group is keyed by.
    pub group_labels: LabelSet,
    /// Alerts in the group (firing and newly-resolved).
    pub alerts: Vec<Alert>,
}

#[derive(Debug)]
struct Group {
    group_wait_ns: i64,
    group_interval_ns: i64,
    repeat_interval_ns: i64,
    /// Alert labels → alert, in flush order: two alerts whose
    /// fingerprints collide stay two alerts.
    alerts: BTreeMap<LabelSet, Alert>,
    /// Alerts changed since last flush.
    dirty: bool,
    created_at: Timestamp,
    last_flush: Option<Timestamp>,
}

impl Group {
    /// Whether the group flushes at `now`. The age arithmetic saturates:
    /// groups created at sentinel timestamps must not overflow
    /// `now - created_at`.
    fn due(&self, now: Timestamp) -> bool {
        match self.last_flush {
            None => self.dirty && now.saturating_sub(self.created_at) >= self.group_wait_ns,
            Some(last) => {
                (self.dirty && now.saturating_sub(last) >= self.group_interval_ns)
                    || (self.alerts.values().any(|a| a.status == AlertStatus::Firing)
                        && now.saturating_sub(last) >= self.repeat_interval_ns)
            }
        }
    }
}

/// The Alertmanager core.
pub struct Alertmanager {
    route: Route,
    inhibit_rules: Vec<InhibitRule>,
    silences: Vec<Silence>,
    /// `(receiver, group labels)` → group, in flush order.
    groups: BTreeMap<(String, LabelSet), Group>,
    received: u64,
    notified: u64,
    suppressed: u64,
}

impl Alertmanager {
    /// Build with a routing tree.
    pub fn new(route: Route) -> Self {
        Self {
            route,
            inhibit_rules: Vec::new(),
            silences: Vec::new(),
            groups: BTreeMap::new(),
            received: 0,
            notified: 0,
            suppressed: 0,
        }
    }

    /// Add an inhibition rule.
    pub fn add_inhibit_rule(&mut self, rule: InhibitRule) {
        self.inhibit_rules.push(rule);
    }

    /// Add a silence.
    pub fn add_silence(&mut self, silence: Silence) {
        self.silences.push(silence);
    }

    /// Receive one alert (firing or resolved) at `now`. Routing decides
    /// the receiver; the group updates and is flushed by [`Self::tick`].
    /// An alert equal to the one its group holds is not copied again.
    pub fn receive(&mut self, alert: Alert, now: Timestamp) {
        self.received += 1;
        for route in self.route.resolve(&alert.labels) {
            let key = (route.receiver.clone(), alert.labels.project(&route.group_by));
            let group = self.groups.entry(key).or_insert_with(|| Group {
                group_wait_ns: route.group_wait_ns,
                group_interval_ns: route.group_interval_ns,
                repeat_interval_ns: route.repeat_interval_ns,
                alerts: BTreeMap::new(),
                dirty: false,
                created_at: now,
                last_flush: None,
            });
            let changed = match group.alerts.get_mut(&alert.labels) {
                Some(held) => {
                    let changed = held.status != alert.status;
                    if *held != alert {
                        *held = alert.clone();
                    }
                    changed
                }
                None => {
                    group.alerts.insert(alert.labels.clone(), alert.clone());
                    alert.status == AlertStatus::Firing
                }
            };
            group.dirty |= changed;
        }
    }

    /// Whether an alert is currently muted by a silence or inhibition.
    fn is_muted(&self, alert: &Alert, now: Timestamp) -> bool {
        for s in &self.silences {
            if now >= s.starts_at
                && now < s.ends_at
                && s.matchers.iter().all(|m| m.matches(&alert.labels))
            {
                return true;
            }
        }
        for rule in &self.inhibit_rules {
            if !rule.target_matchers.iter().all(|m| m.matches(&alert.labels)) {
                continue;
            }
            // Any firing source alert (in any group) with equal labels?
            let source_fires = self.groups.values().flat_map(|g| g.alerts.values()).any(|a| {
                a.status == AlertStatus::Firing
                    && rule.source_matchers.iter().all(|m| m.matches(&a.labels))
                    && rule.equal.iter().all(|l| a.labels.get(l) == alert.labels.get(l))
                    && a.labels != alert.labels // don't self-inhibit
            });
            if source_fires {
                return true;
            }
        }
        false
    }

    /// Flush groups that are due at `now`; returns the notifications to
    /// dispatch, in group order.
    pub fn tick(&mut self, now: Timestamp) -> Vec<Notification> {
        // Every due group's unmuted alerts first: a mute reads only firing
        // sources and a flush drops only resolved alerts, so no flush
        // changes another group's mute decision.
        let unmuted: Vec<Option<Vec<Alert>>> = self
            .groups
            .values()
            .map(|g| {
                let unmuted = g.alerts.values().filter(|a| !self.is_muted(a, now));
                g.due(now).then(|| unmuted.cloned().collect())
            })
            .collect();
        let mut out = Vec::new();
        for (((receiver, group_labels), g), alerts) in self.groups.iter_mut().zip(unmuted) {
            let Some(alerts) = alerts else { continue };
            self.suppressed += (g.alerts.len() - alerts.len()) as u64;
            g.dirty = false;
            g.last_flush = Some(now);
            // Resolved alerts leave the group after being notified once.
            g.alerts.retain(|_, a| a.status != AlertStatus::Resolved);
            if alerts.is_empty() {
                continue;
            }
            self.notified += 1;
            out.push(Notification {
                receiver: receiver.clone(),
                group_labels: group_labels.clone(),
                alerts,
            });
        }
        out
    }

    /// `(alerts received, notifications sent, alerts suppressed)` — the
    /// noise-reduction numbers of experiment C7.
    pub fn stats(&self) -> (u64, u64, u64) {
        (self.received, self.notified, self.suppressed)
    }

    /// Number of active groups.
    pub fn group_count(&self) -> usize {
        self.groups.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use omni_model::{labels, NANOS_PER_SEC};

    fn sec(n: i64) -> i64 {
        n * NANOS_PER_SEC
    }

    fn fast_route() -> Route {
        let mut r = Route::default_route("slack");
        r.group_by = vec!["alertname".into()];
        r.group_wait_ns = sec(5);
        r.group_interval_ns = sec(30);
        r.repeat_interval_ns = sec(3600);
        r
    }

    fn firing(name: &str, extra: &[(&str, &str)], at: Timestamp) -> Alert {
        let mut labels = labels!("alertname" => name);
        for (k, v) in extra {
            labels.insert(*k, *v);
        }
        Alert { labels, annotations: vec![], status: AlertStatus::Firing, starts_at: at }
    }

    #[test]
    fn group_wait_batches_storm_into_one_notification() {
        let mut am = Alertmanager::new(fast_route());
        // A storm: 10 leak alerts from different locations in 2 seconds.
        for i in 0..10 {
            am.receive(firing("CabinetLeak", &[("context", &format!("x{i}"))], sec(1)), sec(1) + i);
        }
        // Before group_wait: nothing.
        assert!(am.tick(sec(2)).is_empty());
        // After group_wait: exactly one notification with all 10 alerts.
        let notifs = am.tick(sec(7));
        assert_eq!(notifs.len(), 1);
        assert_eq!(notifs[0].alerts.len(), 10);
        assert_eq!(notifs[0].receiver, "slack");
        let (received, notified, _) = am.stats();
        assert_eq!(received, 10);
        assert_eq!(notified, 1);
    }

    #[test]
    fn alerts_whose_fingerprints_collide_stay_two_alerts() {
        // Regression: a group keyed its alerts by fingerprint alone, so the
        // second of these sets (same FNV fingerprint) replaced the first
        // and one page was lost.
        let (a, b) = (labels!("a" => "27d9f96af16d5676"), labels!("a" => "1ba910bbd8e288a5"));
        assert_eq!(a.fingerprint(), b.fingerprint());
        let mut am = Alertmanager::new(fast_route());
        for labels in [&a, &b] {
            let status = AlertStatus::Firing;
            am.receive(
                Alert { labels: labels.clone(), annotations: vec![], status, starts_at: 0 },
                0,
            );
        }
        let notifs = am.tick(sec(6));
        assert_eq!(notifs.len(), 1, "one group, one notification");
        let got: Vec<&LabelSet> = notifs[0].alerts.iter().map(|alert| &alert.labels).collect();
        assert_eq!(got, [&b, &a], "both alerts, in label order");
    }

    #[test]
    fn duplicate_alert_does_not_renotify_before_repeat_interval() {
        let mut am = Alertmanager::new(fast_route());
        am.receive(firing("X", &[], sec(0)), sec(0));
        assert_eq!(am.tick(sec(6)).len(), 1);
        // Same alert keeps firing; no state change -> no notification
        // until repeat_interval.
        am.receive(firing("X", &[], sec(0)), sec(10));
        assert!(am.tick(sec(40)).is_empty());
        // repeat_interval elapsed: re-notify.
        assert_eq!(am.tick(sec(3700)).len(), 1);
    }

    #[test]
    fn new_alert_in_group_flushes_after_group_interval() {
        let mut am = Alertmanager::new(fast_route());
        am.receive(firing("X", &[("loc", "a")], sec(0)), sec(0));
        assert_eq!(am.tick(sec(6)).len(), 1);
        am.receive(firing("X", &[("loc", "b")], sec(10)), sec(10));
        // group_interval (30s) not yet elapsed since last flush.
        assert!(am.tick(sec(20)).is_empty());
        let notifs = am.tick(sec(37));
        assert_eq!(notifs.len(), 1);
        assert_eq!(notifs[0].alerts.len(), 2);
    }

    #[test]
    fn resolved_alerts_notified_once_then_dropped() {
        let mut am = Alertmanager::new(fast_route());
        let mut a = firing("X", &[], sec(0));
        am.receive(a.clone(), sec(0));
        am.tick(sec(6));
        a.status = AlertStatus::Resolved;
        am.receive(a, sec(50));
        let notifs = am.tick(sec(80));
        assert_eq!(notifs.len(), 1);
        assert_eq!(notifs[0].alerts[0].status, AlertStatus::Resolved);
        // Group is now empty; nothing further.
        assert!(am.tick(sec(4000)).is_empty());
    }

    #[test]
    fn silence_mutes_matching_alerts() {
        let mut am = Alertmanager::new(fast_route());
        am.add_silence(Silence {
            matchers: vec![Matcher::eq("alertname", "Noisy")],
            starts_at: sec(0),
            ends_at: sec(100),
            created_by: "oncall".into(),
        });
        am.receive(firing("Noisy", &[], sec(1)), sec(1));
        am.receive(firing("Important", &[], sec(1)), sec(1));
        let notifs = am.tick(sec(7));
        // Only the Important group notifies; the Noisy group's alerts are
        // all muted.
        assert_eq!(notifs.len(), 1);
        assert_eq!(notifs[0].alerts[0].name(), "Important");
        assert!(am.stats().2 >= 1);
    }

    #[test]
    fn silence_expires() {
        let mut am = Alertmanager::new(fast_route());
        am.add_silence(Silence {
            matchers: vec![Matcher::eq("alertname", "X")],
            starts_at: sec(0),
            ends_at: sec(10),
            created_by: "oncall".into(),
        });
        am.receive(firing("X", &[], sec(1)), sec(1));
        assert!(am.tick(sec(7)).is_empty());
        // After expiry the still-firing alert notifies on group_interval.
        am.receive(firing("X", &[("extra", "new")], sec(11)), sec(11));
        let notifs = am.tick(sec(45));
        assert_eq!(notifs.len(), 1);
    }

    #[test]
    fn inhibition_mutes_downstream_alerts() {
        let mut am = Alertmanager::new(fast_route());
        // Switch-offline inhibits node-unreachable alerts in the same
        // chassis (the classic noise-reduction rule).
        am.add_inhibit_rule(InhibitRule {
            source_matchers: vec![Matcher::eq("alertname", "SwitchOffline")],
            target_matchers: vec![Matcher::eq("alertname", "NodeUnreachable")],
            equal: vec!["chassis".into()],
        });
        am.receive(firing("SwitchOffline", &[("chassis", "x1002c1")], sec(0)), sec(0));
        for n in 0..8 {
            am.receive(
                firing(
                    "NodeUnreachable",
                    &[("chassis", "x1002c1"), ("node", &format!("n{n}"))],
                    sec(1),
                ),
                sec(1),
            );
        }
        // Different chassis: not inhibited.
        am.receive(firing("NodeUnreachable", &[("chassis", "x1111c0")], sec(1)), sec(1));
        let notifs = am.tick(sec(7));
        let names: Vec<(&str, usize)> =
            notifs.iter().map(|n| (n.alerts[0].name(), n.alerts.len())).collect();
        // SwitchOffline notification + exactly one NodeUnreachable (other
        // chassis); the 8 same-chassis ones are inhibited.
        assert_eq!(names.len(), 2);
        let unreachable = notifs.iter().find(|n| n.alerts[0].name() == "NodeUnreachable").unwrap();
        assert_eq!(unreachable.alerts.len(), 1);
        assert_eq!(unreachable.alerts[0].labels.get("chassis"), Some("x1111c0"));
    }

    #[test]
    fn routing_by_severity() {
        let mut root = Route::default_route("slack");
        root.group_by = vec!["alertname".into()];
        root.group_wait_ns = 0;
        let mut crit = Route::matching("servicenow", vec![Matcher::eq("severity", "critical")]);
        crit.group_by = vec!["alertname".into()];
        crit.group_wait_ns = 0;
        root.routes.push(crit);
        let mut am = Alertmanager::new(root);
        am.receive(firing("Hot", &[("severity", "critical")], 0), 0);
        am.receive(firing("Warm", &[("severity", "warning")], 0), 0);
        let notifs = am.tick(1);
        let receivers: Vec<&str> = notifs.iter().map(|n| n.receiver.as_str()).collect();
        assert!(receivers.contains(&"servicenow"));
        assert!(receivers.contains(&"slack"));
        let sn = notifs.iter().find(|n| n.receiver == "servicenow").unwrap();
        assert_eq!(sn.alerts[0].name(), "Hot");
    }

    #[test]
    fn flush_order_is_deterministic_across_instances() {
        // Two independent Alertmanagers see the same alerts; their group
        // HashMaps have different (randomized) iteration orders, but the
        // flush path sorts, so the notification sequence must match.
        let run = || {
            let mut am = Alertmanager::new(fast_route());
            for name in ["Zeta", "Alpha", "Mid", "Omega", "Beta"] {
                am.receive(firing(name, &[], sec(1)), sec(1));
            }
            am.tick(sec(10)).into_iter().map(|n| n.group_labels.to_string()).collect::<Vec<_>>()
        };
        let first = run();
        assert_eq!(first.len(), 5);
        assert_eq!(first, run(), "notification order must not depend on hash order");
    }
}
