//! `Alertmanager` against a reference: the instance it replaced, copied
//! here — groups in a `HashMap` whose keys `tick` clones and sorts, a
//! group's alerts in a `HashMap` sorted per flush, the flushed
//! notifications sorted again, and a `RouteMatch` copy of the route's
//! receiver and `group_by` per matched route per received alert.
//!
//! Both are fed the same random schedule on one of two routing trees
//! (the shipped tree, and a tree of `continue` routes, nested routes and
//! an empty `group_by`), with silences and inhibit rules drawn at random:
//! - `receive` of an alert, firing or resolved, from a small label pool
//!   (so alerts repeat, re-fire, resolve and share groups), with or
//!   without a `trace_id` annotation, starting at the clock, at 0 or at a
//!   sentinel;
//! - `tick`;
//! - clock steps of 0 to 90 s, and jumps to `i64::MIN / 2` and
//!   `i64::MAX / 2` (the age arithmetic must saturate, not wrap);
//! - a silence added mid-schedule.
//!
//! Every `tick` must return the same notifications from both, in the
//! same order, and after every op `stats()` and `group_count()` must
//! agree.
//!
//! Cases: `PROPTEST_CASES` (default 64), each on its own seeded generator;
//! a failure names its seed.

use omni_alertmanager::{Alert, AlertStatus, Alertmanager, InhibitRule, Route, Silence};
use omni_logql::Matcher;
use omni_model::{LabelSet, Timestamp, NANOS_PER_SEC};

/// The Alertmanager the one under test replaced.
mod reference {
    use omni_alertmanager::{Alert, AlertStatus, InhibitRule, Notification, Route, Silence};
    use omni_model::{LabelSet, Timestamp};
    use std::collections::HashMap;

    /// The routing decision for one alert, copied out of the route.
    struct RouteMatch {
        receiver: String,
        group_by: Vec<String>,
        group_wait_ns: i64,
        group_interval_ns: i64,
        repeat_interval_ns: i64,
    }

    fn resolve(route: &Route, labels: &LabelSet) -> Vec<RouteMatch> {
        let mut out = Vec::new();
        if !route.matchers.iter().all(|m| m.matches(labels)) {
            return out;
        }
        let mut child_matched = false;
        for child in &route.routes {
            let ms = resolve(child, labels);
            if !ms.is_empty() {
                child_matched = true;
                let stop = !child.continue_matching;
                out.extend(ms);
                if stop {
                    break;
                }
            }
        }
        if !child_matched {
            out.push(RouteMatch {
                receiver: route.receiver.clone(),
                group_by: route.group_by.clone(),
                group_wait_ns: route.group_wait_ns,
                group_interval_ns: route.group_interval_ns,
                repeat_interval_ns: route.repeat_interval_ns,
            });
        }
        out
    }

    struct Group {
        receiver: String,
        group_labels: LabelSet,
        group_wait_ns: i64,
        group_interval_ns: i64,
        repeat_interval_ns: i64,
        alerts: HashMap<LabelSet, Alert>,
        dirty: bool,
        created_at: Timestamp,
        last_flush: Option<Timestamp>,
    }

    pub struct Alertmanager {
        route: Route,
        inhibit_rules: Vec<InhibitRule>,
        silences: Vec<Silence>,
        groups: HashMap<(String, LabelSet), Group>,
        received: u64,
        notified: u64,
        suppressed: u64,
    }

    impl Alertmanager {
        pub fn new(route: Route) -> Self {
            Self {
                route,
                inhibit_rules: Vec::new(),
                silences: Vec::new(),
                groups: HashMap::new(),
                received: 0,
                notified: 0,
                suppressed: 0,
            }
        }

        pub fn add_inhibit_rule(&mut self, rule: InhibitRule) {
            self.inhibit_rules.push(rule);
        }

        pub fn add_silence(&mut self, silence: Silence) {
            self.silences.push(silence);
        }

        pub fn receive(&mut self, alert: Alert, now: Timestamp) {
            self.received += 1;
            for matched in resolve(&self.route, &alert.labels) {
                let group_labels = alert.labels.project(&matched.group_by);
                let key = (matched.receiver.clone(), group_labels.clone());
                let group = self.groups.entry(key).or_insert_with(|| Group {
                    receiver: matched.receiver.clone(),
                    group_labels,
                    group_wait_ns: matched.group_wait_ns,
                    group_interval_ns: matched.group_interval_ns,
                    repeat_interval_ns: matched.repeat_interval_ns,
                    alerts: HashMap::new(),
                    dirty: false,
                    created_at: now,
                    last_flush: None,
                });
                let changed = match group.alerts.insert(alert.labels.clone(), alert.clone()) {
                    Some(prev) => prev.status != alert.status,
                    None => alert.status == AlertStatus::Firing,
                };
                if changed {
                    group.dirty = true;
                }
            }
        }

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
                let source_fires = self.groups.values().flat_map(|g| g.alerts.values()).any(|a| {
                    a.status == AlertStatus::Firing
                        && rule.source_matchers.iter().all(|m| m.matches(&a.labels))
                        && rule.equal.iter().all(|l| a.labels.get(l) == alert.labels.get(l))
                        && a.labels != alert.labels
                });
                if source_fires {
                    return true;
                }
            }
            false
        }

        pub fn tick(&mut self, now: Timestamp) -> Vec<Notification> {
            let mut keys: Vec<(String, LabelSet)> = self.groups.keys().cloned().collect();
            keys.sort();
            let mut out = Vec::new();
            for key in keys {
                let g = &self.groups[&key];
                let due = match g.last_flush {
                    None => g.dirty && now.saturating_sub(g.created_at) >= g.group_wait_ns,
                    Some(last) => {
                        (g.dirty && now.saturating_sub(last) >= g.group_interval_ns)
                            || (!g.alerts.is_empty()
                                && g.alerts.values().any(|a| a.status == AlertStatus::Firing)
                                && now.saturating_sub(last) >= g.repeat_interval_ns)
                    }
                };
                if !due {
                    continue;
                }
                let alerts: Vec<Alert> = {
                    let g = &self.groups[&key];
                    let mut alerts: Vec<Alert> =
                        g.alerts.values().filter(|a| !self.is_muted(a, now)).cloned().collect();
                    alerts.sort_by(|a, b| a.labels.cmp(&b.labels));
                    alerts
                };
                let muted_count = self.groups[&key].alerts.len() - alerts.len();
                self.suppressed += muted_count as u64;
                let g = self.groups.get_mut(&key).unwrap();
                g.dirty = false;
                g.last_flush = Some(now);
                g.alerts.retain(|_, a| a.status != AlertStatus::Resolved);
                if alerts.is_empty() {
                    continue;
                }
                self.notified += 1;
                out.push(Notification {
                    receiver: g.receiver.clone(),
                    group_labels: g.group_labels.clone(),
                    alerts,
                });
            }
            out.sort_by(|a, b| {
                a.receiver.cmp(&b.receiver).then_with(|| a.group_labels.cmp(&b.group_labels))
            });
            out
        }

        pub fn stats(&self) -> (u64, u64, u64) {
            (self.received, self.notified, self.suppressed)
        }

        pub fn group_count(&self) -> usize {
            self.groups.len()
        }
    }
}

/// SplitMix64: a seeded generator for the schedules.
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

const SEC: i64 = NANOS_PER_SEC;
const NAMES: [&str; 3] = ["SwitchOffline", "NodeUnreachable", "CabinetLeak"];
const SEVERITIES: [Option<&str>; 3] = [Some("critical"), Some("warning"), None];
const CHASSIS: [&str; 2] = ["x1002c1", "x1203c0"];
const NODES: [Option<&str>; 3] = [Some("n0"), Some("n1"), None];
const SENTINELS: [Timestamp; 2] = [i64::MIN / 2, i64::MAX / 2];

/// A tree of `continue` routes: critical alerts fan out to ServiceNow
/// and on, a chassis route nests a pager route and groups by nothing,
/// and everything else falls back to the root.
fn continue_tree(rng: &mut Rng) -> Route {
    let mut root = timed(rng, Route::default_route("slack"));
    let mut sn =
        timed(rng, Route::matching("servicenow", vec![Matcher::eq("severity", "critical")]));
    sn.group_by = vec!["alertname".into(), "chassis".into()];
    sn.continue_matching = true;
    let mut chassis =
        timed(rng, Route::matching("facility", vec![Matcher::eq("chassis", CHASSIS[0])]));
    chassis.group_by = Vec::new();
    chassis.continue_matching = rng.below(2) == 0;
    let mut pager = timed(rng, Route::matching("pager", vec![Matcher::eq("alertname", NAMES[2])]));
    pager.group_by = vec!["node".into()];
    chassis.routes.push(pager);
    let mut warn = timed(rng, Route::matching("slack", vec![Matcher::eq("severity", "warning")]));
    warn.group_by = vec!["alertname".into(), "node".into()];
    root.routes.extend([sn, chassis, warn]);
    root
}

/// `route` with random timings, short enough that groups flush, re-flush
/// and repeat within a schedule.
fn timed(rng: &mut Rng, mut route: Route) -> Route {
    route.group_wait_ns = rng.below(3) as i64 * 10 * SEC;
    route.group_interval_ns = (1 + rng.below(3)) as i64 * 20 * SEC;
    route.repeat_interval_ns = (1 + rng.below(4)) as i64 * 60 * SEC;
    route
}

fn random_alert(rng: &mut Rng, now: Timestamp) -> Alert {
    let mut pairs = vec![("alertname", *rng.pick(&NAMES)), ("chassis", *rng.pick(&CHASSIS))];
    pairs.extend(rng.pick(&SEVERITIES).map(|s| ("severity", s)));
    pairs.extend(rng.pick(&NODES).map(|n| ("node", n)));
    let mut annotations = vec![("summary".to_string(), "something broke".to_string())];
    if rng.below(2) == 0 {
        annotations.push(("trace_id".into(), format!("{:016x}", rng.below(2))));
    }
    let status = if rng.below(3) == 0 { AlertStatus::Resolved } else { AlertStatus::Firing };
    let starts_at = match rng.below(4) {
        0 => 0,
        1 => *rng.pick(&SENTINELS),
        _ => now,
    };
    Alert { labels: LabelSet::from_pairs(pairs), annotations, status, starts_at }
}

fn random_silence(rng: &mut Rng, now: Timestamp) -> Silence {
    let matchers = match rng.below(3) {
        0 => vec![Matcher::eq("alertname", NAMES[rng.below(NAMES.len())])],
        1 => vec![Matcher::eq("chassis", CHASSIS[rng.below(CHASSIS.len())])],
        _ => vec![Matcher::eq("severity", "warning"), Matcher::eq("node", "n1")],
    };
    let starts_at = now.saturating_add(rng.below(3) as i64 * 30 * SEC);
    let ends_at = starts_at.saturating_add(rng.below(4) as i64 * 60 * SEC);
    Silence { matchers, starts_at, ends_at, created_by: "oncall".into() }
}

fn inhibit_rules(rng: &mut Rng) -> Vec<InhibitRule> {
    let rules = [
        InhibitRule {
            source_matchers: vec![Matcher::eq("alertname", NAMES[0])],
            target_matchers: vec![Matcher::eq("alertname", NAMES[1])],
            equal: vec!["chassis".into()],
        },
        InhibitRule {
            source_matchers: vec![Matcher::eq("severity", "critical")],
            target_matchers: vec![Matcher::eq("severity", "warning")],
            equal: vec!["chassis".into(), "node".into()],
        },
        InhibitRule {
            source_matchers: vec![Matcher::eq("chassis", CHASSIS[1])],
            target_matchers: vec![Matcher::eq("chassis", CHASSIS[1])],
            equal: Vec::new(),
        },
    ];
    rules.into_iter().filter(|_| rng.below(2) == 0).collect()
}

fn run_case(seed: u64) {
    let mut rng = Rng(seed);
    let tree = if rng.below(2) == 0 { Route::shipped_tree() } else { continue_tree(&mut rng) };
    let mut am = Alertmanager::new(tree.clone());
    let mut reference = reference::Alertmanager::new(tree);
    for rule in inhibit_rules(&mut rng) {
        am.add_inhibit_rule(rule.clone());
        reference.add_inhibit_rule(rule);
    }
    let mut now: Timestamp = if rng.below(4) == 0 { SENTINELS[0] } else { 0 };
    for _ in 0..rng.below(3) {
        let silence = random_silence(&mut rng, now);
        am.add_silence(silence.clone());
        reference.add_silence(silence);
    }
    let ops = 1 + rng.below(120);
    for op in 0..ops {
        let what = match rng.below(20) {
            0..=9 => {
                let alert = random_alert(&mut rng, now);
                let what = format!("receive {alert:?}");
                am.receive(alert.clone(), now);
                reference.receive(alert, now);
                what
            }
            10..=14 => {
                let got = am.tick(now);
                assert_eq!(got, reference.tick(now), "seed {seed:#x} op {op}: tick at {now}");
                format!("tick ({} notifications)", got.len())
            }
            15..=17 => {
                now = now.saturating_add(rng.below(10) as i64 * 10 * SEC);
                format!("clock to {now}")
            }
            18 => {
                now = *rng.pick(&SENTINELS);
                format!("clock to {now}")
            }
            _ => {
                let silence = random_silence(&mut rng, now);
                let what = format!("silence {:?}", silence.matchers);
                am.add_silence(silence.clone());
                reference.add_silence(silence);
                what
            }
        };
        assert_eq!(am.stats(), reference.stats(), "seed {seed:#x} op {op}: {what}");
        assert_eq!(am.group_count(), reference.group_count(), "seed {seed:#x} op {op}: {what}");
    }
}

#[test]
fn alertmanager_matches_the_hash_map_reference() {
    let cases: u64 =
        std::env::var("PROPTEST_CASES").ok().and_then(|v| v.parse().ok()).unwrap_or(64);
    for case in 0..cases {
        run_case(0xa1e7_0000 + case);
    }
}
