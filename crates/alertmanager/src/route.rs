//! The routing tree: which receiver handles which alert, with what
//! grouping and timing.

use omni_logql::Matcher;
use omni_model::{LabelSet, NANOS_PER_SEC};

/// One node of the routing tree.
#[derive(Debug, Clone)]
pub struct Route {
    /// Receiver name for alerts that stop at this node.
    pub receiver: String,
    /// Matchers an alert must satisfy to enter this node (root matches
    /// everything).
    pub matchers: Vec<Matcher>,
    /// Labels to group by.
    pub group_by: Vec<String>,
    /// Wait before the first notification of a new group.
    pub group_wait_ns: i64,
    /// Minimum gap between notifications of a changed group.
    pub group_interval_ns: i64,
    /// Re-notify cadence for unchanged firing groups.
    pub repeat_interval_ns: i64,
    /// Child routes, tried in order.
    pub routes: Vec<Route>,
    /// When true, keep trying siblings after this node matches.
    pub continue_matching: bool,
}

/// One static defect found by [`Route::validate`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RouteIssue {
    /// What kind of defect.
    pub kind: RouteIssueKind,
    /// Slash-separated child-index path from the root (`root`, `root/1`).
    pub path: String,
    /// Human-readable description.
    pub detail: String,
}

/// The defect classes [`Route::validate`] detects.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RouteIssueKind {
    /// A node names a receiver that is not in the defined set: alerts
    /// resolving there are silently dropped at notification time.
    UndefinedReceiver,
    /// A sub-route can never match because an earlier sibling is a
    /// catch-all (no matchers) without `continue`: [`Route::resolve`]
    /// stops at the first matching child.
    ShadowedRoute,
}

impl std::fmt::Display for RouteIssue {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}: {}", self.path, self.detail)
    }
}

impl Route {
    /// A catch-all root with Alertmanager's default timings
    /// (30s / 5m / 4h).
    pub fn default_route(receiver: &str) -> Self {
        Self {
            receiver: receiver.to_string(),
            matchers: Vec::new(),
            group_by: vec!["alertname".to_string()],
            group_wait_ns: 30 * NANOS_PER_SEC,
            group_interval_ns: 5 * 60 * NANOS_PER_SEC,
            repeat_interval_ns: 4 * 3600 * NANOS_PER_SEC,
            routes: Vec::new(),
            continue_matching: false,
        }
    }

    /// A child route with matchers, inheriting default timings.
    pub fn matching(receiver: &str, matchers: Vec<Matcher>) -> Self {
        Self { matchers, ..Self::default_route(receiver) }
    }

    /// The receivers the shipped stack defines sinks for; the companions
    /// of [`Route::shipped_tree`] when validating.
    pub fn shipped_receivers() -> Vec<String> {
        vec!["slack".to_string(), "servicenow".to_string()]
    }

    /// The paper's routing policy, as `core::stack` wires it: critical
    /// alerts go to ServiceNow AND Slack (`continue: true`), everything
    /// else to Slack only. Grouped by alertname with a short group_wait
    /// so the case studies notify within one simulation step cadence.
    pub fn shipped_tree() -> Self {
        let mut root = Route::default_route("slack");
        root.group_by = vec!["alertname".into()];
        root.group_wait_ns = 10 * NANOS_PER_SEC;
        root.group_interval_ns = 60 * NANOS_PER_SEC;
        root.repeat_interval_ns = 4 * 3600 * NANOS_PER_SEC;
        let mut to_sn = Route::matching("servicenow", vec![Matcher::eq("severity", "critical")]);
        to_sn.group_by = root.group_by.clone();
        to_sn.group_wait_ns = root.group_wait_ns;
        to_sn.group_interval_ns = root.group_interval_ns;
        to_sn.repeat_interval_ns = root.repeat_interval_ns;
        to_sn.continue_matching = true;
        let mut to_slack_all = Route::matching("slack", vec![]);
        to_slack_all.group_by = root.group_by.clone();
        to_slack_all.group_wait_ns = root.group_wait_ns;
        to_slack_all.group_interval_ns = root.group_interval_ns;
        to_slack_all.repeat_interval_ns = root.repeat_interval_ns;
        root.routes.push(to_sn);
        root.routes.push(to_slack_all);
        root
    }

    /// Statically validate the tree against the set of defined receivers.
    /// Detects receivers referenced but never defined and sub-routes
    /// shadowed by an earlier sibling catch-all; returns every defect in
    /// deterministic tree order. Called by the `omni-lint` Layer-1
    /// analyzer and usable standalone.
    pub fn validate(&self, defined_receivers: &[&str]) -> Vec<RouteIssue> {
        let mut issues = Vec::new();
        self.validate_node("root", defined_receivers, &mut issues);
        issues
    }

    fn validate_node(&self, path: &str, defined: &[&str], issues: &mut Vec<RouteIssue>) {
        if !defined.contains(&self.receiver.as_str()) {
            issues.push(RouteIssue {
                kind: RouteIssueKind::UndefinedReceiver,
                path: path.to_string(),
                detail: format!("receiver {:?} is referenced but never defined", self.receiver),
            });
        }
        // A catch-all child without `continue` stops resolve() for every
        // later sibling, whatever their matchers.
        let mut shadowing: Option<usize> = None;
        for (i, child) in self.routes.iter().enumerate() {
            let child_path = format!("{path}/{i}");
            if let Some(by) = shadowing {
                issues.push(RouteIssue {
                    kind: RouteIssueKind::ShadowedRoute,
                    path: child_path.clone(),
                    detail: format!(
                        "route to {:?} is unreachable: sibling {path}/{by} is a catch-all without continue",
                        child.receiver
                    ),
                });
            }
            child.validate_node(&child_path, defined, issues);
            if shadowing.is_none() && child.matchers.is_empty() && !child.continue_matching {
                shadowing = Some(i);
            }
        }
    }

    fn matches(&self, labels: &LabelSet) -> bool {
        self.matchers.iter().all(|m| m.matches(labels))
    }

    /// Resolve an alert against the tree. Returns every matched terminal
    /// node (more than one when `continue` routes are involved); an empty
    /// vec never happens if the root is a catch-all.
    pub fn resolve(&self, labels: &LabelSet) -> Vec<&Route> {
        let mut out = Vec::new();
        self.resolve_into(labels, &mut out);
        out
    }

    /// Push the terminal nodes `labels` reaches under this node onto
    /// `out`; whether this node matched at all.
    fn resolve_into<'a>(&'a self, labels: &LabelSet, out: &mut Vec<&'a Route>) -> bool {
        if !self.matches(labels) {
            return false;
        }
        let mut child_matched = false;
        for child in &self.routes {
            if child.resolve_into(labels, out) {
                child_matched = true;
                if !child.continue_matching {
                    break;
                }
            }
        }
        if !child_matched {
            out.push(self);
        }
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use omni_model::labels;

    #[test]
    fn root_catches_everything() {
        let r = Route::default_route("slack");
        let m = r.resolve(&labels!("alertname" => "X"));
        assert_eq!(m.len(), 1);
        assert_eq!(m[0].receiver, "slack");
        assert_eq!(m[0].group_by, vec!["alertname"]);
    }

    #[test]
    fn first_matching_child_wins() {
        let mut root = Route::default_route("slack");
        root.routes.push(Route::matching("sn", vec![Matcher::eq("severity", "critical")]));
        root.routes.push(Route::matching("email", vec![Matcher::eq("severity", "critical")]));
        let m = root.resolve(&labels!("severity" => "critical"));
        assert_eq!(m.len(), 1);
        assert_eq!(m[0].receiver, "sn");
    }

    #[test]
    fn continue_routes_fan_out() {
        let mut root = Route::default_route("slack");
        let mut first = Route::matching("sn", vec![Matcher::eq("severity", "critical")]);
        first.continue_matching = true;
        root.routes.push(first);
        root.routes.push(Route::matching("pager", vec![Matcher::eq("severity", "critical")]));
        let m = root.resolve(&labels!("severity" => "critical"));
        assert_eq!(m.len(), 2);
        assert_eq!(m[0].receiver, "sn");
        assert_eq!(m[1].receiver, "pager");
    }

    #[test]
    fn unmatched_children_fall_back_to_parent() {
        let mut root = Route::default_route("slack");
        root.routes.push(Route::matching("sn", vec![Matcher::eq("severity", "critical")]));
        let m = root.resolve(&labels!("severity" => "warning"));
        assert_eq!(m.len(), 1);
        assert_eq!(m[0].receiver, "slack");
    }

    #[test]
    fn validate_flags_undefined_receiver() {
        let mut root = Route::default_route("slack");
        root.routes.push(Route::matching("pagerduty", vec![Matcher::eq("severity", "critical")]));
        let issues = root.validate(&["slack", "servicenow"]);
        assert_eq!(issues.len(), 1);
        assert_eq!(issues[0].kind, RouteIssueKind::UndefinedReceiver);
        assert_eq!(issues[0].path, "root/0");
        assert!(issues[0].detail.contains("pagerduty"), "{}", issues[0].detail);
    }

    #[test]
    fn validate_flags_shadowed_sibling() {
        let mut root = Route::default_route("slack");
        // Catch-all without continue: the critical route after it can
        // never be reached.
        root.routes.push(Route::matching("slack", vec![]));
        root.routes.push(Route::matching("servicenow", vec![Matcher::eq("severity", "critical")]));
        let issues = root.validate(&["slack", "servicenow"]);
        assert_eq!(issues.len(), 1);
        assert_eq!(issues[0].kind, RouteIssueKind::ShadowedRoute);
        assert_eq!(issues[0].path, "root/1");
        // Sanity: resolve() really never reaches the shadowed route.
        let m = root.resolve(&labels!("severity" => "critical"));
        assert_eq!(m.len(), 1);
        assert_eq!(m[0].receiver, "slack");
    }

    #[test]
    fn validate_allows_continue_before_catch_all() {
        // The shipped tree: continue route, then catch-all. No shadowing,
        // nothing undefined.
        let tree = Route::shipped_tree();
        assert!(tree
            .validate(&Route::shipped_receivers().iter().map(|s| s.as_str()).collect::<Vec<_>>())
            .is_empty());
        // Critical fans out to both receivers; warnings go to slack only.
        let m = tree.resolve(&labels!("severity" => "critical"));
        assert_eq!(m.len(), 2);
        let m = tree.resolve(&labels!("severity" => "warning"));
        assert_eq!(m.len(), 1);
        assert_eq!(m[0].receiver, "slack");
    }

    #[test]
    fn validate_recurses_into_children() {
        let mut root = Route::default_route("slack");
        let mut facility = Route::matching("facility-team", vec![Matcher::eq("cat", "facility")]);
        facility.routes.push(Route::matching("ghost", vec![]));
        facility.routes.push(Route::matching("slack", vec![Matcher::eq("severity", "warning")]));
        root.routes.push(facility);
        let issues = root.validate(&["slack", "facility-team"]);
        let kinds: Vec<_> = issues.iter().map(|i| (i.kind, i.path.as_str())).collect();
        assert_eq!(
            kinds,
            vec![
                (RouteIssueKind::UndefinedReceiver, "root/0/0"),
                (RouteIssueKind::ShadowedRoute, "root/0/1"),
            ]
        );
    }

    #[test]
    fn nested_routes() {
        let mut root = Route::default_route("slack");
        let mut facility =
            Route::matching("facility-team", vec![Matcher::eq("category", "facility")]);
        facility
            .routes
            .push(Route::matching("facility-pager", vec![Matcher::eq("severity", "critical")]));
        root.routes.push(facility);
        let m = root.resolve(&labels!("category" => "facility", "severity" => "critical"));
        assert_eq!(m[0].receiver, "facility-pager");
        let m = root.resolve(&labels!("category" => "facility", "severity" => "warning"));
        assert_eq!(m[0].receiver, "facility-team");
    }
}
