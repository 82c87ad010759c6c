//! Property test for the one alert-rule state machine: whatever the
//! interleaving of clock advances, evaluations that succeed with some
//! vector and evaluations that fail, a [`RuleEngine`] notifies exactly what
//! a per-series reference says — `Firing` iff the series has been held for
//! the rule's `for:` since it was last successfully seen absent, exactly one
//! `Resolved` iff it was firing, nothing for a group that is not due or a
//! rule whose query failed — in an order that does not depend on hash order.

use omni_model::{
    labels, Alert, AlertRule, AlertStatus, Evaluate, LabelSet, RuleEngine, RuleGroup, Timestamp,
    NANOS_PER_SEC,
};
use proptest::prelude::*;
use std::cell::RefCell;
use std::collections::BTreeMap;
use std::rc::Rc;

const SERIES: usize = 4;
const FOR_NS: [i64; 3] = [0, 30 * NANOS_PER_SEC, 180 * NANOS_PER_SEC];
const INTERVAL_NS: [i64; 3] = [0, 30 * NANOS_PER_SEC, 60 * NANOS_PER_SEC];
/// Steps that land on, just short of and past the holds and intervals.
const DT_NS: [i64; 5] =
    [NANOS_PER_SEC, 29 * NANOS_PER_SEC, 30 * NANOS_PER_SEC, 60 * NANOS_PER_SEC, 90 * NANOS_PER_SEC];

/// What one rule's query returns: which of the `SERIES` hold (a bit each)
/// and the value they all carry, or a failure.
type Answer = Result<(u8, f64), ()>;

/// Answers rule `i` (its expression is the index) from a shared table.
#[derive(Clone, Default)]
struct Table(Rc<RefCell<Vec<Answer>>>);

impl Evaluate for Table {
    type Query = usize;
    type Error = ();

    fn parse(&self, expr: &str) -> Result<usize, ()> {
        expr.parse().map_err(|_| ())
    }

    /// Highest series first, so evaluator order is not label order.
    fn instant(&self, rule: &usize, _: Timestamp) -> Result<Vec<(LabelSet, f64)>, ()> {
        let (mask, value) = self.0.borrow()[*rule]?;
        Ok((0..SERIES).rev().filter(|s| mask & (1 << s) != 0).map(|s| (series(s), value)).collect())
    }
}

fn series(s: usize) -> LabelSet {
    labels!("series" => format!("s{s}"))
}

/// `(group interval, [rule for:])` per group; rules are numbered across
/// groups in order.
type Layout = Vec<(i64, Vec<i64>)>;

fn engine(layout: &Layout) -> (Table, RuleEngine<Table>) {
    let table = Table::default();
    let mut engine = RuleEngine::new(table.clone());
    let mut id = 0;
    for (g, (interval_ns, holds)) in layout.iter().enumerate() {
        let rules = holds
            .iter()
            .map(|&for_ns| {
                id += 1;
                AlertRule {
                    name: format!("R{}", id - 1),
                    expr: (id - 1).to_string(),
                    for_ns,
                    labels: labels!("severity" => "critical"),
                    annotations: vec![("summary".into(), "{{.series}} is {{.severity}}".into())],
                }
            })
            .collect();
        engine
            .add_group(RuleGroup { name: format!("g{g}"), interval_ns: *interval_ns, rules })
            .unwrap();
    }
    (table, engine)
}

/// `(rule, series, status, starts_at)`.
type Seen = (usize, usize, AlertStatus, Timestamp);

fn seen(n: &Alert) -> Seen {
    let index = |label: &str| -> usize { n.labels.get(label).unwrap()[1..].parse().unwrap() };
    let (rule, series) = (index("alertname"), index("series"));
    assert_eq!(n.labels.get("severity"), Some("critical"));
    assert_eq!(n.annotations, vec![("summary".to_string(), format!("s{series} is critical"))]);
    (rule, series, n.status, n.starts_at)
}

/// The reference: per `(rule, series)`, when it was first seen since its
/// last successful absence, and whether the last look found it held long
/// enough.
#[derive(Default)]
struct Reference {
    last_eval: BTreeMap<usize, Timestamp>,
    held: BTreeMap<(usize, usize), (Timestamp, bool)>,
}

impl Reference {
    fn evaluate(&mut self, layout: &Layout, answers: &[Answer], now: Timestamp) -> Vec<Seen> {
        let mut out = Vec::new();
        let mut rule = 0;
        for (g, (interval_ns, holds)) in layout.iter().enumerate() {
            let rules = rule..rule + holds.len();
            rule = rules.end;
            if self.last_eval.get(&g).is_some_and(|&t| now.saturating_sub(t) < *interval_ns) {
                continue;
            }
            self.last_eval.insert(g, now);
            for (r, for_ns) in rules.zip(holds) {
                let Ok((mask, _)) = answers[r] else { continue };
                for s in (0..SERIES).rev().filter(|s| mask & (1 << s) != 0) {
                    let since = self.held.get(&(r, s)).map_or(now, |h| h.0);
                    let firing = now.saturating_sub(since) >= *for_ns;
                    self.held.insert((r, s), (since, firing));
                    if firing {
                        out.push((r, s, AlertStatus::Firing, since));
                    }
                }
                for s in (0..SERIES).filter(|s| mask & (1 << s) == 0) {
                    if let Some((since, true)) = self.held.remove(&(r, s)) {
                        out.push((r, s, AlertStatus::Resolved, since));
                    }
                }
            }
        }
        out
    }
}

/// One op: `kind` 0 advances the clock by `DT_NS[dt]`; anything else
/// evaluates with one answer per rule (`fail` 0 is an `Err`).
type Op = (u8, usize, Vec<(u8, u8)>);

/// Runs `ops` on a fresh engine, checking every evaluation against the
/// reference; returns everything the engine said.
fn run(layout: &Layout, ops: &[Op]) -> Vec<Vec<Alert>> {
    let (table, mut engine) = engine(layout);
    let mut reference = Reference::default();
    let mut now = 0;
    let mut said = Vec::new();
    for (i, (kind, dt, raw)) in ops.iter().enumerate() {
        if *kind == 0 {
            now += DT_NS[*dt];
            continue;
        }
        let answers: Vec<Answer> = raw
            .iter()
            .map(|&(fail, mask)| if fail == 0 { Err(()) } else { Ok((mask, i as f64)) })
            .collect();
        *table.0.borrow_mut() = answers.clone();
        let got = engine.evaluate(now);
        let want = reference.evaluate(layout, &answers, now);
        assert_eq!(got.iter().map(seen).collect::<Vec<_>>(), want, "op {i} at {now}");
        assert_eq!(engine.active_count(), reference.held.len(), "op {i} at {now}");
        said.push(got);
    }
    said
}

proptest! {
    #[test]
    fn rules_notify_what_the_reference_says_in_a_repeatable_order(
        groups in prop::collection::vec((0usize..3, prop::collection::vec(0usize..3, 1..3)), 1..3),
        ops in prop::collection::vec(
            (0u8..3, 0usize..DT_NS.len(), prop::collection::vec((0u8..6, 0u8..16), 4)),
            1..60,
        ),
    ) {
        let layout: Layout = groups
            .into_iter()
            .map(|(i, holds)| (INTERVAL_NS[i], holds.into_iter().map(|h| FOR_NS[h]).collect()))
            .collect();
        let first = run(&layout, &ops);
        // Each engine hashes with its own random keys: equal output twice
        // means no notification order leaks hash order.
        prop_assert_eq!(first, run(&layout, &ops));
    }
}

#[test]
fn rules_survive_sentinel_timestamps_in_the_hold_and_the_interval() {
    // `i64::MIN/2 → i64::MAX/2` spans more than `i64::MAX`: both the
    // `for:` hold and the interval gate must saturate, not wrap.
    let layout: Layout = vec![(INTERVAL_NS[2], vec![FOR_NS[2]])];
    let (table, mut engine) = engine(&layout);
    let mut reference = Reference::default();
    let answers = vec![Ok((0b0001, 1.0))];
    *table.0.borrow_mut() = answers.clone();
    for now in [i64::MIN / 2, i64::MAX / 2] {
        let got: Vec<Seen> = engine.evaluate(now).iter().map(seen).collect();
        assert_eq!(got, reference.evaluate(&layout, &answers, now));
    }
    assert_eq!(reference.held[&(0, 0)], (i64::MIN / 2, true));
}
