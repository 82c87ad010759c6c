//! Self-telemetry conformance: the running stack against the one table
//! of families (`obs::SELF_FAMILIES`), in both directions.
//!
//! A seed-42 stack is driven through the introspection-drill scenario
//! (warm-up, a slow history query, a query flood) with a chaos window, a
//! cabinet leak and a rate-limited tenant burst on top, gathering the
//! registry after every step. Every family ever gathered must be a table
//! row with the declared kind, help and label keys; every row must have
//! been gathered at least once. This sees what the stack actually emits —
//! computed names included — which is what lets the lint catalog be
//! derived from the table instead of cross-checked against source text.
//! And since every step's page is in hand: no sample of a counter-kind
//! family may ever read lower than it did the step before (a counter fed
//! from a "currently held" number looks like a reset to `rate()`).

use shasta_mon::core::{ChaosEngine, ChaosFault, MonitoringStack, StackConfig};
use shasta_mon::loki::TenantLimits;
use shasta_mon::model::{LabelSet, LogEntry, TenantId, NANOS_PER_SEC};
use shasta_mon::obs::{Family, FamilyKind, FamilySnapshot, InstrumentKind, SELF_FAMILIES};
use shasta_mon::shasta::LeakZone;
use std::collections::{BTreeMap, BTreeSet};

const MINUTE: i64 = 60 * NANOS_PER_SEC;

/// What the table says one gathered family looks like.
struct Declared {
    row: Family,
    kind: InstrumentKind,
    labels: BTreeSet<&'static str>,
}

fn declared() -> BTreeMap<String, Declared> {
    let mut out = BTreeMap::new();
    for row in SELF_FAMILIES {
        for (name, kind, labels) in row.gathered() {
            let labels = labels.into_iter().collect();
            let clash = out.insert(name.clone(), Declared { row: *row, kind, labels });
            assert!(clash.is_none(), "{name} is declared by two rows");
        }
    }
    out
}

/// The last gathered value of every counter sample.
type CounterValues = BTreeMap<(String, LabelSet), f64>;

/// Check one gathered page against the table and against the previous
/// page's counter values; return the names on it.
fn conforms(
    page: &[FamilySnapshot],
    declared: &BTreeMap<String, Declared>,
    counters: &mut CounterValues,
) -> BTreeSet<String> {
    for fam in page {
        let Some(d) = declared.get(&fam.name) else {
            panic!("gathered family {} is not a row of SELF_FAMILIES", fam.name)
        };
        assert_eq!(fam.kind, d.kind, "{}: kind differs from the table", fam.name);
        assert_eq!(fam.help, d.row.help, "{}: help differs from the table", fam.name);
        for sample in &fam.samples {
            let keys: BTreeSet<&str> = sample.labels.iter().map(|(k, _)| k).collect();
            assert_eq!(keys, d.labels, "{}: label keys differ from the table", fam.name);
            // Histogram `_bucket` / `_sum` / `_count` gather as counters too.
            if fam.kind == InstrumentKind::Counter {
                let key = (fam.name.clone(), sample.labels.clone());
                if let Some(last) = counters.insert(key, sample.value) {
                    let (name, labels, now) = (&fam.name, &sample.labels, sample.value);
                    assert!(now >= last, "{name}{labels}: a counter went down, {last} -> {now}");
                }
            }
        }
        if let FamilyKind::Histogram(bounds) = d.row.kind {
            if fam.name.ends_with("_bucket") {
                let les: BTreeSet<&str> =
                    fam.samples.iter().filter_map(|s| s.labels.get("le")).collect();
                assert_eq!(les.len(), bounds.len() + 1, "{}: bucket layout differs", fam.name);
            }
        }
    }
    page.iter().map(|f| f.name.clone()).collect()
}

/// Drive the scenario, checking every step's page; return every family
/// name gathered along the way.
fn drive(declared: &BTreeMap<String, Declared>) -> BTreeSet<String> {
    let config = StackConfig { slow_query_threshold_ns: 200_000, ..StackConfig::default() };
    assert_eq!(config.seed, 42);
    let mut stack = MonitoringStack::new(config);
    let mut counters = CounterValues::new();
    let mut seen = conforms(&stack.registry().gather(), declared, &mut counters);
    let mut step = |stack: &mut MonitoringStack, dt: i64, syslog: usize, container: usize| {
        stack.step(dt, syslog, container);
        seen.extend(conforms(&stack.registry().gather(), declared, &mut counters));
    };

    // Introspection drill: three hours of load, then a full-history
    // query that lands in the slow-query log on the next step.
    for _ in 0..36 {
        step(&mut stack, 5 * MINUTE, 30, 10);
    }
    let history = stack.pane.logs(r#"{data_type="syslog"}"#, 0, stack.clock.now(), 10_000);
    assert!(history.expect("history query").len() > 1_000);
    step(&mut stack, MINUTE, 5, 5);

    // Chaos window (crash + replay, brownout, revoked subscriptions, a
    // flaky receiver) with a leak inside it, so alerts, notifications,
    // retries and a ServiceNow incident all happen under faults.
    let t0 = stack.clock.now();
    stack.install_chaos(
        ChaosEngine::new(42)
            .inject(ChaosFault::IngesterCrash {
                at: t0 + 2 * MINUTE,
                shard: 0,
                recover_at: t0 + 6 * MINUTE,
            })
            .inject(ChaosFault::BusBrownout { from: t0 + 4 * MINUTE, until: t0 + 5 * MINUTE })
            .inject(ChaosFault::SubscriptionDrop { at: t0 + 3 * MINUTE })
            .inject(ChaosFault::FlakyReceiver {
                receiver: "slack".into(),
                from: t0,
                until: t0 + 30 * MINUTE,
                fail_permille: 500,
            }),
    );
    let acme = TenantId::new("acme");
    stack.omni.loki().tenants().set_override(
        &acme,
        TenantLimits { ingest_rate_per_sec: 5, ingest_burst: 5, ..TenantLimits::default() },
    );
    for i in 1..=20 {
        if i == 7 {
            let chassis = stack.machine.topology().chassis()[3];
            stack.inject_leak(chassis, 'A', LeakZone::Front);
        }
        if i == 9 {
            // Tenant burst: twenty records against a burst budget of five.
            let base = stack.clock.now();
            for k in 0..20i64 {
                let labels = LabelSet::from_pairs([("app", "billing")]);
                let frame = (labels, vec![LogEntry::new(base + k, format!("acme {k}"))]);
                let _ = stack.omni.loki().push_frames(Some(&acme), [frame]);
            }
        }
        step(&mut stack, MINUTE, 5, 3);
    }
    assert!(!stack.servicenow.incidents().is_empty(), "the leak must open an incident");

    // Query flood: cheap tail probes exercise the scheduler and sampler.
    for _ in 0..150 {
        let now = stack.clock.now();
        let _ = stack.pane.logs(r#"{data_type="syslog"}"#, now - MINUTE, now, 100);
    }
    step(&mut stack, MINUTE, 5, 5);
    seen
}

#[test]
fn the_stack_emits_exactly_the_declared_families() {
    let declared = declared();
    let seen = drive(&declared);
    // `conforms` already rejected anything undeclared; the other
    // direction: a row nobody emits is a dead declaration (and a catalog
    // entry dashboards could query forever without data).
    let never: Vec<&String> = declared.keys().filter(|name| !seen.contains(*name)).collect();
    assert!(never.is_empty(), "declared in SELF_FAMILIES but never gathered: {never:?}");
}

#[test]
fn tenant_scoped_rows_declare_the_tenant_label() {
    // `omni_tenant_` is the reserved prefix for per-tenant telemetry; the
    // emission side of this is the label-key check in `conforms`.
    for row in SELF_FAMILIES.iter().filter(|r| r.name.starts_with("omni_tenant_")) {
        assert!(row.labels.contains(&"tenant"), "{} must declare `tenant`", row.name);
    }
}
