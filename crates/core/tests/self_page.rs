//! The self-scrape page, written in place from one registry traversal,
//! against the rendering it replaced: the registry gathered into
//! snapshots, each turned into a `MetricFamily` and rendered
//! (`reference_page`, kept here as the reference).
//!
//! The two pages hold the same lines as a multiset, and the new page
//! keeps the page rules: families in name order, each with one
//! `# HELP`/`# TYPE` pair and only its own samples after it, an
//! `# EXEMPLAR` line right after the bucket it annotates (its value inside
//! that bucket), and label keys sorted inside the braces. Only the order
//! of lines within a family may differ (a histogram's buckets go by
//! ascending `le`, series by series). Both pages come from the registry's
//! one traversal, so the random registries also carry the families they
//! must show, worked out from what was registered: every instrument's
//! (a histogram's five), and every collector row started or sampled.
//!
//! Checked over random registries — counters, gauges and histograms with
//! exemplars under names that interleave with each other's expansions,
//! invalid names, label values that need escaping, and collectors whose
//! rows merge into instrument families or come back to a family after
//! another — and on a default stack's page after each of 100 steps.
//!
//! Mutations this catches (each run on a scratch copy): runs copied in
//! traversal order instead of name order, a merged family's header
//! written twice, an exemplar written for the
//! next bucket, the extra `le` pair appended after the labels instead of
//! in key order, an empty collector family dropped.

use omni_core::{MonitoringStack, StackConfig};
use omni_exporters::{render_exposition_into, Exporter, MetricFamily, SelfExporter};
use omni_model::{LabelSet, NANOS_PER_SEC};
use omni_obs::{Family, FamilyKind, InstrumentKind, Registry};
use omni_shasta::LeakZone;
use proptest::prelude::*;
use std::collections::{BTreeMap, BTreeSet};

/// The page as it was rendered before it was written in place.
fn reference_page(registry: &Registry) -> String {
    let families: Vec<MetricFamily> = registry
        .gather()
        .into_iter()
        .map(|snap| {
            let mut fam = match snap.kind {
                InstrumentKind::Counter => MetricFamily::counter(&snap.name, &snap.help),
                InstrumentKind::Gauge => MetricFamily::gauge(&snap.name, &snap.help),
            };
            for s in snap.samples {
                fam.sample(s.labels, s.value);
            }
            for (labels, ex) in snap.exemplars {
                fam.exemplar(labels, ex);
            }
            fam
        })
        .collect();
    let mut out = String::new();
    render_exposition_into(&families, &mut out);
    out
}

/// The label pairs of a series text `name{k="v",..}`, in page order,
/// values as written (escaped).
fn label_pairs(series: &str) -> Vec<(String, String)> {
    let Some(open) = series.find('{') else { return Vec::new() };
    let mut pairs = Vec::new();
    let mut chars = series[open + 1..].chars();
    loop {
        let key: String = chars.by_ref().take_while(|&c| c != '=').collect();
        assert_eq!(chars.next(), Some('"'), "{series}");
        let mut value = String::new();
        while let Some(c) = chars.next() {
            match c {
                '\\' => {
                    value.push(c);
                    value.extend(chars.next());
                }
                '"' => break,
                c => value.push(c),
            }
        }
        pairs.push((key, value));
        match chars.next() {
            Some(',') => continue,
            Some('}') => break,
            other => panic!("{series}: {other:?} after a label value"),
        }
    }
    pairs
}

/// A sample or exemplar value as the page writes it.
fn page_value(text: &str) -> f64 {
    match text {
        "NaN" => f64::NAN,
        "+Inf" => f64::INFINITY,
        "-Inf" => f64::NEG_INFINITY,
        v => v.parse().unwrap_or_else(|_| panic!("{v}: not a value")),
    }
}

/// The page rules of the module doc.
fn check_page_rules(page: &str) {
    let mut lines = page.lines().peekable();
    let mut last_family = String::new();
    // The family whose samples may follow, and the last sample's series.
    let mut open: Option<String> = None;
    let mut last_series: Option<&str> = None;
    while let Some(line) = lines.next() {
        if let Some(rest) = line.strip_prefix("# HELP ") {
            let name = rest.split(' ').next().unwrap().to_string();
            let kind = lines.next().and_then(|l| l.strip_prefix(&format!("# TYPE {name} ")));
            assert!(matches!(kind, Some("counter" | "gauge")), "{name}: no TYPE after HELP");
            assert!(last_family < name, "{name} after {last_family}: not in name order, or twice");
            last_family.clone_from(&name);
            open = Some(name);
            last_series = None;
        } else if line.starts_with("# omni-exporter error: ") {
            open = None;
            last_series = None;
        } else if let Some(rest) = line.strip_prefix("# EXEMPLAR ") {
            // `<series> trace_id=<hex> <value>`: a label value may hold a space.
            let series = rest.rsplitn(3, ' ').nth(2).expect("exemplar fields");
            assert_eq!(last_series, Some(series), "an exemplar follows its own bucket");
            assert!(open.as_deref().is_some_and(|f| f.ends_with("_bucket")), "{line}");
            let le = label_pairs(series).into_iter().find(|(k, _)| k == "le").expect("le").1;
            if le != "+Inf" {
                let value = page_value(rest.rsplit(' ').next().expect("value"));
                assert!(value <= page_value(&le), "{line}: outside its bucket");
            }
            last_series = None;
        } else {
            let series = &line[..line.rfind(' ').expect("value")];
            let name = series.split('{').next().unwrap();
            assert_eq!(open.as_deref(), Some(name), "{line}: outside its family");
            let pairs = label_pairs(series);
            assert!(pairs.windows(2).all(|w| w[0].0 < w[1].0), "{line}: keys out of order");
            last_series = Some(series);
        }
    }
}

/// The names of the families on `page`, dropped ones included.
fn page_families(page: &str) -> BTreeSet<String> {
    let dropped = "# omni-exporter error: dropped family with invalid metric name ";
    (page.lines())
        .filter_map(|line| match line.strip_prefix("# HELP ") {
            Some(rest) => rest.split(' ').next(),
            None => line.strip_prefix(dropped).map(|name| name.trim_matches('"')),
        })
        .map(str::to_string)
        .collect()
}

/// The new page equals the reference as a multiset of lines, and keeps
/// the page rules. Returns the page.
fn assert_same_page(registry: &Registry) -> String {
    let page = SelfExporter::new(registry.clone()).render();
    let reference = reference_page(registry);
    let sorted = |page: &str| {
        let mut lines: Vec<String> = page.lines().map(str::to_string).collect();
        lines.sort();
        lines
    };
    assert_eq!(sorted(&page), sorted(&reference), "page:\n{page}\nreference:\n{reference}");
    check_page_rules(&page);
    page
}

const COUNTERS: [&str; 4] = ["omni_c_total", "omni_shared", "omni_h_c", "bad name"];
const GAUGES: [&str; 3] = ["omni_g", "omni_shared", "9lives"];
/// `omni_h` expands to names `omni_h_c` and `omni_h_p` sort between.
const HISTOGRAMS: [&str; 2] = ["omni_h", "omni_lat_seconds"];
const COLLECTED: [&str; 4] = ["omni_c_total", "omni_g", "omni_h_p", "omni_col"];
const KEYS: [&str; 4] = ["a", "job", "le", "zone"];
const BOUNDS: [f64; 6] = [0.001, 0.5, 1.0, 2.5, 10.0, 1e21];
const TEXT_CHARS: [char; 8] = ['a', ' ', '\\', '"', '\n', '{', '=', 'é'];

fn arb_text() -> impl Strategy<Value = String> {
    prop::collection::vec(prop::sample::select(TEXT_CHARS.to_vec()), 0..5)
        .prop_map(|cs| cs.into_iter().collect())
}

/// Up to three pairs; `le` only where `with_le`.
fn arb_labels(with_le: bool) -> impl Strategy<Value = LabelSet> {
    let keys: Vec<&str> = KEYS.into_iter().filter(|&k| with_le || k != "le").collect();
    prop::collection::vec((prop::sample::select(keys), arb_text()), 0..3)
        .prop_map(LabelSet::from_pairs)
}

fn arb_value() -> impl Strategy<Value = f64> {
    prop_oneof![
        (-100i64..100).prop_map(|n| n as f64 / 8.0),
        prop::sample::select(vec![f64::NAN, f64::INFINITY, -0.0, 1e21, 5e-324]),
    ]
}

/// One step of building a registry.
#[derive(Debug, Clone)]
enum Op {
    Counter(usize, LabelSet, u64),
    Gauge(usize, LabelSet, f64),
    Histogram {
        name: usize,
        labels: LabelSet,
        bounds: Vec<f64>,
        observed: Vec<(f64, Option<u64>)>,
    },
    /// The rows one collector writes.
    Collector(Vec<CollectedRow>),
}

/// One row a collector writes.
#[derive(Debug, Clone)]
struct CollectedRow {
    row: Family,
    /// Whether the family is started before its samples.
    start: bool,
    /// Label values in key order, and the value.
    samples: Vec<(Vec<String>, f64)>,
}

fn arb_op() -> impl Strategy<Value = Op> {
    let row = (
        (0..COLLECTED.len(), any::<bool>(), arb_text()),
        prop::collection::vec(prop::sample::select(KEYS.to_vec()), 0..3),
        any::<bool>(),
        prop::collection::vec((prop::collection::vec(arb_text(), 3), arb_value()), 0..3),
    )
        .prop_map(|((name, counter, help), mut keys, start, samples)| {
            keys.sort();
            keys.dedup();
            let samples =
                samples.into_iter().map(|(values, v)| (values[..keys.len()].to_vec(), v)).collect();
            let row = Family {
                name: COLLECTED[name],
                help: Box::leak(help.into_boxed_str()),
                kind: if counter { FamilyKind::Counter } else { FamilyKind::Gauge },
                labels: Box::leak(keys.into_boxed_slice()),
            };
            CollectedRow { row, start, samples }
        });
    prop_oneof![
        (0..COUNTERS.len(), arb_labels(true), 0u64..1000)
            .prop_map(|(n, l, v)| Op::Counter(n, l, v)),
        (0..GAUGES.len(), arb_labels(true), arb_value()).prop_map(|(n, l, v)| Op::Gauge(n, l, v)),
        (
            0..HISTOGRAMS.len(),
            arb_labels(false),
            prop::collection::vec(prop::sample::select(BOUNDS.to_vec()), 1..4),
            prop::collection::vec(
                (arb_value(), prop_oneof![Just(None), (1u64..1 << 40).prop_map(Some)]),
                0..5
            ),
        )
            .prop_map(|(name, labels, mut bounds, observed)| {
                bounds.sort_by(f64::total_cmp);
                bounds.dedup();
                Op::Histogram { name, labels, bounds, observed }
            }),
        prop::collection::vec(row, 0..4).prop_map(Op::Collector),
    ]
}

/// Apply `ops`, skipping an instrument whose (name, labels) already holds
/// another kind (the registry panics on that). Returns the registry and
/// the names of the families its page must show.
fn build(ops: &[Op]) -> (Registry, BTreeSet<String>) {
    let registry = Registry::new(omni_model::SimClock::new());
    let mut shown = BTreeSet::new();
    let mut cells: BTreeMap<(&str, LabelSet), &str> = BTreeMap::new();
    let mut fits = |name, labels: &LabelSet, kind| {
        *cells.entry((name, labels.clone())).or_insert(kind) == kind
    };
    for op in ops {
        match op {
            Op::Counter(n, labels, v) => {
                if fits(COUNTERS[*n], labels, "counter") {
                    registry.counter(COUNTERS[*n], "C \\ help.", labels.clone()).add(*v);
                    shown.insert(COUNTERS[*n].to_string());
                }
            }
            Op::Gauge(n, labels, v) => {
                if fits(GAUGES[*n], labels, "gauge") {
                    registry.gauge(GAUGES[*n], "G \"help\"\n.", labels.clone()).set(*v);
                    shown.insert(GAUGES[*n].to_string());
                }
            }
            Op::Histogram { name, labels, bounds, observed } => {
                if fits(HISTOGRAMS[*name], labels, "histogram") {
                    let h = registry.histogram(HISTOGRAMS[*name], "H.", labels.clone(), bounds);
                    for suffix in ["_bucket", "_sum", "_count", "_p50", "_p99"] {
                        shown.insert(format!("{}{suffix}", HISTOGRAMS[*name]));
                    }
                    for &(v, trace) in observed {
                        match trace {
                            Some(id) => h.observe_with_exemplar(v, id),
                            None => h.observe(v),
                        }
                    }
                }
            }
            Op::Collector(rows) => {
                for CollectedRow { row, start, samples } in rows {
                    if *start || !samples.is_empty() {
                        shown.insert(row.name.to_string());
                    }
                }
                let rows = rows.clone();
                registry.register_collector(move |out| {
                    for CollectedRow { row, start, samples } in &rows {
                        if *start {
                            out.family(row);
                        }
                        for (values, v) in samples {
                            let pairs: Vec<(&str, &str)> = row
                                .labels
                                .iter()
                                .copied()
                                .zip(values.iter().map(String::as_str))
                                .collect();
                            out.sample(row, &pairs, *v);
                        }
                    }
                });
            }
        }
    }
    (registry, shown)
}

proptest! {
    #[test]
    fn self_page_matches_the_gathered_rendering(ops in prop::collection::vec(arb_op(), 0..12)) {
        let (registry, shown) = build(&ops);
        let page = assert_same_page(&registry);
        assert_eq!(page_families(&page), shown, "{page}");
    }
}

#[test]
fn a_default_stack_page_matches_at_every_step() {
    const MINUTE: i64 = 60 * NANOS_PER_SEC;
    let mut stack = MonitoringStack::new(StackConfig::default());
    assert_same_page(stack.registry());
    for step in 0..100 {
        if step == 10 {
            // A leak carries the alert path to a ServiceNow incident: the
            // event-to-incident histogram gets its exemplar.
            let chassis = stack.machine.topology().chassis()[3];
            stack.inject_leak(chassis, 'A', LeakZone::Front);
        }
        if step % 10 == 5 {
            // Recorded queries feed the query-latency histogram's exemplars.
            let now = stack.clock.now();
            stack.pane.logs(r#"{data_type="syslog"}"#, 0, now, 100).expect("query");
        }
        stack.step(MINUTE, 20, 10);
        assert_same_page(stack.registry());
    }
    let page = SelfExporter::new(stack.registry().clone()).render();
    assert!(page.contains("# EXEMPLAR omni_event_to_incident_seconds_bucket"), "{page}");
    assert!(page.contains("# EXEMPLAR omni_query_latency_seconds_bucket"), "{page}");
}
