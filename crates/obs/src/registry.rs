//! The self-telemetry metrics registry.
//!
//! Three instrument kinds, all deterministic and all cheap enough to sit
//! on hot paths:
//!
//! * [`Counter`] — monotonically increasing `u64` (atomic).
//! * [`Gauge`] — arbitrary `f64` (atomic bit-cast).
//! * [`Histogram`] — fixed cumulative buckets + sum + count, with
//!   precomputed `p50`/`p99` exported as plain gauges (`<name>_p50`,
//!   `<name>_p99`) because the TSDB's PromQL subset has no
//!   `histogram_quantile`.
//!
//! Instruments are identified by `(family name, LabelSet)`; asking for the
//! same pair twice returns a handle to the same underlying cell, so any
//! subsystem holding a `Registry` clone contributes to one shared view.
//!
//! Subsystems that already keep their own counters (the bus topic stats,
//! bridge resilience counters, delivery stats) are absorbed via
//! *collectors*: closures registered with [`Registry::register_collector`]
//! that write [`crate::Family`] rows into a [`Rows`] at read time.
//!
//! One traversal, [`Registry::visit`], reads everything into a [`Sink`]:
//! the instruments under the families lock, then the collectors after it
//! drops. Two sinks exist. [`Registry::gather`] builds the sorted,
//! merged [`FamilySnapshot`]s that tests and the benchmark read; the
//! self exporter (`omni_exporters::SelfExporter`) writes the scrape page
//! as text, with no snapshot, label set or string per sample.

use crate::families::Rows;
use omni_model::{LabelSet, SimClock, Timestamp};
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// Default latency buckets in seconds, tuned to the simulation's
/// minute-scale steps: from sub-second bridge hops up to ten minutes of
/// alert-grouping delay.
pub const DEFAULT_LATENCY_BUCKETS: &[f64] =
    &[0.5, 1.0, 2.5, 5.0, 15.0, 30.0, 60.0, 120.0, 300.0, 600.0];

/// What kind of instrument a family holds.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum InstrumentKind {
    /// Monotonically increasing value.
    Counter,
    /// Point-in-time value.
    Gauge,
}

/// The families a histogram expands to when read (see
/// [`Registry::visit`]), as `(name suffix, kind)`, in the order a series
/// writes them. [`crate::Family::gathered`] declares a histogram row's
/// output from this list; a unit test there pins it to what
/// `visit_histogram` emits.
pub(crate) const HISTOGRAM_EXPANSION: [(&str, InstrumentKind); 5] = [
    ("_bucket", InstrumentKind::Counter),
    ("_sum", InstrumentKind::Counter),
    ("_count", InstrumentKind::Counter),
    ("_p50", InstrumentKind::Gauge),
    ("_p99", InstrumentKind::Gauge),
];

/// One labelled value inside a [`FamilySnapshot`].
#[derive(Debug, Clone, PartialEq)]
pub struct MetricSample {
    /// The sample's labels (without `__name__`).
    pub labels: LabelSet,
    /// The value at gather time.
    pub value: f64,
}

/// An exemplar: the trace behind one observation, attached to the
/// histogram bucket the observation landed in — the link from "this
/// latency bucket is filling up" to "here is a sampled trace showing
/// why". Each bucket keeps its most recent exemplar.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Exemplar {
    /// Trace id of the observation (render with
    /// [`crate::format_trace_id`]).
    pub trace_id: u64,
    /// The observed value.
    pub value: f64,
}

/// A gathered metric family: every sample of one name, plus metadata.
///
/// Histograms are pre-expanded at gather time into `_bucket`/`_sum`/
/// `_count`/`_p50`/`_p99` families so a snapshot always renders directly
/// to the text exposition format.
#[derive(Debug, Clone, PartialEq)]
pub struct FamilySnapshot {
    /// Family name (a valid Prometheus metric name).
    pub name: String,
    /// One-line help text.
    pub help: String,
    /// Counter or gauge semantics.
    pub kind: InstrumentKind,
    /// All samples, sorted by label set.
    pub samples: Vec<MetricSample>,
    /// Exemplars keyed by the sample labels they annotate (histogram
    /// `_bucket` families only; empty elsewhere).
    pub exemplars: Vec<(LabelSet, Exemplar)>,
}

impl FamilySnapshot {
    fn new(name: &str, help: &str, kind: InstrumentKind) -> Self {
        Self {
            name: name.into(),
            help: help.into(),
            kind,
            samples: Vec::new(),
            exemplars: Vec::new(),
        }
    }

    fn push(&mut self, labels: LabelSet, value: f64) {
        self.samples.push(MetricSample { labels, value });
    }
}

/// A monotonically increasing counter handle.
#[derive(Clone)]
pub struct Counter(Arc<AtomicU64>);

impl Counter {
    /// Increment by one.
    pub fn inc(&self) {
        self.add(1);
    }

    /// Increment by `n`.
    pub fn add(&self, n: u64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// A settable gauge handle (an `f64` stored as atomic bits).
#[derive(Clone)]
pub struct Gauge(Arc<AtomicU64>);

impl Gauge {
    /// Set the value.
    pub fn set(&self, v: f64) {
        self.0.store(v.to_bits(), Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> f64 {
        f64::from_bits(self.0.load(Ordering::Relaxed))
    }
}

struct HistCore {
    /// Upper bounds of the finite buckets, strictly increasing.
    bounds: Vec<f64>,
    /// Each bucket's `le` label value, `+Inf` last, spelled once, at the
    /// first read: the stack makes its histograms at setup and reads them
    /// every step.
    les: Vec<String>,
    /// Per-bucket (non-cumulative) counts; the last slot is `+Inf`.
    counts: Vec<u64>,
    /// Per-bucket most recent exemplar (same indexing as `counts`).
    exemplars: Vec<Option<Exemplar>>,
    sum: f64,
    count: u64,
}

impl HistCore {
    /// The `q`-quantile estimate over the current buckets (see
    /// [`Histogram::quantile`]).
    fn quantile(&self, q: f64) -> f64 {
        if self.count == 0 {
            return 0.0;
        }
        let rank = q * self.count as f64;
        let mut seen = 0u64;
        for (i, &c) in self.counts.iter().enumerate() {
            if c == 0 {
                continue;
            }
            let next = seen + c;
            if (next as f64) >= rank {
                if i >= self.bounds.len() {
                    // +Inf bucket: clamp like histogram_quantile does.
                    return self.bounds.last().copied().unwrap_or(f64::INFINITY);
                }
                let lower = if i == 0 { 0.0 } else { self.bounds[i - 1] };
                let upper = self.bounds[i];
                let into = (rank - seen as f64) / c as f64;
                return lower + (upper - lower) * into.clamp(0.0, 1.0);
            }
            seen = next;
        }
        self.bounds.last().copied().unwrap_or(f64::INFINITY)
    }
}

/// A fixed-bucket histogram handle.
#[derive(Clone)]
pub struct Histogram(Arc<Mutex<HistCore>>);

impl Histogram {
    /// Record one observation.
    pub fn observe(&self, v: f64) {
        let mut h = self.0.lock().unwrap();
        let i = h.bounds.iter().position(|&b| v <= b).unwrap_or(h.bounds.len());
        h.counts[i] += 1;
        h.sum += v;
        h.count += 1;
    }

    /// Record one observation and remember its trace id as the owning
    /// bucket's exemplar (last writer wins — a bucket always points at
    /// the most recent trace that landed in it).
    pub fn observe_with_exemplar(&self, v: f64, trace_id: u64) {
        let mut h = self.0.lock().unwrap();
        let i = h.bounds.iter().position(|&b| v <= b).unwrap_or(h.bounds.len());
        h.counts[i] += 1;
        h.exemplars[i] = Some(Exemplar { trace_id, value: v });
        h.sum += v;
        h.count += 1;
    }

    /// Total observations.
    pub fn count(&self) -> u64 {
        self.0.lock().unwrap().count
    }

    /// Sum of all observations.
    pub fn sum(&self) -> f64 {
        self.0.lock().unwrap().sum
    }

    /// Estimate the `q`-quantile (`0.0..=1.0`) from the buckets, linearly
    /// interpolated inside the owning bucket — the same estimate
    /// `histogram_quantile` would produce. Returns 0.0 when empty;
    /// observations in the `+Inf` bucket clamp to the largest finite bound.
    pub fn quantile(&self, q: f64) -> f64 {
        self.0.lock().unwrap().quantile(q)
    }
}

enum Series {
    Counter(Arc<AtomicU64>),
    Gauge(Arc<AtomicU64>),
    Histogram(Arc<Mutex<HistCore>>),
}

struct Family {
    help: String,
    series: BTreeMap<LabelSet, Series>,
}

type CollectorFn = Box<dyn Fn(&mut Rows<'_>) + Send + Sync>;

struct RegistryInner {
    clock: SimClock,
    families: Mutex<BTreeMap<String, Family>>,
    collectors: Mutex<Vec<CollectorFn>>,
}

/// The shared metrics registry. Cheap to clone; all clones view the same
/// instruments.
#[derive(Clone)]
pub struct Registry {
    inner: Arc<RegistryInner>,
}

impl Registry {
    /// Create a registry on the simulation clock.
    pub fn new(clock: SimClock) -> Self {
        Self {
            inner: Arc::new(RegistryInner {
                clock,
                families: Mutex::new(BTreeMap::new()),
                collectors: Mutex::new(Vec::new()),
            }),
        }
    }

    /// The registry's clock.
    pub fn clock(&self) -> &SimClock {
        &self.inner.clock
    }

    /// Current virtual time.
    pub fn now(&self) -> Timestamp {
        self.inner.clock.now()
    }

    /// Get or create a counter. Panics if `name` already holds a different
    /// instrument kind — mixing kinds under one name is a programming error.
    pub fn counter(&self, name: &str, help: &str, labels: LabelSet) -> Counter {
        let mut families = self.inner.families.lock().unwrap();
        let fam = families
            .entry(name.to_string())
            .or_insert_with(|| Family { help: help.to_string(), series: BTreeMap::new() });
        let cell = fam
            .series
            .entry(labels)
            .or_insert_with(|| Series::Counter(Arc::new(AtomicU64::new(0))));
        match cell {
            Series::Counter(c) => Counter(c.clone()),
            _ => panic!("registry: {name} is not a counter"),
        }
    }

    /// Get or create a gauge.
    pub fn gauge(&self, name: &str, help: &str, labels: LabelSet) -> Gauge {
        let mut families = self.inner.families.lock().unwrap();
        let fam = families
            .entry(name.to_string())
            .or_insert_with(|| Family { help: help.to_string(), series: BTreeMap::new() });
        let cell = fam
            .series
            .entry(labels)
            .or_insert_with(|| Series::Gauge(Arc::new(AtomicU64::new(0f64.to_bits()))));
        match cell {
            Series::Gauge(g) => Gauge(g.clone()),
            _ => panic!("registry: {name} is not a gauge"),
        }
    }

    /// Get or create a histogram with the given finite bucket bounds
    /// (strictly increasing; `+Inf` is implicit).
    pub fn histogram(&self, name: &str, help: &str, labels: LabelSet, bounds: &[f64]) -> Histogram {
        assert!(
            bounds.windows(2).all(|w| w[0] < w[1]) && !bounds.is_empty(),
            "histogram bounds must be non-empty and strictly increasing"
        );
        let mut families = self.inner.families.lock().unwrap();
        let fam = families
            .entry(name.to_string())
            .or_insert_with(|| Family { help: help.to_string(), series: BTreeMap::new() });
        let cell = fam.series.entry(labels).or_insert_with(|| {
            Series::Histogram(Arc::new(Mutex::new(HistCore {
                bounds: bounds.to_vec(),
                les: Vec::new(),
                counts: vec![0; bounds.len() + 1],
                exemplars: vec![None; bounds.len() + 1],
                sum: 0.0,
                count: 0,
            })))
        });
        match cell {
            Series::Histogram(h) => Histogram(h.clone()),
            _ => panic!("registry: {name} is not a histogram"),
        }
    }

    /// Register a collector: a closure that reads some external stats
    /// source (e.g. `bus::TopicStats`) and writes its families' rows
    /// into [`Rows`] whenever the registry is read. This is how
    /// pre-existing ad-hoc counters are absorbed without rewriting their
    /// owners.
    pub fn register_collector(&self, f: impl Fn(&mut Rows<'_>) + Send + Sync + 'static) {
        self.inner.collectors.lock().unwrap().push(Box::new(f));
    }

    /// Read every instrument and collector into `sink`, once: the
    /// instruments in name order under the families lock (each counter
    /// or gauge family started once, its series in label order; a
    /// histogram series writes its five families under its own guard),
    /// then the collectors, in registration order, after that lock drops.
    /// A name may be started more than once; a sink that wants one family
    /// per name merges them.
    pub fn visit(&self, sink: &mut impl Sink) {
        {
            let families = self.inner.families.lock().unwrap();
            for (name, fam) in families.iter() {
                // The kind of the family started last, while no histogram
                // has interrupted it.
                let mut open = None;
                for (labels, series) in fam.series.iter() {
                    let (kind, value) = match series {
                        Series::Counter(c) => {
                            (InstrumentKind::Counter, c.load(Ordering::Relaxed) as f64)
                        }
                        Series::Gauge(g) => {
                            (InstrumentKind::Gauge, f64::from_bits(g.load(Ordering::Relaxed)))
                        }
                        Series::Histogram(h) => {
                            visit_histogram(sink, name, &fam.help, labels, h);
                            open = None;
                            continue;
                        }
                    };
                    if open != Some(kind) {
                        sink.family(name, "", &fam.help, kind);
                        open = Some(kind);
                    }
                    sink.sample(Labels::set(labels), value, None);
                }
            }
        }

        let collectors = self.inner.collectors.lock().unwrap();
        for c in collectors.iter() {
            c(&mut Rows::new(sink));
        }
    }

    /// Snapshot every instrument and collector into a deterministic,
    /// name-sorted list of families (samples sorted by label set).
    /// Histograms expand to `_bucket` (cumulative, `le` labelled),
    /// `_sum`, `_count`, `_p50` and `_p99` families.
    pub fn gather(&self) -> Vec<FamilySnapshot> {
        let mut gathered = Gather::default();
        self.visit(&mut gathered);
        let mut families: Vec<FamilySnapshot> = gathered.out.into_values().collect();
        for f in &mut families {
            f.samples.sort_by(|a, b| a.labels.cmp(&b.labels));
        }
        families
    }
}

/// What one traversal of a registry ([`Registry::visit`]) writes into.
pub trait Sink {
    /// A family starts, or continues if this name was started before: the
    /// samples until the next call are its. The family's name is `name`
    /// followed by `suffix` (a histogram expansion's, else empty).
    fn family(&mut self, name: &str, suffix: &str, help: &str, kind: InstrumentKind);

    /// One sample of the family started last, with the exemplar of the
    /// histogram bucket it reads, if that bucket has one.
    fn sample(&mut self, labels: Labels<'_>, value: f64, exemplar: Option<Exemplar>);
}

/// A sample's labels as a traversal hands them to a [`Sink`], borrowed:
/// an instrument's label set or a collector's pairs, plus at most one more
/// pair (a bucket's `le`), all read in key order.
#[derive(Clone, Copy)]
pub struct Labels<'a> {
    pairs: Pairs<'a>,
    /// Placed in key order; it replaces a pair with the same key.
    extra: Option<(&'a str, &'a str)>,
}

#[derive(Clone, Copy)]
enum Pairs<'a> {
    Set(&'a LabelSet),
    /// Sorted by key.
    Slice(&'a [(&'a str, &'a str)]),
}

impl<'a> Labels<'a> {
    /// A series' label set.
    pub(crate) fn set(labels: &'a LabelSet) -> Self {
        Self { pairs: Pairs::Set(labels), extra: None }
    }

    /// Pairs already in key order.
    pub(crate) fn pairs(pairs: &'a [(&'a str, &'a str)]) -> Self {
        Self { pairs: Pairs::Slice(pairs), extra: None }
    }

    /// These labels with `(key, value)` added in key order.
    pub(crate) fn with(self, key: &'a str, value: &'a str) -> Self {
        Self { extra: Some((key, value)), ..self }
    }

    /// Call `f` on every pair, in key order.
    pub fn for_each(&self, f: impl FnMut(&'a str, &'a str)) {
        match self.pairs {
            Pairs::Set(set) => merge(set.iter(), self.extra, f),
            Pairs::Slice(slice) => merge(slice.iter().copied(), self.extra, f),
        }
    }

    /// The pairs as an owned label set.
    pub(crate) fn to_set(self) -> LabelSet {
        let mut pairs = Vec::new();
        self.for_each(|k, v| pairs.push((k, v)));
        LabelSet::from_pairs(pairs)
    }
}

/// `pairs` (sorted by key) with `extra` placed in key order, replacing a
/// pair with its key.
fn merge<'a>(
    pairs: impl Iterator<Item = (&'a str, &'a str)>,
    mut extra: Option<(&'a str, &'a str)>,
    mut f: impl FnMut(&'a str, &'a str),
) {
    for (k, v) in pairs {
        if let Some((ek, ev)) = extra.filter(|&(ek, _)| ek <= k) {
            f(ek, ev);
            extra = None;
            if ek == k {
                continue;
            }
        }
        f(k, v);
    }
    if let Some((ek, ev)) = extra {
        f(ek, ev);
    }
}

/// The sink behind [`Registry::gather`]: one snapshot per name, in name
/// order, the first start of a name giving its help and kind.
#[derive(Default)]
struct Gather {
    out: BTreeMap<String, FamilySnapshot>,
    open: String,
}

impl Sink for Gather {
    fn family(&mut self, name: &str, suffix: &str, help: &str, kind: InstrumentKind) {
        self.open.clear();
        self.open.push_str(name);
        self.open.push_str(suffix);
        if !self.out.contains_key(&self.open) {
            self.out.insert(self.open.clone(), FamilySnapshot::new(&self.open, help, kind));
        }
    }

    fn sample(&mut self, labels: Labels<'_>, value: f64, exemplar: Option<Exemplar>) {
        let fam = self.out.get_mut(&self.open).expect("a sample follows its family");
        let labels = labels.to_set();
        if let Some(ex) = exemplar {
            fam.exemplars.push((labels.clone(), ex));
        }
        fam.push(labels, value);
    }
}

/// Read one histogram series into its five families, all under a single
/// guard: on the `Sync` registry a concurrent `observe` must not make
/// `_p50`/`_p99` describe a different population than `_count`/`_bucket`
/// on the same page. Buckets go by ascending bound, `+Inf` last.
fn visit_histogram(
    sink: &mut impl Sink,
    name: &str,
    help: &str,
    labels: &LabelSet,
    cell: &Arc<Mutex<HistCore>>,
) {
    let mut h = cell.lock().unwrap();
    if h.les.is_empty() {
        h.les = h.bounds.iter().map(|&b| format_bound(b)).chain(["+Inf".into()]).collect();
    }
    let [(bucket, bucket_kind), rest @ ..] = HISTOGRAM_EXPANSION;
    sink.family(name, bucket, help, bucket_kind);
    let mut cumulative = 0u64;
    for ((&count, le), &exemplar) in h.counts.iter().zip(&h.les).zip(&h.exemplars) {
        cumulative += count;
        sink.sample(Labels::set(labels).with("le", le), cumulative as f64, exemplar);
    }
    let values = [h.sum, h.count as f64, h.quantile(0.50), h.quantile(0.99)];
    for ((suffix, kind), value) in rest.into_iter().zip(values) {
        sink.family(name, suffix, help, kind);
        sink.sample(Labels::set(labels), value, None);
    }
}

/// Render a bucket bound the way Prometheus does: integral bounds without
/// a trailing `.0` would be ambiguous, so keep one decimal form stable.
fn format_bound(b: f64) -> String {
    if b == b.trunc() {
        format!("{b:.1}")
    } else {
        format!("{b}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use omni_model::labels;

    fn reg() -> Registry {
        Registry::new(SimClock::new())
    }

    #[test]
    fn counter_identity_is_name_plus_labels() {
        let r = reg();
        let a = r.counter("omni_x_total", "X.", labels!("t" => "a"));
        let a2 = r.counter("omni_x_total", "X.", labels!("t" => "a"));
        let b = r.counter("omni_x_total", "X.", labels!("t" => "b"));
        a.inc();
        a2.add(2);
        b.inc();
        assert_eq!(a.get(), 3);
        assert_eq!(b.get(), 1);
        let g = r.gather();
        assert_eq!(g.len(), 1);
        assert_eq!(g[0].samples.len(), 2);
        assert_eq!(g[0].samples[0].value, 3.0); // t="a" sorts first
    }

    #[test]
    fn gauge_holds_floats() {
        let r = reg();
        let g = r.gauge("omni_depth", "Depth.", LabelSet::new());
        g.set(2.5);
        assert_eq!(g.get(), 2.5);
        g.set(0.0);
        assert_eq!(g.get(), 0.0);
    }

    #[test]
    #[should_panic(expected = "is not a gauge")]
    fn kind_mismatch_panics() {
        let r = reg();
        let _ = r.counter("omni_x", "X.", LabelSet::new());
        let _ = r.gauge("omni_x", "X.", LabelSet::new());
    }

    #[test]
    fn histogram_buckets_and_quantiles() {
        let r = reg();
        let h = r.histogram("omni_lat_seconds", "Lat.", LabelSet::new(), &[1.0, 10.0, 100.0]);
        for v in [0.5, 0.6, 5.0, 50.0] {
            h.observe(v);
        }
        assert_eq!(h.count(), 4);
        assert_eq!(h.sum(), 56.1);
        // p50: rank 2.0 lands in the first bucket (2 obs ≤ 1.0).
        assert_eq!(h.quantile(0.5), 1.0);
        // p99 lands in the (10,100] bucket.
        assert!(h.quantile(0.99) > 10.0 && h.quantile(0.99) <= 100.0);

        let g = r.gather();
        let names: Vec<&str> = g.iter().map(|f| f.name.as_str()).collect();
        assert_eq!(
            names,
            vec![
                "omni_lat_seconds_bucket",
                "omni_lat_seconds_count",
                "omni_lat_seconds_p50",
                "omni_lat_seconds_p99",
                "omni_lat_seconds_sum"
            ]
        );
        let bucket = &g[0];
        // Cumulative counts: ≤1 → 2, ≤10 → 3, ≤100 → 4, +Inf → 4.
        let values: Vec<f64> = bucket.samples.iter().map(|s| s.value).collect();
        let les: Vec<&str> = bucket.samples.iter().map(|s| s.labels.get("le").unwrap()).collect();
        assert!(les.contains(&"+Inf"));
        assert_eq!(values.iter().cloned().fold(0.0, f64::max), 4.0);
    }

    #[test]
    fn histogram_inf_bucket_clamps_quantile() {
        let r = reg();
        let h = r.histogram("omni_big", "Big.", LabelSet::new(), &[1.0]);
        h.observe(1e9);
        assert_eq!(h.quantile(0.99), 1.0); // clamped to largest finite bound
    }

    #[test]
    fn quantile_on_empty_histogram_is_zero() {
        let r = reg();
        let h = r.histogram("omni_empty", "E.", LabelSet::new(), &[1.0, 2.0]);
        for q in [0.0, 0.5, 0.99, 1.0] {
            assert_eq!(h.quantile(q), 0.0, "q={q}");
        }
        // Gather still expands the empty histogram deterministically.
        let g = r.gather();
        let p99 = g.iter().find(|f| f.name == "omni_empty_p99").unwrap();
        assert_eq!(p99.samples[0].value, 0.0);
    }

    #[test]
    fn quantile_with_only_overflow_observations() {
        let r = reg();
        let h = r.histogram("omni_over", "O.", LabelSet::new(), &[1.0, 5.0]);
        // Every observation beyond the largest finite bound: all quantiles
        // clamp to that bound rather than reporting +Inf or garbage.
        for _ in 0..10 {
            h.observe(1e6);
        }
        assert_eq!(h.quantile(0.5), 5.0);
        assert_eq!(h.quantile(0.99), 5.0);
        assert_eq!(h.quantile(1.0), 5.0);
        assert_eq!(h.count(), 10);
    }

    #[test]
    fn gathered_quantiles_agree_with_the_handle() {
        // `_p50`/`_p99` are estimated inside the same snapshot that
        // yields `_count`/`_bucket`; `Histogram::quantile` wraps the same
        // estimator, so the two must agree case by case.
        let cases: [(&str, &[f64], &[f64]); 4] = [
            ("empty", &[1.0, 2.0], &[]),
            ("single_bucket", &[1.0, 2.0], &[0.5, 0.7]),
            ("interpolated", &[1.0, 10.0, 100.0], &[0.5, 0.6, 5.0, 50.0, 60.0]),
            ("inf_clamped", &[1.0, 5.0], &[0.5, 1e6, 1e6, 1e6]),
        ];
        for (case, bounds, observations) in cases {
            let r = reg();
            let h = r.histogram("omni_q", "Q.", LabelSet::new(), bounds);
            for &v in observations {
                h.observe(v);
            }
            let g = r.gather();
            let value =
                |name: &str| g.iter().find(|f| f.name == name).expect("expanded").samples[0].value;
            assert_eq!(value("omni_q_p50"), h.quantile(0.50), "{case}");
            assert_eq!(value("omni_q_p99"), h.quantile(0.99), "{case}");
            assert_eq!(value("omni_q_count"), observations.len() as f64, "{case}");
        }
        // Spot values so agreement is not two wrongs: rank 2.5 of 5 sits
        // halfway into the (1,10] bucket; the all-overflow tail clamps.
        let r = reg();
        let h = r.histogram("omni_q", "Q.", LabelSet::new(), &[1.0, 10.0, 100.0]);
        for v in [0.5, 0.6, 5.0, 50.0, 60.0] {
            h.observe(v);
        }
        assert_eq!(h.quantile(0.50), 5.5);
    }

    #[test]
    fn exemplars_ride_their_buckets() {
        let r = reg();
        let h = r.histogram("omni_lat_seconds", "Lat.", LabelSet::new(), &[1.0, 10.0]);
        h.observe(0.2); // no exemplar
        h.observe_with_exemplar(0.5, 0xabc);
        h.observe_with_exemplar(0.7, 0xdef); // replaces 0xabc in the ≤1.0 bucket
        h.observe_with_exemplar(42.0, 0xbeef); // +Inf bucket
        let g = r.gather();
        let bucket = g.iter().find(|f| f.name == "omni_lat_seconds_bucket").unwrap();
        assert_eq!(bucket.exemplars.len(), 2);
        let by_le: Vec<(&str, u64, f64)> = bucket
            .exemplars
            .iter()
            .map(|(ls, ex)| (ls.get("le").unwrap(), ex.trace_id, ex.value))
            .collect();
        assert_eq!(by_le, vec![("1.0", 0xdef, 0.7), ("+Inf", 0xbeef, 42.0)]);
        // Non-bucket families carry no exemplars.
        for f in g.iter().filter(|f| f.name != "omni_lat_seconds_bucket") {
            assert!(f.exemplars.is_empty(), "{}", f.name);
        }
    }

    #[test]
    fn collectors_are_absorbed_and_merged() {
        let r = reg();
        let c = r.counter("omni_direct_total", "Direct.", LabelSet::new());
        c.inc();
        r.register_collector(|rows| {
            rows.sample(&crate::families::BUS_MESSAGES_IN, &[("topic", "t1")], 7.0);
        });
        let g = r.gather();
        assert_eq!(g.len(), 2);
        assert_eq!(g[0].name, "omni_bus_messages_in_total");
        assert_eq!(g[0].samples[0].value, 7.0);
        assert_eq!(g[1].name, "omni_direct_total");
    }

    #[test]
    fn labels_place_the_extra_pair_in_key_order() {
        let read = |l: Labels<'_>| {
            let mut out = Vec::new();
            l.for_each(|k, v| out.push(format!("{k}={v}")));
            out.join(",")
        };
        let set = labels!("a" => "1", "m" => "2", "z" => "3");
        assert_eq!(read(Labels::set(&set).with("le", "0.5")), "a=1,le=0.5,m=2,z=3");
        assert_eq!(read(Labels::set(&set).with("0", "x")), "0=x,a=1,m=2,z=3");
        assert_eq!(read(Labels::set(&set).with("zz", "x")), "a=1,m=2,z=3,zz=x");
        // A pair with the extra's key is replaced, as `LabelSet::insert` does.
        assert_eq!(
            read(Labels::pairs(&[("le", "old"), ("x", "1")]).with("le", "+Inf")),
            "le=+Inf,x=1"
        );
        assert_eq!(read(Labels::pairs(&[]).with("le", "1.0")), "le=1.0");
        let mut with_le = set.clone();
        with_le.insert("le", "0.5");
        assert_eq!(Labels::set(&set).with("le", "0.5").to_set(), with_le);
    }

    #[test]
    fn exemplars_of_every_series_are_gathered() {
        // Two series of one histogram merge into one `_bucket` family;
        // the second series' exemplars ride along with the first's.
        let r = reg();
        for (tenant, trace) in [("a", 0xa), ("b", 0xb)] {
            r.histogram("omni_h", "H.", labels!("tenant" => tenant), &[1.0])
                .observe_with_exemplar(0.5, trace);
        }
        let g = r.gather();
        let bucket = g.iter().find(|f| f.name == "omni_h_bucket").unwrap();
        let traces: Vec<u64> = bucket.exemplars.iter().map(|(_, ex)| ex.trace_id).collect();
        assert_eq!(traces, [0xa, 0xb]);
    }

    #[test]
    fn gather_is_deterministic() {
        let build = || {
            let r = reg();
            for t in ["b", "a", "c"] {
                r.counter("omni_m_total", "M.", labels!("t" => t)).add(t.len() as u64);
            }
            r.histogram("omni_h", "H.", LabelSet::new(), DEFAULT_LATENCY_BUCKETS).observe(3.0);
            format!("{:?}", r.gather())
        };
        assert_eq!(build(), build());
    }
}
