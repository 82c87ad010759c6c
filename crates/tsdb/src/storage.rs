//! Series storage: label-indexed, Gorilla-compressed, sharded for
//! parallel ingest.

use crate::gorilla::{GorillaBlock, GorillaEncoder};
use omni_logql::Selector;
use omni_model::{LabelSet, MetricRecord, Sample, Timestamp};
use parking_lot::RwLock;
use std::collections::{BTreeMap, BTreeSet, HashMap};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Storage configuration.
#[derive(Debug, Clone)]
pub struct TsdbConfig {
    /// Shards for parallel ingest.
    pub shards: usize,
    /// Seal a series' open encoder after this many samples.
    pub block_max_samples: usize,
    /// Retention horizon in nanoseconds.
    pub retention_ns: i64,
}

impl Default for TsdbConfig {
    fn default() -> Self {
        Self {
            shards: 4,
            block_max_samples: 4_096,
            retention_ns: 2 * 365 * 86_400 * 1_000_000_000, // two years, like OMNI
        }
    }
}

struct SeriesData {
    labels: LabelSet,
    open: GorillaEncoder,
    open_newest: Timestamp,
    blocks: Vec<GorillaBlock>,
}

impl SeriesData {
    fn samples_in(&self, start: Timestamp, end: Timestamp) -> Vec<Sample> {
        let mut out = Vec::new();
        for b in &self.blocks {
            if b.overlaps(start, end) {
                out.extend(b.decode_range(start, end));
            }
        }
        // Open encoder: decode via a temporary seal-free path. Samples in
        // the encoder are also mirrored in `recent` for cheap reads.
        out
    }
}

struct Shard {
    /// fingerprint → series.
    series: HashMap<u64, SeriesData>,
    /// Mirror of each series' open (unsealed) samples for cheap reads.
    recent: HashMap<u64, Vec<Sample>>,
    /// (name, value) → fingerprints.
    postings: BTreeMap<(String, String), BTreeSet<u64>>,
}

impl Shard {
    fn new() -> Self {
        Self { series: HashMap::new(), recent: HashMap::new(), postings: BTreeMap::new() }
    }

    fn candidates(&self, selector: &Selector) -> Vec<u64> {
        let mut result: Option<BTreeSet<u64>> = None;
        for (name, value) in selector.equality_matchers() {
            let set = self
                .postings
                .get(&(name.to_string(), value.to_string()))
                .cloned()
                .unwrap_or_default();
            result = Some(match result {
                None => set,
                Some(prev) => prev.intersection(&set).copied().collect(),
            });
        }
        match result {
            Some(set) => set.into_iter().collect(),
            None => {
                // No equality matcher constrains the set: all series, in
                // stable fingerprint order.
                let mut fps: Vec<u64> = self.series.keys().copied().collect();
                fps.sort_unstable();
                fps
            }
        }
    }
}

/// The time-series store ("we send metrics to Victoriametrics, the time
/// series database").
#[derive(Clone)]
pub struct Tsdb {
    shards: Arc<Vec<RwLock<Shard>>>,
    config: TsdbConfig,
    samples_ingested: Arc<AtomicU64>,
}

impl Tsdb {
    /// Create a store.
    pub fn new(config: TsdbConfig) -> Self {
        assert!(config.shards > 0);
        Self {
            shards: Arc::new((0..config.shards).map(|_| RwLock::new(Shard::new())).collect()),
            config,
            samples_ingested: Arc::new(AtomicU64::new(0)),
        }
    }

    /// Default-config store.
    pub fn default_config() -> Self {
        Self::new(TsdbConfig::default())
    }

    /// Ingest one metric record. Samples must be (per-series)
    /// non-decreasing in time; older samples are silently dropped like
    /// most TSDBs' out-of-order policy.
    pub fn ingest(&self, record: &MetricRecord) {
        let fp = record.labels.fingerprint();
        let shard = &self.shards[(fp % self.shards.len() as u64) as usize];
        let mut sh = shard.write();
        if !sh.series.contains_key(&fp) {
            // New series: create and index its labels.
            for (k, v) in record.labels.iter() {
                sh.postings.entry((k.to_string(), v.to_string())).or_default().insert(fp);
            }
            sh.series.insert(
                fp,
                SeriesData {
                    labels: record.labels.clone(),
                    open: GorillaEncoder::new(),
                    open_newest: i64::MIN,
                    blocks: Vec::new(),
                },
            );
        }
        let series = sh.series.get_mut(&fp).unwrap();
        if record.sample.ts < series.open_newest {
            return; // out of order: drop
        }
        series.open_newest = record.sample.ts;
        series.open.append(record.sample);
        let must_seal = series.open.len() >= self.config.block_max_samples;
        if must_seal {
            let enc = std::mem::take(&mut series.open);
            series.blocks.push(enc.finish());
            sh.recent.remove(&fp);
        } else {
            sh.recent.entry(fp).or_default().push(record.sample);
        }
        self.samples_ingested.fetch_add(1, Ordering::Relaxed);
    }

    /// Convenience: ingest a named sample.
    pub fn ingest_sample(&self, name: &str, labels: LabelSet, ts: Timestamp, value: f64) {
        self.ingest(&MetricRecord::new(name, labels, ts, value));
    }

    /// All series matching `selector` with their samples in `(start, end]`.
    pub fn query_series(
        &self,
        selector: &Selector,
        start: Timestamp,
        end: Timestamp,
    ) -> Vec<(LabelSet, Vec<Sample>)> {
        let mut out = Vec::new();
        for shard in self.shards.iter() {
            let sh = shard.read();
            for fp in sh.candidates(selector) {
                let Some(series) = sh.series.get(&fp) else { continue };
                if !selector.matches(&series.labels) {
                    continue;
                }
                let mut samples = series.samples_in(start, end);
                if let Some(recent) = sh.recent.get(&fp) {
                    // `ingest` drops anything older than the series'
                    // newest sample, so `recent` is non-decreasing:
                    // `(start, end]` is a slice, not a filter.
                    let lo = recent.partition_point(|s| s.ts <= start);
                    let hi = recent.partition_point(|s| s.ts <= end);
                    samples.extend_from_slice(&recent[lo..hi.max(lo)]);
                }
                // Sealed blocks in seal order, then the open samples: the
                // same guarantee makes the concatenation ascending.
                debug_assert!(samples.windows(2).all(|w| w[0].ts <= w[1].ts));
                if !samples.is_empty() {
                    out.push((series.labels.clone(), samples));
                }
            }
        }
        out.sort_by(|a, b| a.0.cmp(&b.0));
        out
    }

    /// Latest sample at or before `at` within a lookback window, per
    /// matching series (the PromQL instant-vector semantics).
    pub fn query_instant(
        &self,
        selector: &Selector,
        at: Timestamp,
        lookback_ns: i64,
    ) -> Vec<(LabelSet, Sample)> {
        self.query_series(selector, at.saturating_sub(lookback_ns), at)
            .into_iter()
            .filter_map(|(labels, samples)| samples.last().map(|&s| (labels, s)))
            .collect()
    }

    /// Drop blocks past retention. Returns blocks dropped.
    pub fn enforce_retention(&self, now: Timestamp) -> usize {
        let horizon = now.saturating_sub(self.config.retention_ns);
        let mut dropped = 0;
        for shard in self.shards.iter() {
            let mut sh = shard.write();
            // Per-series retain plus a count sum: order-insensitive.
            // lint:allow(nondet-iter)
            for series in sh.series.values_mut() {
                let before = series.blocks.len();
                series.blocks.retain(|b| b.max_ts >= horizon);
                dropped += before - series.blocks.len();
            }
        }
        dropped
    }

    /// Total samples ingested.
    pub fn samples_ingested(&self) -> u64 {
        self.samples_ingested.load(Ordering::Relaxed)
    }

    /// Active series count.
    pub fn series_count(&self) -> usize {
        self.shards.iter().map(|s| s.read().series.len()).sum()
    }

    /// Compressed bytes across sealed blocks.
    pub fn compressed_bytes(&self) -> usize {
        self.shards
            .iter()
            .map(|s| {
                s.read()
                    .series
                    .values()
                    .flat_map(|ser| ser.blocks.iter())
                    .map(|b| b.compressed_size())
                    .sum::<usize>()
            })
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use omni_logql::parse_selector;
    use omni_model::labels;

    fn store() -> Tsdb {
        Tsdb::new(TsdbConfig { shards: 2, block_max_samples: 8, ..Default::default() })
    }

    #[test]
    fn ingest_and_query() {
        let db = store();
        for i in 0..20 {
            db.ingest_sample("node_temp", labels!("node" => "x1"), i * 10, 40.0 + i as f64);
        }
        let sel = parse_selector(r#"{__name__="node_temp", node="x1"}"#).unwrap();
        let series = db.query_series(&sel, -1, 1_000);
        assert_eq!(series.len(), 1);
        assert_eq!(series[0].1.len(), 20);
        // Sorted and contiguous across sealed blocks and the open head.
        assert!(series[0].1.windows(2).all(|w| w[0].ts < w[1].ts));
    }

    #[test]
    fn instant_returns_latest_in_lookback() {
        let db = store();
        db.ingest_sample("up", labels!("job" => "a"), 100, 1.0);
        db.ingest_sample("up", labels!("job" => "a"), 200, 0.0);
        let sel = parse_selector(r#"{__name__="up"}"#).unwrap();
        let v = db.query_instant(&sel, 250, 100);
        assert_eq!(v.len(), 1);
        assert_eq!(v[0].1.value, 0.0);
        // Outside lookback: empty.
        assert!(db.query_instant(&sel, 1_000, 100).is_empty());
    }

    #[test]
    fn out_of_order_samples_dropped() {
        let db = store();
        db.ingest_sample("m", labels!("a" => "1"), 100, 1.0);
        db.ingest_sample("m", labels!("a" => "1"), 50, 2.0);
        let sel = parse_selector(r#"{__name__="m"}"#).unwrap();
        let series = db.query_series(&sel, -1, 1_000);
        assert_eq!(series[0].1.len(), 1);
        assert_eq!(db.samples_ingested(), 1);
    }

    #[test]
    fn selector_filters_series() {
        let db = store();
        db.ingest_sample("m", labels!("node" => "x1"), 1, 1.0);
        db.ingest_sample("m", labels!("node" => "x2"), 1, 2.0);
        db.ingest_sample("other", labels!("node" => "x1"), 1, 3.0);
        let sel = parse_selector(r#"{__name__="m", node=~"x.*"}"#).unwrap();
        let series = db.query_series(&sel, -1, 10);
        assert_eq!(series.len(), 2);
    }

    #[test]
    fn blocks_seal_and_remain_queryable() {
        let db = store(); // seals every 8 samples
        for i in 0..50 {
            db.ingest_sample("m", labels!("a" => "1"), i, i as f64);
        }
        assert!(db.compressed_bytes() > 0);
        let sel = parse_selector(r#"{__name__="m"}"#).unwrap();
        assert_eq!(db.query_series(&sel, -1, 100)[0].1.len(), 50);
    }

    #[test]
    fn open_samples_are_sliced_to_the_half_open_range() {
        // 4 000 open samples behind one sealed block of 4 096: for bounds
        // before / inside / between / after the data, `query_series`
        // returns exactly the `(start, end]` samples — what filtering
        // every sample and sorting (the previous implementation) returned.
        let db = Tsdb::new(TsdbConfig { shards: 1, ..Default::default() });
        let all: Vec<Sample> = (0..4_096 + 4_000)
            // Timestamps repeat in pairs: bounds land on runs of equal ts.
            .map(|i| Sample::new((i / 2) * 10, i as f64))
            .collect();
        for s in &all {
            db.ingest_sample("m", labels!("a" => "1"), s.ts, s.value);
        }
        assert!(db.compressed_bytes() > 0, "one block sealed");
        let sel = parse_selector(r#"{__name__="m"}"#).unwrap();
        let newest = all.last().unwrap().ts;
        let open_from = all[4_096].ts;
        for (start, end) in [
            (i64::MIN, -1),                      // all before the data
            (-1, newest),                        // everything
            (-1, open_from - 10),                // sealed block only
            (open_from - 10, open_from + 500),   // across the seal boundary
            (open_from + 15, open_from + 1_005), // inside the open samples, off-sample bounds
            (open_from + 20, open_from + 20),    // empty: start == end
            (open_from + 30, open_from + 20),    // empty: start > end
            (newest - 10, i64::MAX),             // the tail
            (newest, i64::MAX),                  // after the data
        ] {
            let expected: Vec<Sample> =
                all.iter().copied().filter(|s| s.ts > start && s.ts <= end).collect();
            let got = db.query_series(&sel, start, end);
            match got.as_slice() {
                [] => assert!(expected.is_empty(), "({start}, {end}]"),
                [(_, samples)] => assert_eq!(samples, &expected, "({start}, {end}]"),
                _ => panic!("one series"),
            }
        }
    }

    #[test]
    fn retention_drops_old_blocks() {
        let db = Tsdb::new(TsdbConfig { shards: 1, block_max_samples: 4, retention_ns: 100 });
        for i in 0..20 {
            db.ingest_sample("m", labels!("a" => "1"), i * 10, 1.0);
        }
        let dropped = db.enforce_retention(1_000);
        assert!(dropped > 0);
    }

    #[test]
    fn sentinel_timestamps_do_not_overflow() {
        // Regression: `at - lookback_ns` / `now - retention_ns` used to
        // overflow in debug builds with sentinel timestamps.
        let db = store();
        db.ingest_sample("up", labels!("job" => "a"), 100, 1.0);
        let sel = parse_selector(r#"{__name__="up"}"#).unwrap();
        assert!(db.query_instant(&sel, i64::MIN, 100).is_empty());
        assert_eq!(db.query_instant(&sel, i64::MAX, i64::MAX).len(), 1);
        assert_eq!(db.enforce_retention(i64::MIN), 0);
    }

    #[test]
    fn concurrent_ingest() {
        let db = Tsdb::new(TsdbConfig { shards: 4, ..Default::default() });
        std::thread::scope(|s| {
            for t in 0..8 {
                let db = db.clone();
                s.spawn(move || {
                    for i in 0..1_000 {
                        db.ingest_sample("m", labels!("t" => format!("{t}")), i, 1.0);
                    }
                });
            }
        });
        assert_eq!(db.samples_ingested(), 8_000);
        assert_eq!(db.series_count(), 8);
    }
}
