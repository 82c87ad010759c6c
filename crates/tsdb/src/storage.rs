//! Series storage, in the shape of the log store: a series is its labels,
//! an open run of plain samples and the Gorilla blocks sealed from earlier
//! runs — what a Loki stream is with its head chunk and sealed chunks —
//! found through the label index both stores share, and sharded for
//! parallel ingest.
//!
//! A shard keeps its series in an [`omni_model::SeriesTable`], the slab
//! Loki's ingester shards keep their streams in: a series is found by
//! content, so two sets whose fingerprints collide stay two series.
//! [`Tsdb::ingest_ref`] hands back a [`SeriesRef`] to the series' slot,
//! and [`Tsdb::append_ref`] appends through it with no label work at all —
//! what vmagent's scrape cache does for a series it has seen. Retention
//! frees a retired series' slot under a new generation, so a ref to it is
//! refused, never written into whatever reuses the slot.

use crate::gorilla::{GorillaBlock, GorillaEncoder};
use omni_logql::Selector;
use omni_model::{LabelSet, MetricRecord, Sample, SeriesId, SeriesTable, Timestamp};
use parking_lot::RwLock;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Storage configuration.
#[derive(Debug, Clone)]
pub struct TsdbConfig {
    /// Shards for parallel ingest.
    pub shards: usize,
    /// Seal a series' open run into a Gorilla block at this many samples.
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
    /// Samples since the last seal, non-decreasing in time: what alert
    /// rules and panels read every cycle, so kept plain.
    open: Vec<Sample>,
    /// Newest timestamp accepted; outlives the seal that empties `open`.
    newest: Timestamp,
    /// Sealed runs, oldest first.
    blocks: Vec<GorillaBlock>,
}

/// Where a series lives: its shard, and its id in the shard's table.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SeriesRef {
    shard: u32,
    series: SeriesId,
}

/// [`Tsdb::append_ref`] through a ref whose series retention retired: the
/// caller resolves the series again by its labels.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Retired;

type Shard = SeriesTable<SeriesData>;

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
            shards: Arc::new((0..config.shards).map(|_| RwLock::default()).collect()),
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
        self.ingest_ref(&record.labels, record.sample);
    }

    /// [`ingest`](Self::ingest) `sample` into the series with exactly
    /// `labels`, creating it if new, and return a reference to that
    /// series for [`append_ref`](Self::append_ref).
    pub fn ingest_ref(&self, labels: &LabelSet, sample: Sample) -> SeriesRef {
        let shard = (labels.fingerprint() % self.shards.len() as u64) as usize;
        let mut sh = self.shards[shard].write();
        let (series, data) = sh.resolve(labels, || SeriesData {
            open: Vec::new(),
            newest: i64::MIN,
            blocks: Vec::new(),
        });
        self.append(data, sample);
        SeriesRef { shard: shard as u32, series }
    }

    /// Append `sample` to the series `series` refers to, as
    /// [`ingest`](Self::ingest) would, unless retention has retired it
    /// since the ref was handed out.
    pub fn append_ref(&self, series: SeriesRef, sample: Sample) -> Result<(), Retired> {
        let mut sh = self.shards.get(series.shard as usize).ok_or(Retired)?.write();
        self.append(sh.get_mut(series.series).ok_or(Retired)?, sample);
        Ok(())
    }

    /// The one append path: the out-of-order drop, the seal at
    /// `block_max_samples`, and the count.
    fn append(&self, series: &mut SeriesData, sample: Sample) {
        if sample.ts < series.newest {
            return; // out of order: drop
        }
        series.newest = sample.ts;
        series.open.push(sample);
        if series.open.len() >= self.config.block_max_samples {
            // Taken, not drained: a series that goes quiet after a seal
            // should not pin a full run's capacity.
            let mut run = GorillaEncoder::new();
            std::mem::take(&mut series.open).into_iter().for_each(|s| run.append(s));
            series.blocks.push(run.finish());
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
            for (labels, series) in sh.candidates(selector.equality_matchers()) {
                if !selector.matches(labels) {
                    continue;
                }
                let mut samples = Vec::new();
                for b in series.blocks.iter().filter(|b| b.overlaps(start, end)) {
                    samples.extend(b.decode_range(start, end));
                }
                // `append` drops anything older than the series' newest
                // sample, so `open` is non-decreasing: `(start, end]` is a
                // slice, not a filter.
                let lo = series.open.partition_point(|s| s.ts <= start);
                let hi = series.open.partition_point(|s| s.ts <= end);
                samples.extend_from_slice(&series.open[lo..hi.max(lo)]);
                // Sealed blocks in seal order, then the open run: the same
                // guarantee makes the concatenation ascending.
                debug_assert!(samples.windows(2).all(|w| w[0].ts <= w[1].ts));
                if !samples.is_empty() {
                    out.push((labels.clone(), samples));
                }
            }
        }
        out.sort_by(|a, b| a.0.cmp(&b.0));
        out
    }

    /// Drop what is past retention, at whole-run granularity as Loki's
    /// streams do: a sealed block whose newest sample is behind the
    /// horizon, and the open run on the same predicate (or samples that
    /// never sealed would outlive retention). A series left with nothing
    /// is retired: out of the index, its slot freed under a new
    /// generation. Returns runs dropped.
    pub fn enforce_retention(&self, now: Timestamp) -> usize {
        let horizon = now.saturating_sub(self.config.retention_ns);
        let mut dropped = 0;
        for shard in self.shards.iter() {
            let mut sh = shard.write();
            let mut retired = Vec::new();
            for (id, _, s) in sh.iter_mut() {
                let before = s.blocks.len();
                s.blocks.retain(|b| b.max_ts >= horizon);
                dropped += before - s.blocks.len();
                if s.open.last().is_some_and(|newest| newest.ts < horizon) {
                    s.open.clear();
                    dropped += 1;
                }
                if s.blocks.is_empty() && s.open.is_empty() {
                    retired.push(id);
                }
            }
            for id in retired {
                sh.remove(id);
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
        self.shards.iter().map(|s| s.read().len()).sum()
    }

    /// Compressed bytes across sealed blocks.
    pub fn compressed_bytes(&self) -> usize {
        self.shards
            .iter()
            .map(|s| {
                s.read()
                    .iter()
                    .flat_map(|(_, _, ser)| ser.blocks.iter())
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

    /// PromQL's instant-vector lookup over the one read door: per matching
    /// series, the latest sample at or before `at` within the lookback.
    fn query_instant(
        db: &Tsdb,
        selector: &Selector,
        at: Timestamp,
        lookback_ns: i64,
    ) -> Vec<(LabelSet, Sample)> {
        db.query_series(selector, at.saturating_sub(lookback_ns), at)
            .into_iter()
            .filter_map(|(labels, samples)| samples.last().map(|&s| (labels, s)))
            .collect()
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
        let v = query_instant(&db, &sel, 250, 100);
        assert_eq!(v.len(), 1);
        assert_eq!(v[0].1.value, 0.0);
        // Outside lookback: empty.
        assert!(query_instant(&db, &sel, 1_000, 100).is_empty());
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
    fn equality_on_the_empty_value_matches_series_without_the_label() {
        // Regression: `slot=""` went to the label index as a posting
        // lookup, found none and answered nothing, although a missing
        // label matches `""`.
        let db = store();
        db.ingest_sample("m", labels!("job" => "x"), 1, 1.0);
        db.ingest_sample("m", labels!("job" => "x", "slot" => "3"), 1, 2.0);
        db.ingest_sample("m", labels!("job" => "y"), 1, 3.0);
        let sel = parse_selector(r#"{__name__="m", job="x", slot=""}"#).unwrap();
        let series = db.query_series(&sel, -1, 10);
        assert_eq!(series.len(), 1);
        assert_eq!(series[0].0, labels!("__name__" => "m", "job" => "x"));
    }

    #[test]
    fn series_whose_fingerprints_collide_stay_two_series() {
        // Regression: the shard map was keyed by the fingerprint alone,
        // so the second of these sets (same FNV fingerprint) landed in
        // the first's series and queried empty.
        let (a, b) = (labels!("a" => "27d9f96af16d5676"), labels!("a" => "1ba910bbd8e288a5"));
        assert_eq!(a.fingerprint(), 0x0089_67eb_bdbb_bdf0);
        assert_eq!(b.fingerprint(), a.fingerprint());
        let db = store();
        db.ingest(&MetricRecord { labels: a.clone(), sample: Sample::new(1, 1.0) });
        db.ingest(&MetricRecord { labels: b.clone(), sample: Sample::new(2, 2.0) });
        assert_eq!(db.series_count(), 2);
        let sel = parse_selector(r#"{a=~".+"}"#).unwrap();
        assert_eq!(
            db.query_series(&sel, i64::MIN, i64::MAX),
            vec![(b, vec![Sample::new(2, 2.0)]), (a, vec![Sample::new(1, 1.0)])]
        );
    }

    #[test]
    fn a_ref_to_a_retired_series_is_refused_not_reused() {
        let db = Tsdb::new(TsdbConfig { shards: 1, block_max_samples: 16, retention_ns: 100 });
        let (a, b) = (labels!("__name__" => "m", "node" => "a"), labels!("__name__" => "m"));
        let ra = db.ingest_ref(&a, Sample::new(0, 1.0));
        assert_eq!(db.append_ref(ra, Sample::new(1, 2.0)), Ok(()));
        assert_eq!(db.ingest_ref(&a, Sample::new(2, 3.0)), ra, "one series, one ref");
        assert_eq!(db.enforce_retention(1_000), 1);
        assert_eq!(db.series_count(), 0);
        // B takes A's freed slot; A's ref must not write into it.
        let rb = db.ingest_ref(&b, Sample::new(1_000, 4.0));
        assert_ne!(rb, ra);
        assert_eq!(db.append_ref(ra, Sample::new(1_001, 5.0)), Err(Retired));
        // Resolving A's labels again makes A a new series beside B.
        let ra = db.ingest_ref(&a, Sample::new(1_001, 5.0));
        assert_eq!(db.append_ref(ra, Sample::new(1_002, 6.0)), Ok(()));
        let sel = parse_selector(r#"{__name__="m"}"#).unwrap();
        assert_eq!(
            db.query_series(&sel, i64::MIN, i64::MAX),
            vec![
                (b, vec![Sample::new(1_000, 4.0)]),
                (a, vec![Sample::new(1_001, 5.0), Sample::new(1_002, 6.0)]),
            ]
        );
        assert_eq!(db.samples_ingested(), 6);
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
    fn retention_retires_a_quiet_series_open_run_and_all() {
        // Regression: only sealed blocks used to expire, so a series that
        // went quiet before its first seal kept its samples for ever and
        // stayed in the map and its copied index (`series_count() == 2`, A's
        // three samples returned).
        const DAY: i64 = 86_400 * 1_000_000_000;
        let db =
            Tsdb::new(TsdbConfig { shards: 2, block_max_samples: 16, retention_ns: 730 * DAY });
        let (a, b) = (labels!("node" => "a"), labels!("node" => "b"));
        for i in 0..3 {
            db.ingest_sample("temp", a.clone(), i, 1.0);
        }
        for day in 0..800 {
            db.ingest_sample("temp", b.clone(), day * DAY, 2.0);
        }
        // Horizon is day 70: B's first four 16-day blocks end behind it.
        assert_eq!(db.enforce_retention(800 * DAY), 4 + 1, "B's aged blocks plus A's open run");
        assert_eq!(db.series_count(), 1);
        let sel = parse_selector(r#"{__name__="temp"}"#).unwrap();
        let got = db.query_series(&sel, i64::MIN, i64::MAX);
        assert_eq!(got.len(), 1);
        assert_eq!(got[0].0.get("node"), Some("b"));
        // A retired series is a new series again, found through the index.
        db.ingest_sample("temp", a.clone(), 5, 3.0);
        assert_eq!(db.series_count(), 2);
        let sel_a = parse_selector(r#"{__name__="temp", node="a"}"#).unwrap();
        assert_eq!(db.query_series(&sel_a, i64::MIN, i64::MAX)[0].1, vec![Sample::new(5, 3.0)]);
    }

    #[test]
    fn compressed_bytes_is_the_gorilla_size_of_the_sealed_runs() {
        // C2's bytes/sample is a statement about what the store holds: the
        // same samples cut into the same runs through the encoder here.
        let db = store(); // seals every 8 samples
        let all: Vec<Sample> =
            (0..3 * 8 + 1).map(|i| Sample::new(i * 15_000, 40.0 + (i % 7) as f64 * 0.25)).collect();
        for s in &all {
            db.ingest_sample("m", labels!("a" => "1"), s.ts, s.value);
        }
        let expected: usize = all
            .chunks_exact(8)
            .map(|run| {
                let mut enc = GorillaEncoder::new();
                run.iter().for_each(|&s| enc.append(s));
                enc.finish().compressed_size()
            })
            .sum();
        assert_eq!(db.compressed_bytes(), expected);
    }

    #[test]
    fn sentinel_timestamps_do_not_overflow() {
        // Regression: `at - lookback_ns` / `now - retention_ns` used to
        // overflow in debug builds with sentinel timestamps.
        let db = store();
        db.ingest_sample("up", labels!("job" => "a"), 100, 1.0);
        let sel = parse_selector(r#"{__name__="up"}"#).unwrap();
        assert!(query_instant(&db, &sel, i64::MIN, 100).is_empty());
        assert_eq!(query_instant(&db, &sel, i64::MAX, i64::MAX).len(), 1);
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
