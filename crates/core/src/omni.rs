//! OMNI: "a data warehouse to collect, manage and analyze data related to
//! monitoring of extreme scale computing systems ... up to two years of
//! operational data is immediately available and more can be restored."
//!
//! The facade owns both stores (logs in Loki, metrics in the TSDB),
//! meters ingest rate (the 400k msg/s capability claim, experiment C1),
//! and implements the archive/restore cycle behind the two-year hot
//! window (experiment C6).

use omni_baseline::tokenize;
use omni_loki::{Direction, IngestError, Limits, LokiCluster, QueryError};
use omni_model::{LabelSet, LogEntry, LogRecord, SimClock, Timestamp};
use omni_tsdb::{Tsdb, TsdbConfig};
use parking_lot::Mutex;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Cold storage: archived log records, restorable on demand. Stands in
/// for the tape/object tier behind OMNI's two-year hot window.
#[derive(Default)]
pub struct ArchiveStore {
    batches: Mutex<Vec<(Timestamp, Vec<LogRecord>)>>,
}

impl ArchiveStore {
    /// Empty archive.
    pub fn new() -> Self {
        Self::default()
    }

    /// Store a batch archived at `archived_at`.
    pub fn store(&self, archived_at: Timestamp, records: Vec<LogRecord>) {
        self.batches.lock().push((archived_at, records));
    }

    /// Restore every archived record overlapping `(start, end]`.
    pub fn restore(&self, start: Timestamp, end: Timestamp) -> Vec<LogRecord> {
        self.batches
            .lock()
            .iter()
            .flat_map(|(_, records)| records.iter())
            .filter(|r| r.entry.ts > start && r.entry.ts <= end)
            .cloned()
            .collect()
    }

    /// Number of archived batches.
    pub fn batch_count(&self) -> usize {
        self.batches.lock().len()
    }

    /// Total archived records.
    pub fn record_count(&self) -> usize {
        self.batches.lock().iter().map(|(_, r)| r.len()).sum()
    }
}

/// The warehouse.
///
/// OMNI "is backed by a scalable and parallel time-series database,
/// Elasticsearch and VictoriaMetrics" — logs live in Loki, metrics in the
/// TSDB, and Kibana-style term discovery is a line-filter query over the
/// same Loki chunks ("Loki does not index the text of the logs", §III-A).
#[derive(Clone)]
pub struct Omni {
    loki: LokiCluster,
    tsdb: Tsdb,
    clock: SimClock,
    archive: Arc<ArchiveStore>,
    messages_in: Arc<AtomicU64>,
    bytes_in: Arc<AtomicU64>,
}

impl Omni {
    /// Build a warehouse: `shards` Loki ingesters (the paper's cluster has
    /// 8 workers), default TSDB config, two-year retention.
    pub fn new(shards: usize, limits: Limits, clock: SimClock) -> Self {
        Self {
            loki: LokiCluster::new(shards, limits, clock.clone()),
            tsdb: Tsdb::new(TsdbConfig::default()),
            clock: clock.clone(),
            archive: Arc::new(ArchiveStore::new()),
            messages_in: Arc::new(AtomicU64::new(0)),
            bytes_in: Arc::new(AtomicU64::new(0)),
        }
    }

    /// omnibench compat — remove with ROADMAP item 1. Does nothing:
    /// [`discover`](Self::discover) is always answered, by Loki.
    pub fn with_discovery(self) -> Self {
        self
    }

    /// The log store.
    pub fn loki(&self) -> &LokiCluster {
        &self.loki
    }

    /// The metric store.
    pub fn tsdb(&self) -> &Tsdb {
        &self.tsdb
    }

    /// The warehouse clock.
    pub fn clock(&self) -> &SimClock {
        &self.clock
    }

    /// The cold tier.
    pub fn archive(&self) -> &ArchiveStore {
        &self.archive
    }

    /// Metered log ingest (counts toward the C1 throughput number): a
    /// record built here, through [`ingest_record`](Self::ingest_record).
    pub fn ingest_log(
        &self,
        labels: LabelSet,
        ts: Timestamp,
        line: impl Into<String>,
    ) -> Result<(), IngestError> {
        self.ingest_record(LogRecord::new(labels, ts, line))
    }

    /// Metered record ingest: a batch of one through
    /// [`ingest_batch`](Self::ingest_batch).
    pub fn ingest_record(&self, record: LogRecord) -> Result<(), IngestError> {
        let frame = (record.labels, record.entry.ts, record.entry.line.as_str());
        // The door returns one result per record; a record nothing
        // answered for was served by no shard.
        self.ingest_batch([frame]).pop().unwrap_or(Err(IngestError::AllShardsDown))
    }

    /// The one metered log door (the bridge clients' path): messages and
    /// line bytes *offered* are counted, then one batched Loki push of
    /// `(labels, ts, line)` frames. A line is borrowed until a shard
    /// serves it, and only then copied into the entry Loki keeps, so a
    /// record no shard takes is never copied. Returns per-record outcomes
    /// in input order, so callers keep their per-record retry/dead-letter
    /// handling.
    pub fn ingest_batch<'a>(
        &self,
        frames: impl IntoIterator<Item = (LabelSet, Timestamp, &'a str)>,
    ) -> Vec<Result<(), IngestError>> {
        let (mut messages, mut bytes) = (0u64, 0u64);
        let frames = frames.into_iter().map(|(labels, ts, line)| {
            messages += 1;
            bytes += line.len() as u64;
            (labels, std::iter::once_with(move || LogEntry::new(ts, line)))
        });
        let results = self.loki.push_frames(None, frames);
        self.messages_in.fetch_add(messages, Ordering::Relaxed);
        self.bytes_in.fetch_add(bytes, Ordering::Relaxed);
        results
    }

    /// Kibana-style term discovery over `(start, end]`, oldest first:
    /// every stored line that contains `term` as a whole token,
    /// case-insensitively ([`omni_baseline::tokenize`] is the definition
    /// of "token", so a term that is not one token matches nothing). Loki
    /// holds the lines, so Loki answers: a match-all selector with a
    /// case-folded line filter finds the candidates in every tier, within
    /// retention, and the tokenizer confirms each one.
    pub fn discover(
        &self,
        term: &str,
        start: Timestamp,
        end: Timestamp,
    ) -> Result<Vec<LogRecord>, QueryError> {
        let term = term.to_ascii_lowercase();
        if tokenize(&term) != [term.as_str()] {
            return Ok(Vec::new());
        }
        // A token is `[a-z0-9_]+`: nothing to escape, one class per letter.
        let folded: String = term
            .chars()
            .map(|c| match c {
                'a'..='z' => format!("[{c}{}]", c.to_ascii_uppercase()),
                _ => c.to_string(),
            })
            .collect();
        let query = format!(r#"{{}} |~ "{folded}""#);
        let mut hits =
            self.loki.query_logs_directed(&query, start, end, usize::MAX, Direction::Forward)?;
        hits.retain(|r| tokenize(&r.entry.line).contains(&term));
        Ok(hits)
    }

    /// Metered metric ingest.
    pub fn ingest_metric(&self, name: &str, labels: LabelSet, ts: Timestamp, value: f64) {
        self.messages_in.fetch_add(1, Ordering::Relaxed);
        self.tsdb.ingest_sample(name, labels, ts, value);
    }

    /// `(messages, bytes)` ingested so far.
    pub fn ingest_totals(&self) -> (u64, u64) {
        (self.messages_in.load(Ordering::Relaxed), self.bytes_in.load(Ordering::Relaxed))
    }

    /// Archive log records in `(start, end]` matching `query` to the cold
    /// tier, then drop anything beyond Loki's retention horizon. Returns
    /// how many records were archived.
    pub fn archive_window(
        &self,
        query: &str,
        start: Timestamp,
        end: Timestamp,
    ) -> Result<usize, QueryError> {
        // Forward direction: the archive preserves oldest-first order so
        // a later restore can re-push records without tripping each
        // stream's ordering enforcement.
        let records =
            self.loki.query_logs_directed(query, start, end, usize::MAX, Direction::Forward)?;
        let n = records.len();
        if n > 0 {
            self.archive.store(self.clock.now(), records);
        }
        self.loki.enforce_retention();
        Ok(n)
    }

    /// Restore archived records overlapping `(start, end]` back into the
    /// hot store ("more can be restored"), unmetered — restored history is
    /// not new ingest. Returns the records Loki accepted; the archive
    /// keeps everything, so a restore that fell short can be repeated.
    pub fn restore_window(&self, start: Timestamp, end: Timestamp) -> usize {
        let mut records = self.archive.restore(start, end);
        for r in &mut records {
            // Restored data is historical; bypass ordering enforcement by
            // re-labelling it as restored so it forms fresh streams.
            r.labels.insert("restored", "true");
        }
        self.loki.push_record_batch(records).iter().filter(|r| r.is_ok()).count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use omni_baseline::FullTextStore;
    use omni_model::{labels, NANOS_PER_SEC};
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn omni() -> Omni {
        let day = 86_400 * NANOS_PER_SEC;
        let limits = Limits { retention_ns: 730 * day, ..Default::default() };
        Omni::new(2, limits, SimClock::starting_at(0))
    }

    #[test]
    fn metered_ingest() {
        let o = omni();
        o.ingest_log(labels!("a" => "1"), 1, "0123456789").unwrap();
        o.ingest_metric("m", labels!("a" => "1"), 1, 5.0);
        let (msgs, bytes) = o.ingest_totals();
        assert_eq!(msgs, 2);
        assert_eq!(bytes, 10);
    }

    #[test]
    fn batch_ingest_meters_and_stores() {
        let o = omni();
        let records: Vec<LogRecord> =
            (0..10).map(|i| LogRecord::new(labels!("app" => "b"), i, "0123456789")).collect();
        let results = o.ingest_batch(
            records.iter().map(|r| (r.labels.clone(), r.entry.ts, r.entry.line.as_str())),
        );
        assert!(results.iter().all(|r| r.is_ok()));
        let (msgs, bytes) = o.ingest_totals();
        assert_eq!(msgs, 10);
        assert_eq!(bytes, 100);
        assert_eq!(o.loki().query_logs(r#"{app="b"}"#, -1, 100, usize::MAX).unwrap().len(), 10);
    }

    #[test]
    fn the_three_ingest_entry_points_are_one_door() {
        let mut rng = StdRng::seed_from_u64(23);
        let mut records: Vec<LogRecord> = (0..200i64)
            .map(|i| {
                let stream = format!("s{}", rng.gen_range(0..5));
                let line = format!("event {i} payload {}", rng.gen_range(0..1_000_000));
                LogRecord::new(labels!("app" => "door", "stream" => stream), i, line)
            })
            .collect();
        records[50].entry.line = "x".repeat(300); // over max_line_size
        records[120].entry.ts = 3; // behind its stream's newest entry
        let fresh = || {
            let limits = Limits { max_line_size: 256, ..Default::default() };
            Omni::new(2, limits, SimClock::starting_at(0))
        };
        let (by_log, by_record, by_batch) = (fresh(), fresh(), fresh());
        let log_results: Vec<_> = records
            .iter()
            .cloned()
            .map(|r| by_log.ingest_log(r.labels, r.entry.ts, r.entry.line))
            .collect();
        let record_results: Vec<_> =
            records.iter().cloned().map(|r| by_record.ingest_record(r)).collect();
        let batch_results = by_batch.ingest_batch(
            records.iter().map(|r| (r.labels.clone(), r.entry.ts, r.entry.line.as_str())),
        );
        assert_eq!(log_results.iter().filter(|r| r.is_err()).count(), 2);
        assert_eq!(log_results, record_results);
        assert_eq!(log_results, batch_results);
        let bytes: usize = records.iter().map(|r| r.entry.line.len()).sum();
        assert_eq!(by_log.ingest_totals(), (200, bytes as u64), "offered, not accepted");
        assert_eq!(by_record.ingest_totals(), by_log.ingest_totals());
        assert_eq!(by_batch.ingest_totals(), by_log.ingest_totals());
        let stored = |o: &Omni| o.loki().query_logs("{}", -1, 1_000, usize::MAX).unwrap();
        assert_eq!(stored(&by_log).len(), 198);
        assert_eq!(stored(&by_log), stored(&by_record));
        assert_eq!(stored(&by_log), stored(&by_batch));
    }

    #[test]
    fn two_year_retention_then_restore() {
        let day = 86_400 * NANOS_PER_SEC;
        let o = omni();
        // Write a multi-record stream on day 1: the restore path pushes
        // sequentially, so the archive must hold records oldest-first or
        // every record after the newest would bounce off ordering
        // enforcement.
        for i in 0..5 {
            o.ingest_log(labels!("app" => "old"), day + i, format!("ancient event {i}")).unwrap();
        }
        o.loki().flush();
        // Archive it, then advance past two years and expire.
        let archived = o.archive_window(r#"{app="old"}"#, 0, 2 * day).unwrap();
        assert_eq!(archived, 5);
        o.clock().set(800 * day);
        o.loki().enforce_retention();
        assert!(o.loki().query_logs(r#"{app="old"}"#, 0, 2 * day, 10).unwrap().is_empty());
        // Restore from the archive: every record comes back, not just the
        // first one the per-stream ordering check happens to accept.
        let restored = o.restore_window(0, 2 * day);
        assert_eq!(restored, 5);
        let back = o.loki().query_logs(r#"{app="old", restored="true"}"#, 0, 2 * day, 10).unwrap();
        assert_eq!(back.len(), 5, "all restored records must be queryable");
        assert_eq!(back[0].entry.line, "ancient event 4", "backward query: newest first");
    }

    #[test]
    fn restore_counts_only_what_loki_accepted() {
        let o = omni();
        for i in 0..5 {
            o.ingest_log(labels!("app" => "old"), 10 + i, format!("event {i}")).unwrap();
        }
        assert_eq!(o.archive_window(r#"{app="old"}"#, 0, 100).unwrap(), 5);
        let restored = || o.loki().query_logs(r#"{restored="true"}"#, 0, 100, 10).unwrap().len();
        o.loki().crash_shard(0);
        o.loki().crash_shard(1);
        assert_eq!(o.restore_window(0, 100), 0, "nothing is up to take the records");
        assert_eq!(o.archive().record_count(), 5, "the archive still has them");
        o.loki().recover_shard(0);
        o.loki().recover_shard(1);
        assert_eq!(restored(), 0);
        assert_eq!(o.restore_window(0, 100), 5);
        assert_eq!(restored(), 5);
        assert_eq!(o.ingest_totals().0, 5, "restored history is not new ingest");
    }

    #[test]
    fn discovery_tier_serves_term_search() {
        let day = 86_400 * NANOS_PER_SEC;
        let limits = Limits { retention_ns: 730 * day, ..Default::default() };
        let o = Omni::new(2, limits, SimClock::starting_at(0));
        o.ingest_log(labels!("host" => "x1"), 10, "kernel panic on boot").unwrap();
        o.ingest_log(labels!("host" => "x2"), 20, "all quiet").unwrap();
        let hits = o.discover("panic", 0, 100).unwrap();
        assert_eq!(hits.len(), 1);
        assert_eq!(hits[0].labels.get("host"), Some("x1"));
        assert!(o.discover("panic", 15, 100).unwrap().is_empty()); // range filter
    }

    #[test]
    fn discover_answers_what_the_full_text_index_answered_in_every_tier() {
        const TERMS: [&str; 8] =
            ["panic", "PANIC", "kernelpanic", "panic_mode", "x", "nid0003", "no.such", "absent"];
        let s = NANOS_PER_SEC;
        let limits = Limits {
            chunk_target_bytes: 512,
            compact_after_ns: 0,
            split_interval_ns: 150 * s,
            retention_ns: 10_000 * s,
            ..Default::default()
        };
        let o = Omni::new(2, limits, SimClock::starting_at(0));
        // The deleted tier, rebuilt beside the warehouse as the reference.
        let mut index = FullTextStore::new();
        let mut pushed: Vec<LogRecord> = Vec::new();
        let mut rng = StdRng::seed_from_u64(23);
        let mut push = |pushed: &mut Vec<LogRecord>, index: &mut FullTextStore, ts: Timestamp| {
            // The term in mixed case, as a whole token, inside a longer
            // token, glued to `_`, next to punctuation, a one-character
            // token, and lines without it.
            let words = [
                "panic",
                "Panic",
                "PANIC",
                "kernelpanic",
                "panicking",
                "panic_mode",
                "(panic)",
                "panic,",
                "panic!",
                "x",
                "quiet",
                "boot",
                "nid0003",
            ];
            let picked: Vec<&str> = (0..3).map(|_| words[rng.gen_range(0..words.len())]).collect();
            let line = format!("{} :: heartbeat sequence {ts:012} ok", picked.join(" "));
            let host = format!("nid{:04}", rng.gen_range(0..4));
            let record = LogRecord::new(labels!("host" => host), ts, line);
            index.ingest(record.labels.clone(), ts, record.entry.line.clone());
            o.ingest_record(record.clone()).unwrap();
            pushed.push(record);
        };
        let check = |pushed: &[LogRecord], index: &FullTextStore, op: &str| {
            for term in TERMS {
                for (start, end) in [(-1, 1_000 * s), (100 * s, 250 * s), (399 * s, 400 * s)] {
                    // One record per timestamp, so oldest-first is a
                    // total order and the three lists compare as lists.
                    let got = o.discover(term, start, end).unwrap();
                    let by_tokens: Vec<LogRecord> = pushed
                        .iter()
                        .filter(|r| r.entry.ts > start && r.entry.ts <= end)
                        .filter(|r| tokenize(&r.entry.line).contains(&term.to_ascii_lowercase()))
                        .cloned()
                        .collect();
                    let by_index: Vec<LogRecord> = index
                        .search_term_in_range(term, start, end)
                        .into_iter()
                        .map(|d| LogRecord::new(d.labels.clone(), d.ts, d.line.clone()))
                        .collect();
                    assert_eq!(got, by_tokens, "after {op}: {term:?} in ({start}, {end}]");
                    assert_eq!(got, by_index, "after {op}: {term:?} in ({start}, {end}]");
                }
            }
        };
        for i in 0..400 {
            push(&mut pushed, &mut index, i * s);
        }
        assert!(!o.discover("panic", -1, 1_000 * s).unwrap().is_empty());
        check(&pushed, &index, "push");
        o.clock().set(400 * s);
        o.loki().tick();
        check(&pushed, &index, "tick");
        o.loki().flush();
        check(&pushed, &index, "flush");
        assert!(o.loki().offload(200 * s) > 0);
        check(&pushed, &index, "offload");
        assert!(o.loki().compact().objects_written > 0, "(.., 200s) → cold");
        check(&pushed, &index, "compact");
        // All four tiers at once: cold, hot, sealed in memory, and a head.
        assert!(o.loki().offload(100 * s) > 0, "[200s, 300s) → hot");
        push(&mut pushed, &mut index, 400 * s);
        check(&pushed, &index, "offload + push");

        // Retention reaches every tier `discover` reads. The index had no
        // retention at all — it kept every line it was ever given.
        let all = || o.discover("panic", -1, 1_000 * s).unwrap();
        let before = all();
        let horizon = 250 * s;
        o.clock().set(horizon + 10_000 * s);
        o.loki().enforce_retention();
        let after = all();
        assert!(after.len() < before.len(), "expired hits are gone");
        assert!(after.iter().all(|r| before.contains(r)));
        assert!(before.iter().filter(|r| r.entry.ts >= horizon).all(|r| after.contains(r)));
        o.clock().set(20_000 * s);
        o.loki().enforce_retention();
        assert!(all().is_empty());
        assert_eq!(index.search_term("panic").len(), before.len());
    }

    #[test]
    fn archive_is_cumulative() {
        let o = omni();
        o.ingest_log(labels!("app" => "x"), 10, "one").unwrap();
        o.ingest_log(labels!("app" => "x"), 20, "two").unwrap();
        o.archive_window(r#"{app="x"}"#, 0, 15).unwrap();
        o.archive_window(r#"{app="x"}"#, 15, 30).unwrap();
        assert_eq!(o.archive().batch_count(), 2);
        assert_eq!(o.archive().record_count(), 2);
        assert_eq!(o.archive().restore(0, 100).len(), 2);
    }
}
