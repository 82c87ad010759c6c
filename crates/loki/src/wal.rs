//! Write-ahead log for ingester crash recovery.
//!
//! Head chunks live in memory until they seal (§IV-A); a crashed ingester
//! would lose them. Like real Loki, every accepted entry is first
//! appended to a WAL; on restart the WAL replays into a fresh ingester.
//! The "file" is an in-memory segment, matching the repo's simulated disk
//! tier.
//!
//! Record layout (all varints, strings length-prefixed) — one label set
//! followed by a run of entries, like real Loki's series-framed WAL:
//!
//! ```text
//! label_count (k_len k v_len v)* entry_count (zigzag(ts) line_len line)*
//! ```
//!
//! A single record is a run of one; a stream frame is one run, so the
//! label set — often half the encoded bytes — is paid once per frame
//! instead of once per entry.

use crate::compress::{
    get_labels, get_str, get_uvarint, put_labels, put_uvarint, unzigzag, zigzag, CorruptBlock,
};
use crate::StreamFrame;
use omni_model::lockwitness::{classes, OrderedMutex};
use omni_model::{LabelSet, LogEntry};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// The write-ahead log. Clones share the same segment.
#[derive(Clone)]
pub struct Wal {
    segment: Arc<OrderedMutex<Vec<u8>>>,
    records: Arc<AtomicU64>,
}

impl Default for Wal {
    fn default() -> Self {
        Self::new()
    }
}

impl Wal {
    /// Empty WAL.
    pub fn new() -> Self {
        Self {
            segment: Arc::new(OrderedMutex::new(&classes::LOKI_WAL_SEGMENT, Vec::new())),
            records: Arc::new(AtomicU64::new(0)),
        }
    }

    /// Append one stream frame — a label set plus its entries, the shape
    /// of the Loki push protocol — as exactly one WAL record (called
    /// *before* the in-memory insert — that ordering is what makes it a
    /// write-ahead log).
    pub fn append_run(&self, labels: &LabelSet, entries: &[LogEntry]) {
        self.append_runs([(labels, entries)]);
    }

    /// Append several frames under one segment lock, one WAL record each
    /// (replay order equals append order).
    pub fn append_runs<'a>(&self, runs: impl IntoIterator<Item = (&'a LabelSet, &'a [LogEntry])>) {
        let mut buf = self.segment.lock();
        let mut appended = 0;
        for (labels, entries) in runs {
            encode_run(&mut buf, labels, entries);
            appended += entries.len() as u64;
        }
        self.records.fetch_add(appended, Ordering::Relaxed);
    }

    /// Decode every run, in append order (crash-recovery replay).
    pub fn replay(&self) -> Result<Vec<StreamFrame>, CorruptBlock> {
        decode_runs(&self.segment.lock())
    }

    /// Truncate after a checkpoint (all buffered data flushed/offloaded).
    pub fn truncate(&self) {
        self.segment.lock().clear();
        self.records.store(0, Ordering::Relaxed);
    }

    /// Checkpoint: drop every entry strictly older than `keep_from_ts`
    /// (those are durable in the chunk store and no longer needed for
    /// crash recovery), re-encoding the survivors in place with their run
    /// framing intact. Returns the number of entries dropped. The segment
    /// lock is held from decode to swap, so a concurrent append lands
    /// either before the checkpoint (and is filtered like any other) or
    /// after it — never in between, where it would be overwritten. A
    /// corrupt segment is left untouched — better an oversized WAL than a
    /// discarded one.
    pub fn checkpoint(&self, keep_from_ts: i64) -> usize {
        let mut buf = self.segment.lock();
        let Ok(mut runs) = decode_runs(&buf) else { return 0 };
        let mut dropped = 0;
        for (_, entries) in &mut runs {
            let before = entries.len();
            entries.retain(|e| e.ts >= keep_from_ts);
            dropped += before - entries.len();
        }
        if dropped == 0 {
            return 0;
        }
        // A fresh buffer, so the shrunken segment also gives its memory back.
        let mut fresh = Vec::new();
        let mut kept = 0;
        for (labels, entries) in &runs {
            encode_run(&mut fresh, labels, entries);
            kept += entries.len() as u64;
        }
        *buf = fresh;
        self.records.store(kept, Ordering::Relaxed);
        dropped
    }

    /// Entries currently held.
    pub fn record_count(&self) -> u64 {
        self.records.load(Ordering::Relaxed)
    }

    /// Segment size in bytes.
    pub fn bytes(&self) -> usize {
        self.segment.lock().len()
    }
}

/// The one encoder: a label set, then its run of entries. An empty run
/// writes nothing.
fn encode_run(buf: &mut Vec<u8>, labels: &LabelSet, entries: &[LogEntry]) {
    if entries.is_empty() {
        return;
    }
    put_labels(buf, labels);
    put_uvarint(buf, entries.len() as u64);
    for entry in entries {
        put_uvarint(buf, zigzag(entry.ts));
        put_uvarint(buf, entry.line.len() as u64);
        buf.extend_from_slice(entry.line.as_bytes());
    }
}

fn decode_runs(buf: &[u8]) -> Result<Vec<StreamFrame>, CorruptBlock> {
    let mut pos = 0;
    let mut out = Vec::new();
    while pos < buf.len() {
        let labels = get_labels(buf, &mut pos)?;
        let (entry_count, n) = get_uvarint(&buf[pos..])?;
        pos += n;
        // A run holds at least 2 bytes per entry; a bigger count than
        // the remaining segment cannot be honest.
        if entry_count > (buf.len() - pos) as u64 {
            return Err(CorruptBlock("wal run count exceeds segment size"));
        }
        let mut entries = Vec::with_capacity(entry_count as usize);
        for _ in 0..entry_count {
            let (ts_z, n) = get_uvarint(&buf[pos..])?;
            pos += n;
            entries.push(LogEntry::new(unzigzag(ts_z), get_str(buf, &mut pos)?));
        }
        out.push((labels, entries));
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Ingester, Limits};
    use omni_logql::parse_selector;
    use omni_model::{labels, LogRecord};
    use std::sync::atomic::AtomicBool;
    use std::sync::Barrier;

    fn record(i: i64) -> LogRecord {
        LogRecord::new(labels!("app" => "x", "n" => format!("{}", i % 3)), i, format!("line {i}"))
    }

    /// Append one record as a run of one.
    fn append(wal: &Wal, r: &LogRecord) {
        wal.append_run(&r.labels, std::slice::from_ref(&r.entry));
    }

    /// Replay flattened to records, in append order.
    fn replayed(wal: &Wal) -> Vec<LogRecord> {
        let runs = wal.replay().unwrap();
        runs.into_iter()
            .flat_map(|(labels, es)| {
                es.into_iter().map(move |entry| LogRecord { labels: labels.clone(), entry })
            })
            .collect()
    }

    #[test]
    fn append_replay_roundtrip() {
        let wal = Wal::new();
        let records: Vec<LogRecord> = (0..50).map(record).collect();
        for r in &records {
            append(&wal, r);
        }
        assert_eq!(wal.record_count(), 50);
        assert_eq!(replayed(&wal), records);
    }

    #[test]
    fn truncate_resets() {
        let wal = Wal::new();
        append(&wal, &record(1));
        wal.truncate();
        assert_eq!(wal.record_count(), 0);
        assert_eq!(wal.bytes(), 0);
        assert!(wal.replay().unwrap().is_empty());
    }

    #[test]
    fn clones_share_segment() {
        let wal = Wal::new();
        let clone = wal.clone();
        append(&wal, &record(1));
        assert_eq!(clone.record_count(), 1);
    }

    #[test]
    fn unicode_survives() {
        let wal = Wal::new();
        let r = LogRecord::new(labels!("app" => "naïve"), 1, "日本語 line");
        append(&wal, &r);
        assert_eq!(replayed(&wal), vec![r]);
    }

    #[test]
    fn crash_recovery_restores_unflushed_entries() {
        // An ingester accepts entries (WAL-first), then "crashes" before
        // any chunk sealed. A fresh ingester replays the WAL and serves
        // the same queries.
        let wal = Wal::new();
        let ingester = Ingester::new(Limits::default());
        for i in 0..100 {
            let r = record(i);
            append(&wal, &r); // write-ahead
            ingester.append(r).unwrap();
        }
        drop(ingester); // crash: head chunks lost

        let recovered = Ingester::new(Limits::default());
        let mut replayed = 0;
        for (labels, entries) in wal.replay().unwrap() {
            let frame = (labels.fingerprint(), labels, entries.len());
            let results = recovered.append_frames([frame], entries);
            assert!(results.iter().all(|r| r.is_ok()));
            replayed += results.len();
        }
        assert_eq!(replayed, 100);
        let sel = parse_selector(r#"{app="x"}"#).unwrap();
        let got: usize =
            recovered.query_stats(&sel, -1, 1_000).0.iter().map(|(_, es)| es.len()).sum();
        assert_eq!(got, 100);
    }

    #[test]
    fn checkpoint_drops_only_persisted_prefix() {
        let wal = Wal::new();
        for i in 0..100 {
            append(&wal, &record(i));
        }
        let before = wal.bytes();
        let dropped = wal.checkpoint(60);
        assert_eq!(dropped, 60);
        assert_eq!(wal.record_count(), 40);
        assert!(wal.bytes() < before, "segment must shrink after checkpoint");
        let survivors = replayed(&wal);
        assert_eq!(survivors.len(), 40);
        assert!(survivors.iter().all(|r| r.entry.ts >= 60));
        // Checkpointing at an older bound is a no-op.
        assert_eq!(wal.checkpoint(10), 0);
        assert_eq!(wal.record_count(), 40);
    }

    #[test]
    fn checkpoint_keeps_run_framing() {
        // Regression: survivors used to be re-encoded as runs of one, so
        // after the first checkpoint every entry paid its label set again
        // and dropping a tenth of a run *grew* the segment.
        let wal = Wal::new();
        let labels = labels!("app" => "x", "host" => "nid001234");
        let entries: Vec<LogEntry> =
            (0..100).map(|i| LogEntry::new(i, format!("line {i}"))).collect();
        wal.append_run(&labels, &entries);
        let before = wal.bytes();
        assert_eq!(wal.checkpoint(10), 10);
        assert!(wal.bytes() < before, "{} -> {}", before, wal.bytes());
        assert_eq!(wal.replay().unwrap(), vec![(labels, entries[10..].to_vec())]);
    }

    #[test]
    fn checkpoint_never_loses_concurrent_appends() {
        // Regression: checkpoint used to decode under one lock
        // acquisition and overwrite the segment under a second; an append
        // landing in between vanished from the WAL.
        const APPENDERS: usize = 4;
        const PER_APPENDER: i64 = 2_000;
        let wal = Wal::new();
        let start = Barrier::new(APPENDERS + 1);
        let done = AtomicBool::new(false);
        let dropped = std::thread::scope(|s| {
            let appenders: Vec<_> = (0..APPENDERS)
                .map(|t| {
                    let (wal, start) = (&wal, &start);
                    s.spawn(move || {
                        let labels = labels!("app" => "x", "worker" => format!("{t}"));
                        start.wait();
                        for i in 0..PER_APPENDER {
                            wal.append_run(&labels, &[LogEntry::new(i, format!("line {i}"))]);
                        }
                    })
                })
                .collect();
            let checkpointer = s.spawn(|| {
                start.wait();
                let (mut dropped, mut bound) = (0, 0);
                while !done.load(Ordering::SeqCst) {
                    // A bound that drops nothing, then one that drops a
                    // (rising) prefix.
                    dropped += wal.checkpoint(i64::MIN + 1);
                    bound += 25;
                    dropped += wal.checkpoint(bound);
                }
                dropped
            });
            for a in appenders {
                a.join().expect("appender panicked");
            }
            done.store(true, Ordering::SeqCst);
            checkpointer.join().expect("checkpointer panicked")
        });
        let survivors: usize = wal.replay().unwrap().iter().map(|(_, es)| es.len()).sum();
        assert_eq!(survivors + dropped, APPENDERS * PER_APPENDER as usize, "appends lost");
        assert_eq!(wal.record_count(), survivors as u64);
    }

    #[test]
    fn run_framing_amortises_label_bytes() {
        // `record(i)` cycles 3 label sets: appended in arrival order the
        // segment holds 50 runs of one; sorted by stream and framed, 3
        // long runs. Same records back either way, strictly fewer bytes.
        let records: Vec<LogRecord> = (0..50).map(record).collect();
        let one_by_one = Wal::new();
        for r in &records {
            append(&one_by_one, r);
        }
        let mut sorted = records.clone();
        sorted.sort_by_key(|r| r.labels.get("n").unwrap().to_string());
        let framed = Wal::new();
        for run in sorted.chunk_by(|a, b| a.labels == b.labels) {
            let entries: Vec<LogEntry> = run.iter().map(|r| r.entry.clone()).collect();
            framed.append_run(&run[0].labels, &entries);
        }
        assert_eq!(framed.replay().unwrap().len(), 3);
        assert_eq!(one_by_one.record_count(), framed.record_count());
        assert_eq!(replayed(&framed), sorted);
        assert!(
            framed.bytes() < one_by_one.bytes(),
            "run framing must amortise label bytes: {} vs {}",
            framed.bytes(),
            one_by_one.bytes()
        );
    }

    #[test]
    fn corrupt_segment_reported() {
        let wal = Wal::new();
        append(&wal, &record(1));
        // Truncate the underlying segment mid-record.
        {
            let mut seg = wal.segment.lock();
            let n = seg.len();
            seg.truncate(n - 3);
        }
        assert!(wal.replay().is_err());
    }

    #[test]
    fn hostile_length_is_an_error_not_a_panic() {
        let wal = Wal::new();
        // One label whose key length is a ten-byte varint (`u64::MAX`).
        wal.segment.lock().extend_from_slice(&[
            0x01, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x01, b'a', b'b', b'c',
        ]);
        assert!(wal.replay().is_err());
    }
}
