//! Write-ahead log for ingester crash recovery.
//!
//! Head chunks live in memory until they seal (§IV-A); a crashed ingester
//! would lose them. Like real Loki, every accepted entry is first
//! appended to a WAL; on restart the WAL replays into a fresh ingester.
//!
//! The "file" is, like real Loki's, a list of in-memory segments (the
//! repo's simulated disk tier). Appends go to the last — open — segment,
//! which is closed at the first run boundary at or past 64 KiB. Each segment records its entry count and
//! timestamp span as it is appended to, so a checkpoint decides per
//! segment without reading it: one wholly older than the bound is
//! dropped, one that straddles the bound is decoded, filtered and
//! re-encoded in place, and one wholly at or after the bound — nearly all
//! of them, on nearly every step — is never decoded. A segment that fails
//! to decode is skipped by recovery (and counted), left alone by a
//! checkpoint that straddles it, and dropped with the rest once its
//! recorded span is wholly durable.
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
use std::sync::Arc;

/// Size at which the open segment is closed (checked between runs, so a
/// segment overshoots by at most one run). About two `log_flood` steps:
/// small enough that a checkpoint's one straddling segment is cheap to
/// rewrite, large enough that two hours of retention is a few dozen
/// segments.
const SEGMENT_ROLL_BYTES: usize = 64 * 1024;

/// One WAL segment: encoded runs plus what a checkpoint needs to know
/// about them without decoding.
struct Segment {
    bytes: Vec<u8>,
    entries: u64,
    min_ts: i64,
    max_ts: i64,
}

impl Segment {
    fn empty() -> Self {
        Self { bytes: Vec::new(), entries: 0, min_ts: i64::MAX, max_ts: i64::MIN }
    }

    fn push_run(&mut self, labels: &LabelSet, entries: &[LogEntry]) {
        encode_run(&mut self.bytes, labels, entries);
        self.entries += entries.len() as u64;
        for entry in entries {
            self.min_ts = self.min_ts.min(entry.ts);
            self.max_ts = self.max_ts.max(entry.ts);
        }
    }

    /// Drop every entry older than `keep_from_ts`, keeping the run
    /// framing of the survivors (a run left empty vanishes). Returns the
    /// number dropped; a segment that does not decode is left as it is.
    fn trim(&mut self, keep_from_ts: i64) -> usize {
        let Ok(mut runs) = decode_runs(&self.bytes) else { return 0 };
        // A fresh buffer, so the shrunken segment also gives its memory back.
        let mut kept = Segment::empty();
        let mut dropped = 0;
        for (labels, entries) in &mut runs {
            let before = entries.len();
            entries.retain(|e| e.ts >= keep_from_ts);
            dropped += before - entries.len();
            kept.push_run(labels, entries);
        }
        kept.bytes.shrink_to_fit();
        *self = kept;
        dropped
    }
}

/// The write-ahead log. Clones share the same segments.
#[derive(Clone)]
pub struct Wal {
    segments: Arc<OrderedMutex<Vec<Segment>>>,
    roll_bytes: usize,
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
            segments: Arc::new(OrderedMutex::new(&classes::LOKI_WAL_SEGMENTS, Vec::new())),
            roll_bytes: SEGMENT_ROLL_BYTES,
        }
    }

    /// Append one stream frame — a label set plus its entries, the shape
    /// of the Loki push protocol — as exactly one WAL record (called
    /// *before* the in-memory insert — that ordering is what makes it a
    /// write-ahead log).
    pub fn append_run(&self, labels: &LabelSet, entries: &[LogEntry]) {
        self.append_runs([(labels, entries)]);
    }

    /// Append several frames under one lock acquisition, one WAL record
    /// each (replay order equals append order). A run never spans two
    /// segments.
    pub fn append_runs<'a>(&self, runs: impl IntoIterator<Item = (&'a LabelSet, &'a [LogEntry])>) {
        let mut segments = self.segments.lock();
        for (labels, entries) in runs {
            if entries.is_empty() {
                continue;
            }
            match segments.last_mut() {
                Some(open) if open.bytes.len() < self.roll_bytes => open.push_run(labels, entries),
                full => {
                    // Closed for good: give the doubling slack back.
                    if let Some(closed) = full {
                        closed.bytes.shrink_to_fit();
                    }
                    let mut open = Segment::empty();
                    open.push_run(labels, entries);
                    segments.push(open);
                }
            }
        }
    }

    /// Decode every run, in append order. All or nothing: one segment
    /// that fails to decode fails the replay.
    pub fn replay(&self) -> Result<Vec<StreamFrame>, CorruptBlock> {
        let mut out = Vec::new();
        for segment in self.segments.lock().iter() {
            out.extend(decode_runs(&segment.bytes)?);
        }
        Ok(out)
    }

    /// Decode segment `index` alone (crash-recovery replay, which skips a
    /// segment that fails); `None` past the last segment.
    pub fn replay_segment(&self, index: usize) -> Option<Result<Vec<StreamFrame>, CorruptBlock>> {
        self.segments.lock().get(index).map(|segment| decode_runs(&segment.bytes))
    }

    /// Checkpoint: drop every entry strictly older than `keep_from_ts`
    /// (those are durable in the chunk store and no longer needed for
    /// crash recovery). Returns the number of entries dropped. A segment
    /// whose recorded span lies wholly below the bound goes whole — also
    /// one that no longer decodes, since its span was recorded as it was
    /// written; one that straddles the bound is decoded, filtered and
    /// re-encoded in place; the rest are not read. The lock is held from
    /// deciding to swapping, so a concurrent append lands either before
    /// the checkpoint (and is filtered like any other) or after it —
    /// never in between, where it would be overwritten.
    pub fn checkpoint(&self, keep_from_ts: i64) -> usize {
        let mut dropped = 0;
        self.segments.lock().retain_mut(|segment| {
            if segment.max_ts < keep_from_ts {
                dropped += segment.entries as usize;
                return false;
            }
            if segment.min_ts < keep_from_ts {
                dropped += segment.trim(keep_from_ts);
            }
            true
        });
        dropped
    }

    /// Entries currently held.
    pub fn record_count(&self) -> u64 {
        self.segments.lock().iter().map(|segment| segment.entries).sum()
    }

    /// Size of all segments in bytes.
    pub fn bytes(&self) -> usize {
        self.segments.lock().iter().map(|segment| segment.bytes.len()).sum()
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
    use proptest::prelude::*;
    use std::sync::atomic::{AtomicBool, Ordering};
    use std::sync::Barrier;

    impl Wal {
        /// A WAL that rolls at `roll_bytes`, so a test gets many segments
        /// from few bytes.
        pub(crate) fn with_roll_bytes(roll_bytes: usize) -> Self {
            Self { roll_bytes, ..Self::new() }
        }

        /// Fault injection: edit the raw bytes of segment `index` (its
        /// recorded count and span stay as appended, as on a real disk).
        pub(crate) fn edit_segment(&self, index: usize, edit: impl FnOnce(&mut Vec<u8>)) {
            edit(&mut self.segments.lock()[index].bytes);
        }

        /// Number of segments.
        pub(crate) fn segment_count(&self) -> usize {
            self.segments.lock().len()
        }
    }

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
    fn rolls_at_a_run_boundary_and_records_each_span() {
        let wal = Wal::with_roll_bytes(96);
        let labels = labels!("app" => "x");
        // Each run is ~60 bytes: the second takes the open segment past
        // 96, so the third opens a new one. No run is ever split.
        for base in [0, 100, -50] {
            let entries: Vec<LogEntry> =
                (0..5).map(|i| LogEntry::new(base + i, format!("line {i}"))).collect();
            wal.append_run(&labels, &entries);
        }
        let spans: Vec<(u64, i64, i64)> =
            wal.segments.lock().iter().map(|s| (s.entries, s.min_ts, s.max_ts)).collect();
        assert_eq!(spans, vec![(10, 0, 104), (5, -50, -46)]);
        assert_eq!(wal.replay_segment(1).unwrap().unwrap().len(), 1);
        assert!(wal.replay_segment(2).is_none());
        // Closed segments hold no spare capacity.
        let segments = wal.segments.lock();
        assert_eq!(segments[0].bytes.capacity(), segments[0].bytes.len());
    }

    #[test]
    fn checkpoint_never_decodes_a_segment_that_survives_whole() {
        // The complexity claim: a checkpoint's cost follows what it
        // drops. Segment 2 lies wholly after the bound and its bytes are
        // garbage — the checkpoint must neither notice nor care.
        let wal = Wal::with_roll_bytes(1);
        for i in 0..3 {
            append(&wal, &record(i * 10));
        }
        assert_eq!(wal.segment_count(), 3);
        wal.edit_segment(2, |bytes| bytes.fill(0xff));
        assert_eq!(wal.checkpoint(15), 2, "both older segments go whole");
        assert_eq!(wal.segment_count(), 1);
        assert_eq!(wal.record_count(), 1);
        assert!(wal.replay().is_err(), "the survivor is still corrupt, and replay says so");
    }

    #[test]
    fn corrupt_straddler_is_left_alone_until_its_span_is_durable() {
        let wal = Wal::with_roll_bytes(1);
        let labels = labels!("app" => "x");
        wal.append_run(&labels, &[LogEntry::new(10, "a"), LogEntry::new(20, "b")]);
        let before = wal.bytes();
        wal.edit_segment(0, |bytes| bytes.truncate(bytes.len() - 1));
        assert_eq!(wal.checkpoint(15), 0, "better an oversized WAL than a discarded one");
        assert_eq!((wal.record_count(), wal.bytes()), (2, before - 1));
        // Its span was recorded at append time: past 20 both entries are
        // durable whatever the bytes now say.
        assert_eq!(wal.checkpoint(21), 2);
        assert_eq!((wal.record_count(), wal.bytes(), wal.segment_count()), (0, 0, 0));
    }

    /// The parent's whole-log algorithm, kept as the reference: filter
    /// every run, drop the empty ones.
    fn model_checkpoint(model: &mut Vec<StreamFrame>, bound: i64) -> usize {
        let before: usize = model.iter().map(|(_, es)| es.len()).sum();
        for (_, entries) in model.iter_mut() {
            entries.retain(|e| e.ts >= bound);
        }
        model.retain(|(_, es)| !es.is_empty());
        before - model.iter().map(|(_, es)| es.len()).sum::<usize>()
    }

    proptest! {
        /// Any interleaving of appends and checkpoints over a WAL that
        /// rolls every couple of runs — spans overlapping, timestamps on
        /// both sides of the epoch — holds exactly what the unsegmented
        /// log would, down to the byte.
        #[test]
        fn any_op_sequence_leaves_the_bytes_one_whole_log_checkpoint_would(
            ops in prop::collection::vec((0u8..10, -40i64..40, 0usize..10_000), 1..60),
        ) {
            let wal = Wal::with_roll_bytes(96);
            let mut model: Vec<StreamFrame> = Vec::new();
            for (op, base, arg) in ops {
                match op {
                    // Appends dominate: one to three runs under one lock,
                    // entry timestamps scattered ±8 round `base`, so
                    // neither runs nor segments are ordered in time.
                    0..=5 => {
                        let frames: Vec<StreamFrame> = (0..1 + arg % 3)
                            .map(|f| {
                                let entries = (0..(arg / 3 + f) % 5)
                                    .map(|k| {
                                        let ts = base + ((arg + 7 * k + 3 * f) % 17) as i64 - 8;
                                        LogEntry::new(ts, format!("line {arg}/{k}"))
                                    })
                                    .collect();
                                (labels!("app" => "x", "n" => format!("{}", (arg + f) % 3)), entries)
                            })
                            .collect();
                        wal.append_runs(frames.iter().map(|(l, es)| (l, es.as_slice())));
                        model.extend(frames.into_iter().filter(|(_, es)| !es.is_empty()));
                    }
                    // A bound inside the data (part of one segment, or
                    // several), below all of it, or above all of it.
                    _ => {
                        let bound = [base, base, base, -60, i64::MAX][arg % 5];
                        prop_assert_eq!(wal.checkpoint(bound), model_checkpoint(&mut model, bound));
                    }
                }
                prop_assert_eq!(&wal.replay().unwrap(), &model);
                let held: usize = model.iter().map(|(_, es)| es.len()).sum();
                prop_assert_eq!(wal.record_count(), held as u64);
                let mut whole_log = Vec::new();
                for (labels, entries) in &model {
                    encode_run(&mut whole_log, labels, entries);
                }
                prop_assert_eq!(wal.segments.lock().iter().map(|s| &s.bytes[..]).collect::<Vec<_>>().concat(), whole_log);
            }
        }
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
        wal.edit_segment(0, |bytes| bytes.truncate(bytes.len() - 3));
        assert!(wal.replay().is_err());
    }

    #[test]
    fn hostile_length_is_an_error_not_a_panic() {
        let wal = Wal::new();
        append(&wal, &record(1));
        // One label whose key length is a ten-byte varint (`u64::MAX`).
        wal.edit_segment(0, |bytes| {
            *bytes = vec![
                0x01, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x01, b'a', b'b', b'c',
            ];
        });
        assert!(wal.replay().is_err());
    }
}
