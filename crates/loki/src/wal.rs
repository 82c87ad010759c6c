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
//! Record layout (all varints, strings length-prefixed) — one run of
//! entries for one stream, like real Loki's series-framed WAL, naming its
//! stream by a segment-local series ref:
//!
//! ```text
//! ref [label_count (k_len k v_len v)*] entry_count (zigzag(ts − prev) line_len line)*
//! ```
//!
//! Each segment has its own series table. A `ref` equal to the table's
//! length introduces the next series, and its label set follows inline; a
//! smaller one names a series already written in this segment; a larger
//! one is corrupt. So a stream's label set — most of a short run's bytes —
//! is paid once per segment instead of once per run. `prev` is the
//! previous entry's timestamp in the run, starting from 0 at each run;
//! both sides use wrapping arithmetic, so any `i64` pair round-trips and
//! hostile bytes cannot overflow. A stream frame is one run, a single
//! record a run of one. Neither a ref nor a delta reaches past its
//! segment, so a segment is still dropped without being read, decoded
//! alone, and re-encoded by a trim with a fresh table of its own.

use crate::compress::{
    get_labels, get_str, get_uvarint, put_labels, put_uvarint, unzigzag, zigzag, CorruptBlock,
};
use crate::StreamFrame;
use omni_model::lockwitness::{classes, OrderedMutex};
use omni_model::{LabelSet, LogEntry};
use std::collections::HashMap;
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
    /// The encoder's series table, label set → ref. Emptied when the
    /// segment closes; an open segment always holds a run, so an empty
    /// table is what marks a segment nothing may be appended to.
    series: HashMap<LabelSet, u64>,
}

impl Segment {
    fn empty() -> Self {
        Self {
            bytes: Vec::new(),
            entries: 0,
            min_ts: i64::MAX,
            max_ts: i64::MIN,
            series: HashMap::new(),
        }
    }

    /// The one encoder: the run's series ref — and its label set, the
    /// first time this segment sees it — then its entries. An empty run
    /// writes nothing.
    fn push_run(&mut self, labels: &LabelSet, entries: &[LogEntry]) {
        if entries.is_empty() {
            return;
        }
        let known = self.series.get(labels).copied();
        let series_ref = known.unwrap_or(self.series.len() as u64);
        put_uvarint(&mut self.bytes, series_ref);
        if known.is_none() {
            self.series.insert(labels.clone(), series_ref);
            put_labels(&mut self.bytes, labels);
        }
        put_uvarint(&mut self.bytes, entries.len() as u64);
        let mut prev = 0i64;
        for entry in entries {
            put_uvarint(&mut self.bytes, zigzag(entry.ts.wrapping_sub(prev)));
            prev = entry.ts;
            put_uvarint(&mut self.bytes, entry.line.len() as u64);
            self.bytes.extend_from_slice(entry.line.as_bytes());
            self.min_ts = self.min_ts.min(entry.ts);
            self.max_ts = self.max_ts.max(entry.ts);
        }
        self.entries += entries.len() as u64;
    }

    /// Closed for good: give the doubling slack and the series table back.
    fn close(&mut self) {
        self.bytes.shrink_to_fit();
        self.series = HashMap::new();
    }

    /// Drop every entry older than `keep_from_ts`, keeping the run
    /// framing of the survivors (a run left empty vanishes) under a fresh
    /// series table. Returns the number dropped; a segment that does not
    /// decode is left as it is. A trimmed open segment stays open, and
    /// appends continue its new table.
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
        if self.series.is_empty() {
            kept.close();
        }
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
    /// segments. Only the last segment is ever open; once a checkpoint
    /// has dropped it, a closed one may be last, and the next run opens
    /// a new segment after it.
    pub fn append_runs<'a>(&self, runs: impl IntoIterator<Item = (&'a LabelSet, &'a [LogEntry])>) {
        let mut segments = self.segments.lock();
        for (labels, entries) in runs {
            if entries.is_empty() {
                continue;
            }
            match segments.last_mut() {
                Some(open) if !open.series.is_empty() && open.bytes.len() < self.roll_bytes => {
                    open.push_run(labels, entries)
                }
                last => {
                    if let Some(full) = last {
                        full.close();
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

/// The one decoder: one segment's runs, resolving refs against the
/// series table the segment itself defines.
fn decode_runs(buf: &[u8]) -> Result<Vec<StreamFrame>, CorruptBlock> {
    let mut pos = 0;
    let mut series: Vec<LabelSet> = Vec::new();
    let mut out = Vec::new();
    while pos < buf.len() {
        let (series_ref, n) = get_uvarint(&buf[pos..])?;
        pos += n;
        let labels = if series_ref == series.len() as u64 {
            let labels = get_labels(buf, &mut pos)?;
            series.push(labels.clone());
            labels
        } else {
            let known = usize::try_from(series_ref).ok().and_then(|i| series.get(i));
            known.cloned().ok_or(CorruptBlock("wal series ref beyond the segment's table"))?
        };
        let (entry_count, n) = get_uvarint(&buf[pos..])?;
        pos += n;
        // A run holds at least 2 bytes per entry; a bigger count than
        // the remaining segment cannot be honest.
        if entry_count > (buf.len() - pos) as u64 {
            return Err(CorruptBlock("wal run count exceeds segment size"));
        }
        let mut entries = Vec::with_capacity(entry_count as usize);
        let mut prev = 0i64;
        for _ in 0..entry_count {
            let (delta, n) = get_uvarint(&buf[pos..])?;
            pos += n;
            prev = prev.wrapping_add(unzigzag(delta));
            entries.push(LogEntry::new(prev, get_str(buf, &mut pos)?));
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
            let results = recovered.append_frames([(labels, entries.len())], entries);
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
        let wal = Wal::with_roll_bytes(80);
        let labels = labels!("app" => "x");
        // Five 8-byte entries a run (1-byte delta, 1-byte length, "line i").
        // The first run opens a segment: ref, 7 label bytes and a count,
        // 49 bytes. The second names the series by its 1-byte ref and
        // starts 100 from 0 (a 2-byte delta), 43 bytes, and takes the open
        // segment past 80, so the third opens a new one — which writes
        // the labels again, into its own table. No run is ever split.
        for base in [0, 100, -50] {
            let entries: Vec<LogEntry> =
                (0..5).map(|i| LogEntry::new(base + i, format!("line {i}"))).collect();
            wal.append_run(&labels, &entries);
        }
        let spans: Vec<(usize, u64, i64, i64)> = wal
            .segments
            .lock()
            .iter()
            .map(|s| (s.bytes.len(), s.entries, s.min_ts, s.max_ts))
            .collect();
        assert_eq!(spans, vec![(49 + 43, 10, 0, 104), (49, 5, -50, -46)]);
        assert_eq!(wal.replay_segment(1).unwrap().unwrap().len(), 1);
        assert!(wal.replay_segment(2).is_none());
        // A closed segment holds no spare capacity and no series table.
        let segments = wal.segments.lock();
        assert_eq!(segments[0].bytes.capacity(), segments[0].bytes.len());
        assert!(segments[0].series.is_empty() && !segments[1].series.is_empty());
    }

    #[test]
    fn a_closed_segment_left_last_by_a_checkpoint_is_not_reopened() {
        // Segments are not ordered in time, so a checkpoint can drop the
        // open segment and leave a closed one — trimmed below the roll
        // size — last. Its table is gone: the next run must open a new
        // segment rather than write refs into one it cannot resolve.
        let wal = Wal::with_roll_bytes(32);
        let (a, b) = (labels!("app" => "a"), labels!("app" => "b"));
        let early: Vec<LogEntry> = (0..5).map(|i| LogEntry::new(10 * i, "x".repeat(8))).collect();
        wal.append_run(&a, &early);
        wal.append_run(&b, &[LogEntry::new(0, "y")]);
        assert_eq!(wal.segment_count(), 2);
        assert_eq!(wal.checkpoint(35), 4 + 1, "trims the closed segment, drops the open one");
        assert_eq!((wal.segment_count(), wal.bytes() < 32), (1, true));
        wal.append_run(&b, &[LogEntry::new(50, "z")]);
        assert_eq!(wal.segment_count(), 2);
        assert_eq!(
            wal.replay().unwrap(),
            vec![(a, early[4..].to_vec()), (b, vec![LogEntry::new(50, "z")])]
        );
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
        /// rolls every few runs — spans overlapping, timestamps on both
        /// sides of the epoch, three streams sharing each segment's
        /// table — replays exactly what the unsegmented log would, and
        /// every segment is byte for byte a fresh encoding of its own
        /// runs. That second half is what pins the tables and deltas
        /// segment-local; each of these fails it:
        /// (a) a rolled segment inheriting the closed one's table;
        /// (b) the delta base carried from one run into the next;
        /// (c) a trim keeping the pre-trim table, so a later append
        ///     writes a ref the new bytes never define.
        #[test]
        fn any_op_sequence_leaves_each_segment_a_fresh_encoding_of_its_runs(
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
                prop_assert_eq!(&wal.replay(), &Ok(model.clone()));
                let held: usize = model.iter().map(|(_, es)| es.len()).sum();
                prop_assert_eq!(wal.record_count(), held as u64);
                for segment in wal.segments.lock().iter() {
                    let mut fresh = Segment::empty();
                    for (labels, entries) in decode_runs(&segment.bytes).unwrap() {
                        fresh.push_run(&labels, &entries);
                    }
                    prop_assert_eq!(&fresh.bytes, &segment.bytes);
                    prop_assert_eq!(
                        (fresh.entries, fresh.min_ts, fresh.max_ts),
                        (segment.entries, segment.min_ts, segment.max_ts)
                    );
                }
            }
        }

        /// Arbitrary bytes — alone, or after a valid segment whose table
        /// they may reference — decode to a value or an error, never a
        /// panic.
        #[test]
        fn arbitrary_bytes_never_panic_the_decoder(
            bytes in prop::collection::vec(any::<u8>(), 0..64),
        ) {
            let _ = decode_runs(&bytes);
            let mut segment = multi_series_segment();
            segment.bytes.extend_from_slice(&bytes);
            let _ = decode_runs(&segment.bytes);
        }

        /// Flipping any bits of any one byte of a valid multi-series
        /// segment never panics the decoder.
        #[test]
        fn single_byte_flips_never_panic_the_decoder(mask in 1u8..255) {
            let segment = multi_series_segment();
            for i in 0..segment.bytes.len() {
                let mut bytes = segment.bytes.clone();
                bytes[i] ^= mask;
                let _ = decode_runs(&bytes);
            }
        }
    }

    /// A valid segment naming three series, each more than once, with
    /// deltas of both signs and an extreme timestamp.
    fn multi_series_segment() -> Segment {
        let mut segment = Segment::empty();
        for i in 0..9i64 {
            let ts = if i == 4 { i64::MIN } else { 1_000 - 300 * i };
            let entries = [LogEntry::new(ts, format!("line {i}")), LogEntry::new(ts + 7, "ü")];
            segment.push_run(&labels!("app" => "x", "n" => format!("{}", i % 3)), &entries);
        }
        segment
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
        // A new series (ref 0) with one label whose key length is a
        // ten-byte varint (`u64::MAX`).
        wal.edit_segment(0, |bytes| {
            *bytes = vec![
                0x00, 0x01, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x01, b'a', b'b',
                b'c',
            ];
        });
        assert_eq!(wal.replay(), Err(CorruptBlock("string runs past buffer end")));
    }

    #[test]
    fn a_ref_beyond_the_table_is_an_error() {
        // A first run naming series 1 — or 2⁶⁴ − 1 — when the table is empty.
        assert_eq!(
            decode_runs(&[0x01, 0x01, 0x00, 0x00]),
            Err(CorruptBlock("wal series ref beyond the segment's table"))
        );
        let mut huge = vec![0xff; 9];
        huge.extend([0x01, 0x01, 0x00, 0x00]);
        assert!(decode_runs(&huge).is_err());
        // A valid run defining series 0, then one naming series 2 (1
        // would introduce the next series).
        let mut segment = Segment::empty();
        segment.push_run(&labels!("app" => "x"), &[LogEntry::new(1, "a")]);
        let mut bytes = segment.bytes.clone();
        bytes.extend([0x02, 0x01, 0x00, 0x00]);
        assert_eq!(
            decode_runs(&bytes),
            Err(CorruptBlock("wal series ref beyond the segment's table"))
        );
        // The same run naming series 0 resolves against the table.
        bytes[segment.bytes.len()] = 0x00;
        assert_eq!(decode_runs(&bytes).unwrap()[1].0, labels!("app" => "x"));
    }

    #[test]
    fn a_new_series_with_truncated_labels_is_an_error() {
        let mut segment = Segment::empty();
        segment.push_run(&labels!("app" => "x", "host" => "nid001"), &[LogEntry::new(1, "a")]);
        // Cut anywhere from just after the ref to just before the entry
        // count (the last 4 bytes are the count and the one entry).
        let labels_end = segment.bytes.len() - 4;
        for cut in 1..labels_end {
            assert!(decode_runs(&segment.bytes[..cut]).is_err(), "cut at {cut}");
        }
        assert!(decode_runs(&segment.bytes).is_ok());
    }

    #[test]
    fn a_delta_past_i64_wraps_instead_of_overflowing() {
        // Two deltas of `i64::MAX`, then one of `i64::MIN` (zigzag
        // `u64::MAX`): every step wraps, and the run decodes.
        let mut bytes = vec![0x00, 0x00, 0x03];
        for delta in [i64::MAX, i64::MAX, i64::MIN] {
            put_uvarint(&mut bytes, zigzag(delta));
            bytes.push(0x00);
        }
        let runs = decode_runs(&bytes).unwrap();
        let ts: Vec<i64> = runs[0].1.iter().map(|e| e.ts).collect();
        assert_eq!(ts, vec![i64::MAX, -2, i64::MAX - 1]);
        // And the encoder writes the same wrapped deltas for the extremes.
        let mut segment = Segment::empty();
        let extremes = [i64::MIN, i64::MAX, i64::MIN, 0].map(|ts| LogEntry::new(ts, ""));
        segment.push_run(&LabelSet::new(), &extremes);
        assert_eq!(
            decode_runs(&segment.bytes).unwrap(),
            vec![(LabelSet::new(), extremes.to_vec())]
        );
    }

    #[test]
    fn a_segment_writes_each_label_set_once() {
        // 50 one-entry runs cycling 3 label sets into one segment: each
        // label set's bytes appear once, so 3 label sets are written in
        // all, and every other run is a 1-byte ref, a 1-byte count and its
        // entry (ts < 64, so a 1-byte delta from 0; a 1-byte length).
        let wal = Wal::new();
        let records: Vec<LogRecord> = (0..50).map(record).collect();
        for r in &records {
            append(&wal, r);
        }
        assert_eq!(wal.segment_count(), 1);
        let segments = wal.segments.lock();
        let bytes = &segments[0].bytes;
        let mut label_bytes = 0;
        for n in [b'0', b'1', b'2'] {
            // `{app="x", n="<n>"}` as `put_labels` lays it out.
            let encoded = [2, 3, b'a', b'p', b'p', 1, b'x', 1, b'n', 1, n];
            assert_eq!(bytes.windows(encoded.len()).filter(|w| *w == encoded).count(), 1);
            label_bytes += encoded.len();
        }
        let line_bytes: usize = records.iter().map(|r| r.entry.line.len()).sum();
        assert_eq!(bytes.len(), label_bytes + 50 * 4 + line_bytes);
    }
}
