//! The compactor: Loki's background housekeeping job, reproduced on the
//! virtual clock.
//!
//! Real Loki runs a single compactor against the shared object store. On
//! each interval it (a) merges the many small per-stream chunks the
//! ingesters flushed into few large objects, (b) deduplicates the
//! replicated/replayed chunks that land twice, and (c) executes
//! per-tenant retention as deletes against storage. This module does the
//! same over the [`ChunkStore`]'s two tiers:
//!
//! * **merge** — sealed chunks of one stream whose newest entry is older
//!   than `compact_after_ns` are decoded, concatenated in key order
//!   (which *is* time order: a [`crate::chunkstore::ChunkKey`] sorts by
//!   span),
//!   stably re-sorted by timestamp, and re-cut into objects of
//!   `compacted_target_bytes`;
//! * **dedup** — byte-identical same-span source chunks (the artifact a
//!   WAL replay leaves when a crash lands between `persist` and the
//!   checkpoint) collapse to one copy. Because dedup changes query
//!   results, the run reports the affected window so the caller can
//!   invalidate the frontend's result cache over exactly that span;
//! * **demote** — compacted objects are written to the simulated cold
//!   tier (an [`crate::chunkstore::ObjectTier`] under a
//!   [`crate::chunkstore::ColdTierPolicy`] transient-failure model) and
//!   the merged hot sources are deleted;
//! * **retention** — each series' horizon (per-tenant, resolved from the
//!   stream labels by the caller) is applied as key-span deletes across
//!   both tiers, replacing the old eager per-shard store sweeps.
//!
//! Dedup is deliberately *chunk*-level, not entry-level: two entries with
//! the same timestamp and line are legitimate data (syslog bursts repeat
//! verbatim), and collapsing them would make the compacted tier disagree
//! with the head/sealed tiers. Only byte-identical whole chunks — which
//! can only be the same flush persisted twice — are dropped.

use crate::chunk::SealedChunk;
use crate::chunkstore::{object_to_chunk, ChunkKey, ChunkStore};
use omni_model::{LabelSet, LogEntry, Timestamp};
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// What one compaction run did.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CompactionReport {
    /// Streams whose hot chunks were examined.
    pub streams_examined: usize,
    /// Source hot chunks merged into compacted objects.
    pub chunks_merged: usize,
    /// Compacted objects written to the cold tier.
    pub objects_written: usize,
    /// Byte-identical duplicate chunks dropped during the merge.
    pub duplicates_dropped: usize,
    /// Objects deleted (both tiers) by per-tenant retention.
    pub retention_deleted: usize,
    /// Stored bytes removed from the hot tier by this run.
    pub hot_bytes_removed: usize,
    /// Stored bytes added to the cold tier by this run.
    pub cold_bytes_added: usize,
    /// Time window whose query results changed because duplicates were
    /// dropped — the caller must invalidate cached results over it.
    pub dedup_window: Option<(Timestamp, Timestamp)>,
}

#[derive(Default)]
struct CompactorTotals {
    runs: AtomicU64,
    chunks_merged: AtomicU64,
    objects_written: AtomicU64,
    duplicates_dropped: AtomicU64,
    retention_deleted: AtomicU64,
}

/// Lifetime counters across every run (feeds `omni_compactor_*`
/// self-telemetry).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CompactorStats {
    /// Completed compaction runs.
    pub runs: u64,
    /// Source hot chunks merged into compacted objects.
    pub chunks_merged: u64,
    /// Compacted objects written to the cold tier.
    pub objects_written: u64,
    /// Byte-identical duplicate chunks dropped.
    pub duplicates_dropped: u64,
    /// Objects deleted by retention.
    pub retention_deleted: u64,
}

/// The background compaction job. Cheap to clone; clones share counters
/// and operate on the same (shared) chunk store.
#[derive(Clone)]
pub struct Compactor {
    store: ChunkStore,
    /// Only chunks whose `max_ts` is at least this far behind `now`
    /// are merged.
    compact_after_ns: i64,
    /// Target uncompressed bytes of one compacted object.
    target_bytes: usize,
    totals: Arc<CompactorTotals>,
}

impl Compactor {
    /// A compactor over `store`.
    pub fn new(store: ChunkStore, compact_after_ns: i64, target_bytes: usize) -> Self {
        Self {
            store,
            compact_after_ns,
            target_bytes: target_bytes.max(1),
            totals: Arc::new(CompactorTotals::default()),
        }
    }

    /// Lifetime counters.
    pub fn stats(&self) -> CompactorStats {
        CompactorStats {
            runs: self.totals.runs.load(Ordering::Relaxed),
            chunks_merged: self.totals.chunks_merged.load(Ordering::Relaxed),
            objects_written: self.totals.objects_written.load(Ordering::Relaxed),
            duplicates_dropped: self.totals.duplicates_dropped.load(Ordering::Relaxed),
            retention_deleted: self.totals.retention_deleted.load(Ordering::Relaxed),
        }
    }

    /// Execute per-series retention as storage deletes: every chunk of
    /// every series (both tiers) entirely older than that stream's
    /// horizon goes. `retention_of(labels)` names the horizon — the
    /// per-tenant resolution the caller builds from its tenant registry.
    /// Returns objects deleted.
    pub fn apply_retention(
        &self,
        now: Timestamp,
        retention_of: &(dyn Fn(&LabelSet) -> i64 + Sync),
    ) -> usize {
        let mut deleted = 0;
        for labels in self.store.series() {
            let horizon = now.saturating_sub(retention_of(&labels));
            deleted += self.store.delete_before(&labels, horizon);
        }
        self.totals.retention_deleted.fetch_add(deleted as u64, Ordering::Relaxed);
        deleted
    }

    /// One full compaction run at virtual time `now`: retention deletes
    /// first (no point merging data that is about to expire), then
    /// merge + dedup + demote per series.
    pub fn run(
        &self,
        now: Timestamp,
        retention_of: &(dyn Fn(&LabelSet) -> i64 + Sync),
    ) -> CompactionReport {
        let mut report = CompactionReport {
            retention_deleted: self.apply_retention(now, retention_of),
            ..Default::default()
        };
        let cutoff = now.saturating_sub(self.compact_after_ns);

        for labels in self.store.series() {
            let eligible: Vec<ChunkKey> = self
                .store
                .objects()
                .chunk_refs(&labels)
                .into_iter()
                .filter(|key| key.max_ts < cutoff)
                .collect();
            if eligible.len() < 2 {
                // Nothing to merge; a lone cold chunk stays hot rather
                // than paying a rewrite for zero consolidation.
                continue;
            }
            report.streams_examined += 1;

            // Decode sources in key (= time) order, dropping
            // byte-identical same-span duplicates.
            let mut seen: HashMap<(Timestamp, Timestamp), Vec<bytes::Bytes>> = HashMap::new();
            let mut entries: Vec<LogEntry> = Vec::new();
            let mut source_keys: Vec<ChunkKey> = Vec::new();
            let mut merged_here = 0usize;
            for key in eligible {
                let Some(data) = self.store.objects().get(&key) else { continue };
                let span_seen = seen.entry((key.min_ts, key.max_ts)).or_default();
                if span_seen.contains(&data) {
                    report.duplicates_dropped += 1;
                    report.dedup_window = Some(match report.dedup_window {
                        Some((lo, hi)) => (lo.min(key.min_ts), hi.max(key.max_ts)),
                        None => (key.min_ts, key.max_ts),
                    });
                    report.hot_bytes_removed += data.len();
                    source_keys.push(key);
                    continue;
                }
                // A source that does not decode stays where it is: merging
                // what is left of it would destroy the only copy.
                let Ok(mut decoded) = object_to_chunk(&data).and_then(|chunk| chunk.decode())
                else {
                    continue;
                };
                entries.append(&mut decoded);
                report.hot_bytes_removed += data.len();
                span_seen.push(data);
                source_keys.push(key);
                merged_here += 1;
            }
            if merged_here == 0 {
                continue;
            }
            report.chunks_merged += merged_here;

            // Key order already gives time order across chunks; the
            // stable sort fixes interleaved spans while preserving the
            // persist order of equal-timestamp entries — which is what
            // keeps compacted query results identical to sealed ones.
            entries.sort_by_key(|e| e.ts);

            // Re-cut into large objects and demote to the cold tier.
            let mut batch: Vec<LogEntry> = Vec::new();
            let mut batch_bytes = 0usize;
            let flush = |batch: &mut Vec<LogEntry>, report: &mut CompactionReport| {
                if batch.is_empty() {
                    return;
                }
                let chunk = SealedChunk::from_entries(batch);
                report.cold_bytes_added += chunk.compressed_size();
                self.store.put_compacted(&labels, &chunk);
                report.objects_written += 1;
                batch.clear();
            };
            for e in entries {
                batch_bytes += e.line.len();
                batch.push(e);
                if batch_bytes >= self.target_bytes {
                    flush(&mut batch, &mut report);
                    batch_bytes = 0;
                }
            }
            flush(&mut batch, &mut report);

            // Only now that the compacted copies exist do the sources go.
            for key in source_keys {
                self.store.objects().delete(&key);
            }
        }

        self.totals.runs.fetch_add(1, Ordering::Relaxed);
        self.totals.chunks_merged.fetch_add(report.chunks_merged as u64, Ordering::Relaxed);
        self.totals.objects_written.fetch_add(report.objects_written as u64, Ordering::Relaxed);
        self.totals
            .duplicates_dropped
            .fetch_add(report.duplicates_dropped as u64, Ordering::Relaxed);
        report
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reader::{read_store, QueryStats};
    use omni_model::labels;

    fn chunk(lines: usize, base_ts: Timestamp) -> SealedChunk {
        let entries: Vec<LogEntry> =
            (0..lines).map(|i| LogEntry::new(base_ts + i as i64, format!("line {i}"))).collect();
        SealedChunk::from_entries(&entries)
    }

    /// Everything the store holds for one stream, as the reader sees it.
    fn stored(store: &ChunkStore, labels: &LabelSet) -> Vec<LogEntry> {
        read_store(store, labels, i64::MIN, i64::MAX, &mut QueryStats::default())
    }

    /// The one stream of [`store_with_stream`].
    fn x() -> LabelSet {
        labels!("app" => "x")
    }

    fn store_with_stream(chunks: usize) -> ChunkStore {
        let store = ChunkStore::new();
        store.register_series(&x());
        for i in 0..chunks {
            store.persist(&x(), &chunk(10, i as i64 * 1_000));
        }
        store
    }

    #[test]
    fn merges_small_chunks_into_cold_objects() {
        let store = store_with_stream(8);
        let compactor = Compactor::new(store.clone(), 0, usize::MAX);
        let before = stored(&store, &x());
        let report = compactor.run(1_000_000, &|_| i64::MAX);
        assert_eq!(report.chunks_merged, 8);
        assert_eq!(report.objects_written, 1, "everything fits one compacted object");
        assert_eq!(store.objects().object_count(), 0, "hot sources deleted");
        assert_eq!(store.cold().object_count(), 1);
        let after = stored(&store, &x());
        assert_eq!(before.len(), after.len());
        assert_eq!(before, after, "compaction must not change query results");
        assert_eq!(compactor.stats().runs, 1);
    }

    #[test]
    fn respects_compact_after_age_gate() {
        let store = store_with_stream(4); // spans up to ts 3009
        let compactor = Compactor::new(store.clone(), 10_000, usize::MAX);
        // now=5_000 → cutoff -5_000: nothing old enough.
        let report = compactor.run(5_000, &|_| i64::MAX);
        assert_eq!(report.chunks_merged, 0);
        assert_eq!(store.cold().object_count(), 0);
        // now=12_500 → cutoff 2_500: the first three chunks qualify.
        let report = compactor.run(12_500, &|_| i64::MAX);
        assert_eq!(report.chunks_merged, 3);
        assert_eq!(store.objects().object_count(), 1);
    }

    #[test]
    fn cuts_at_target_bytes() {
        let store = store_with_stream(6);
        // ~70 uncompressed bytes per source chunk; a 150-byte target
        // forces multiple compacted objects.
        let compactor = Compactor::new(store.clone(), 0, 150);
        let report = compactor.run(1_000_000, &|_| i64::MAX);
        assert!(report.objects_written >= 2, "got {}", report.objects_written);
        assert_eq!(stored(&store, &x()).len(), 60);
    }

    #[test]
    fn dedups_byte_identical_replay_chunks_only() {
        let store = ChunkStore::new();
        store.register_series(&x());
        let replayed = chunk(10, 0);
        store.persist(&x(), &replayed);
        store.persist(&x(), &replayed); // the WAL-replay double persist
                                        // Same span, different payload: two distinct bursts, both kept.
        let burst_a = SealedChunk::from_entries(&[LogEntry::new(5_000, "burst A")]);
        let burst_b = SealedChunk::from_entries(&[LogEntry::new(5_000, "burst B")]);
        store.persist(&x(), &burst_a);
        store.persist(&x(), &burst_b);
        let compactor = Compactor::new(store.clone(), 0, usize::MAX);
        let report = compactor.run(1_000_000, &|_| i64::MAX);
        assert_eq!(report.duplicates_dropped, 1, "only the replayed copy is a duplicate");
        assert_eq!(report.dedup_window, Some((0, 9)));
        let entries = stored(&store, &x());
        assert_eq!(entries.len(), 12, "10 unique + both same-span bursts");
        assert_eq!(entries.iter().filter(|e| e.line.starts_with("burst")).count(), 2);
    }

    /// Regression: a source whose object header parses but whose block
    /// container does not used to be "merged" as zero entries and then
    /// deleted with the rest — the compactor destroyed the only copy.
    #[test]
    fn undecodable_source_is_left_in_place() {
        let store = store_with_stream(6);
        let key = store.objects().chunk_refs(&x())[2].clone();
        let mut data = store.objects().get(&key).unwrap().to_vec();
        let container_at = data.len() - object_to_chunk(&data).unwrap().raw_block().len();
        data[container_at] = 0x7f; // a block count no container this small can hold
        assert!(object_to_chunk(&data).unwrap().decode().is_err());
        store.objects().put(key.clone(), bytes::Bytes::from(data.clone()));
        let hot_before = store.objects().stored_bytes();

        let report = Compactor::new(store.clone(), 0, usize::MAX).run(1_000_000, &|_| i64::MAX);
        assert_eq!(report.chunks_merged, 5, "the other five merge");
        assert_eq!(report.objects_written, 1);
        assert_eq!(store.objects().get(&key).as_deref(), Some(&data[..]), "the only copy survives");
        assert_eq!(store.objects().chunk_refs(&x()).len(), 1);
        assert_eq!(report.hot_bytes_removed, hot_before - store.objects().stored_bytes());
        // The survivors still answer, and the read says what it could not.
        let mut stats = QueryStats::default();
        assert_eq!(read_store(&store, &x(), i64::MIN, i64::MAX, &mut stats).len(), 50);
        assert_eq!((stats.chunks_touched, stats.chunks_corrupt), (2, 1));
    }

    #[test]
    fn retention_deletes_across_both_tiers_per_stream() {
        let store = ChunkStore::new();
        let short = labels!("app" => "short", "__tenant__" => "t1");
        let long = labels!("app" => "long", "__tenant__" => "t2");
        store.register_series(&short);
        store.register_series(&long);
        store.persist(&short, &chunk(10, 0));
        store.put_compacted(&short, &chunk(10, 2_000));
        store.persist(&long, &chunk(10, 0));
        let compactor = Compactor::new(store.clone(), i64::MAX, usize::MAX);
        // t1 keeps 1_000ns of data, t2 keeps everything.
        let resolve = |labels: &LabelSet| {
            if labels.get("__tenant__") == Some("t1") {
                1_000
            } else {
                i64::MAX
            }
        };
        let deleted = compactor.apply_retention(10_000, &resolve);
        assert_eq!(deleted, 2, "t1's hot and cold chunks both expire");
        assert!(stored(&store, &short).is_empty());
        assert_eq!(stored(&store, &long).len(), 10);
        assert_eq!(compactor.stats().retention_deleted, 2);
    }

    #[test]
    fn lone_chunks_are_left_alone() {
        let store = store_with_stream(1);
        let compactor = Compactor::new(store.clone(), 0, usize::MAX);
        let report = compactor.run(1_000_000, &|_| i64::MAX);
        assert_eq!(report.chunks_merged, 0);
        assert_eq!(store.objects().object_count(), 1);
        assert_eq!(store.cold().object_count(), 0);
    }
}
