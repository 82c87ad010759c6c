//! The tiered chunk reader: the one path from a stream's chunks to its
//! entries, under every query shape.
//!
//! "Chunks are first stored in memory, and then moved to disk" (§IV-A),
//! then compacted — so one stream's entries sit in up to four tiers, and
//! the reader walks them **oldest tier first: cold (compacted) → hot
//! (offloaded) → sealed-in-memory → head**. Chunks only ever move
//! towards the older tier, oldest chunk first, and each tier lists its
//! chunks in arrival order, so the concatenation is the stream's arrival
//! order and the caller's stable sort by timestamp (needed only when a
//! WAL replay re-created chunks that are also on disk) keeps
//! equal-timestamp entries in arrival order across every tier boundary.
//!
//! The window is `(start, end]`. What misses it is pruned at three
//! levels, exactly once each: a store object by its **key span** (no GET,
//! counted in `skipped_by_key`), a chunk by its **header span** (not
//! counted), a block by its **block span** (counted in `blocks_skipped`).
//! Everything else is decoded through [`SealedChunk::decode_range`], and
//! a chunk that fails to decode — object header or block container — is
//! handled in one place, `read_chunk`: its entries are withheld and
//! `chunks_corrupt` says so, instead of the read silently coming up short.
//!
//! The walk comes in two halves because of the shard lock: the ingester
//! runs `read_memory` under its read lock and `read_store` only after
//! dropping it — a cold-tier GET can block, and must never stall ingest.

use crate::chunk::SealedChunk;
use crate::chunkstore::{object_to_chunk, ChunkStore};
use crate::compress::CorruptBlock;
use crate::stream::Stream;
use omni_model::{LabelSet, LogEntry, Timestamp};
use std::borrow::Borrow;

/// Execution statistics for one query, mirroring the shape of Loki's
/// statistics API: scan volume (streams/entries/bytes), filled by the
/// engine, plus storage-side cost (chunks touched, blocks decoded vs.
/// skipped by the per-block timestamp index, uncompressed bytes
/// produced), filled by the reader — the one struct every layer adds to.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct QueryStats {
    /// Streams whose labels matched the selector. When the frontend
    /// splits a query, a stream counts once per split that scanned it.
    pub streams_matched: usize,
    /// Entries decompressed and scanned.
    pub entries_scanned: usize,
    /// Line bytes processed.
    pub bytes_scanned: usize,
    /// Entries actually returned after direction-aware limiting.
    pub entries_returned: usize,
    /// Sealed chunks (memory or durable tier) overlapping the window.
    pub chunks_touched: usize,
    /// Of those, chunks fetched from the cold (compacted) tier — each one
    /// cost a simulated remote object-store GET.
    pub cold_chunks_touched: usize,
    /// Store objects pruned from their key span alone, bodies never read.
    pub skipped_by_key: usize,
    /// Chunks that failed to decode; their entries are missing from the
    /// result.
    pub chunks_corrupt: usize,
    /// Compressed blocks actually decompressed.
    pub blocks_decoded: usize,
    /// Compressed blocks skipped via their min/max timestamp headers.
    pub blocks_skipped: usize,
    /// Uncompressed bytes produced by block decodes.
    pub decompressed_bytes: usize,
    /// Post-pipeline entries moved from the shard scans to the merge
    /// point. Log queries ship what they return; metric queries ship
    /// nothing — that is the entire point of pushing aggregation down.
    pub entries_shipped: usize,
    /// Per-shard partial aggregates merged at the reduce step (metric
    /// queries only).
    pub partials_merged: usize,
}

impl QueryStats {
    /// Fold another query's stats into this one (shards into a query,
    /// splits into the frontend's report).
    pub fn absorb(&mut self, other: QueryStats) {
        self.streams_matched += other.streams_matched;
        self.entries_scanned += other.entries_scanned;
        self.bytes_scanned += other.bytes_scanned;
        self.entries_returned += other.entries_returned;
        self.chunks_touched += other.chunks_touched;
        self.cold_chunks_touched += other.cold_chunks_touched;
        self.skipped_by_key += other.skipped_by_key;
        self.chunks_corrupt += other.chunks_corrupt;
        self.blocks_decoded += other.blocks_decoded;
        self.blocks_skipped += other.blocks_skipped;
        self.decompressed_bytes += other.decompressed_bytes;
        self.entries_shipped += other.entries_shipped;
        self.partials_merged += other.partials_merged;
    }
}

/// Append one chunk's entries in `(start, end]` to `out` — the single
/// decode site, and the single place a read-path `Err` lands.
fn read_chunk(
    chunk: Result<impl Borrow<SealedChunk>, CorruptBlock>,
    cold: bool,
    start: Timestamp,
    end: Timestamp,
    stats: &mut QueryStats,
    out: &mut Vec<LogEntry>,
) {
    let decoded = chunk.and_then(|chunk| {
        let chunk = chunk.borrow();
        if !chunk.overlaps(start, end) {
            return Ok(Vec::new());
        }
        stats.chunks_touched += 1;
        stats.cold_chunks_touched += usize::from(cold);
        chunk.decode_range(start, end, stats)
    });
    match decoded {
        Ok(mut entries) => out.append(&mut entries),
        Err(_) => stats.chunks_corrupt += 1,
    }
}

/// The memory half of the walk: one stream's sealed chunks, then its
/// head, in `(start, end]`. Touches no store, so it may run under the
/// shard lock.
pub(crate) fn read_memory(
    stream: &Stream,
    start: Timestamp,
    end: Timestamp,
    stats: &mut QueryStats,
) -> Vec<LogEntry> {
    let mut out = Vec::new();
    for chunk in stream.sealed_chunks() {
        read_chunk(Ok(chunk), false, start, end, stats, &mut out);
    }
    out.extend(stream.head().entries_in(start, end));
    out
}

/// The store half of the walk: one stream's cold objects, then its hot
/// ones, in `(start, end]`. Objects whose key span misses the window are
/// never fetched, so a narrow window over a long-lived stream costs
/// O(overlap) GETs, not O(stream history).
pub(crate) fn read_store(
    store: &ChunkStore,
    labels: &LabelSet,
    start: Timestamp,
    end: Timestamp,
    stats: &mut QueryStats,
) -> Vec<LogEntry> {
    let mut out = Vec::new();
    for (tier, cold) in [(store.cold(), true), (store.objects(), false)] {
        for key in tier.chunk_refs(labels) {
            // `(start, end]`, mirroring `SealedChunk::overlaps`.
            if key.max_ts <= start || key.min_ts > end {
                stats.skipped_by_key += 1;
            } else if let Some(data) = tier.get(&key) {
                read_chunk(object_to_chunk(&data), cold, start, end, stats, &mut out);
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ingester::Ingester;
    use crate::limits::Limits;
    use omni_logql::parse_selector;
    use omni_model::{labels, LogRecord};

    /// A corrupt chunk is counted, not swallowed: the good chunk's entries
    /// come back and `chunks_corrupt` reports the one that did not —
    /// whether the stream is known in memory or only to the series index.
    #[test]
    fn corrupt_store_chunk_is_counted_and_the_rest_still_answers() {
        let limits = Limits { chunk_target_bytes: 16, ..Default::default() };
        let labels = labels!("app" => "x");
        let sel = parse_selector(r#"{app="x"}"#).unwrap();
        for corrupt_header in [false, true] {
            let store = ChunkStore::new();
            let ing = Ingester::with_store(limits.clone(), Some(store.clone()));
            for (ts, line) in [(10, "good line, sixteen+"), (20, "doomed line, sixteen+")] {
                ing.append(LogRecord::new(labels.clone(), ts, line)).unwrap();
            }
            assert_eq!(ing.offload(100), 2);
            let key = store.objects().chunk_refs(&labels)[1].clone();
            let mut data = store.objects().get(&key).unwrap().to_vec();
            if corrupt_header {
                data.pop(); // the object header's length check fails
            } else {
                let container_at = data.len() - object_to_chunk(&data).unwrap().raw_block().len();
                data[container_at] = 0x7f; // header parses, the block container does not
            }
            store.objects().put(key, data.into());

            let memory_known = ing.query_stats(&sel, 0, 100);
            let index_only =
                Ingester::with_store(limits.clone(), Some(store)).query_stats(&sel, 0, 100);
            for (streams, stats) in [memory_known, index_only] {
                assert_eq!(
                    streams,
                    [(labels.clone(), vec![LogEntry::new(10, "good line, sixteen+")])]
                );
                assert_eq!(stats.chunks_corrupt, 1);
                // A chunk is touched once its header says it overlaps.
                assert_eq!(stats.chunks_touched, 2 - usize::from(corrupt_header));
            }
        }
    }
}
