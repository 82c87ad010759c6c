//! The chunk object store: "Chunks are first stored in memory, and then
//! moved to disk" (§IV-A).
//!
//! Real Loki offloads sealed chunks to an object store (S3/GCS/filesystem)
//! and keeps only the label index plus recent chunks in the ingesters.
//! This module provides the same split — plus the compacted tier the
//! compactor writes:
//!
//! * [`ObjectTier`], the one object-store type both tiers are values of:
//!   the hot "disk" tier sealed chunks are offloaded into (no policy —
//!   local disk is free and never fails; it also holds the durable series
//!   index), and the cold tier compacted chunks are demoted to (under a
//!   [`ColdTierPolicy`]: a deterministic transient-failure model — the
//!   `core::chaos` coin, applied to object reads; what a cold read costs
//!   is priced by the query path, not here);
//! * the serialization of [`SealedChunk`]s into self-describing objects.
//!
//! Reads go through [`crate::reader`], which walks both tiers oldest
//! first; this module only stores, lists and deletes.
//!
//! ## Key scheme
//!
//! One chunk object's key is a [`ChunkKey`] `(labels, min_ts, max_ts,
//! seq)`, the same type in both tiers. A stream is named by its label set
//! — one `Arc`, the same size as the fingerprint it replaced — so two
//! streams whose fingerprints collide keep their chunks apart. Its order
//! is stream (fingerprint, then labels), then time order — signed, so
//! pre-epoch spans sort first — then persist order, so a tier's map lists
//! one stream's chunks oldest first with no key to format or parse. `seq`
//! is a store-wide monotonic counter making every persisted chunk's key
//! unique: two chunks of one stream with the identical `(min_ts, max_ts)`
//! span (easy with same-timestamp bursts, or a WAL replay re-offloading a
//! chunk) get distinct keys instead of silently overwriting each other.
//!
//! Because the span is part of the key, range reads and retention deletes
//! prune non-overlapping objects from the listing alone — without
//! fetching or decoding a single object body.
//!
//! The durable series index is the hot tier's `labels → encoded size`
//! map, held typed: registering a stream writes its entry once, and
//! listing the index fetches and decodes nothing. No store function takes
//! a fingerprint: the fingerprint is only placement (which ingester is a
//! stream's home) and the cold tier's failure-coin salt.

use crate::chunk::SealedChunk;
use crate::compress::{get_uvarint, put_labels, put_uvarint, unzigzag, zigzag, CorruptBlock};
use bytes::Bytes;
use omni_model::lockwitness::{classes, OrderedRwLock};
use omni_model::{fnv1a64, LabelSet, Timestamp};
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// One chunk object's key: its stream, the span of its entries, and the
/// store-wide sequence number of its persist. Field order is sort order,
/// except that streams sort by fingerprint before their labels: one `u64`
/// decides almost every comparison a map lookup makes, and the labels
/// decide the rest, so a collision still never merges two streams.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ChunkKey {
    /// The stream's label set.
    pub labels: LabelSet,
    /// First entry timestamp.
    pub min_ts: Timestamp,
    /// Last entry timestamp.
    pub max_ts: Timestamp,
    /// Store-wide persist sequence: same-span chunks stay distinct.
    pub seq: u64,
}

impl Ord for ChunkKey {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        let span = |k: &Self| (k.min_ts, k.max_ts, k.seq);
        (self.labels.fingerprint().cmp(&other.labels.fingerprint()))
            .then_with(|| self.labels.cmp(&other.labels))
            .then_with(|| span(self).cmp(&span(other)))
    }
}

impl PartialOrd for ChunkKey {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

/// Transient-failure model of the cold (compacted) tier — an S3-style
/// remote object store rather than local disk. Mirrors the
/// deterministic permille coin of `core::chaos`: whether a given object's
/// first read fails transiently is a pure function of `(seed, key)`, so a
/// fixed-seed run produces identical retry counts regardless of query
/// thread interleaving.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ColdTierPolicy {
    /// Permille of objects whose first GET attempt fails transiently
    /// (the retry always succeeds — availability, not durability).
    pub fail_permille: u16,
    /// Seed of the failure coin.
    pub seed: u64,
}

impl ColdTierPolicy {
    /// Whether this key's first GET attempt fails under the policy coin.
    fn first_attempt_fails(&self, key: &ChunkKey) -> bool {
        if self.fail_permille == 0 {
            return false;
        }
        let fp = key.labels.fingerprint();
        let fields = [self.seed, fp, key.min_ts as u64, key.max_ts as u64, key.seq];
        let buf: Vec<u8> = fields.iter().flat_map(|f| f.to_le_bytes()).collect();
        (fnv1a64(&buf) % 1_000) < self.fail_permille as u64
    }
}

/// What one tier's lock guards: its chunk objects and — in the hot tier —
/// the series index, each stream's labels with their encoded size.
#[derive(Default)]
struct TierObjects {
    chunks: BTreeMap<ChunkKey, Bytes>,
    series_index: BTreeMap<LabelSet, usize>,
}

/// One in-memory object tier, with byte/object/operation accounting for
/// the experiments. The hot tier runs without a policy; the cold tier
/// rolls its [`ColdTierPolicy`] coin on every GET, and every transient
/// failure is counted so the drill can surface the tier's retries.
pub struct ObjectTier {
    objects: OrderedRwLock<TierObjects>,
    puts: AtomicU64,
    gets: AtomicU64,
    policy: OrderedRwLock<Option<ColdTierPolicy>>,
    /// First-attempt GET failures (each retried once, successfully).
    transient_failures: AtomicU64,
}

impl ObjectTier {
    fn new(policy: Option<ColdTierPolicy>) -> Self {
        Self {
            objects: OrderedRwLock::new(&classes::LOKI_STORE_OBJECTS, TierObjects::default()),
            puts: AtomicU64::new(0),
            gets: AtomicU64::new(0),
            policy: OrderedRwLock::new(&classes::LOKI_COLD_POLICY, policy),
            transient_failures: AtomicU64::new(0),
        }
    }

    /// Replace the failure policy (chaos scenarios flip this at
    /// runtime, exactly like `ChaosAction`s flip bus fault windows).
    pub fn set_policy(&self, policy: ColdTierPolicy) {
        *self.policy.write() = Some(policy);
    }

    fn policy(&self) -> Option<ColdTierPolicy> {
        *self.policy.read()
    }

    /// Number of stored chunk objects.
    pub fn object_count(&self) -> usize {
        self.objects.read().chunks.len()
    }

    /// Total stored bytes: chunk objects, plus each series-index entry at
    /// its encoded size.
    pub fn stored_bytes(&self) -> usize {
        let objects = self.objects.read();
        objects.chunks.values().map(|b| b.len()).sum::<usize>()
            + objects.series_index.values().sum::<usize>()
    }

    /// `(puts, gets)` operation counters (gets count every attempt).
    pub fn op_counts(&self) -> (u64, u64) {
        (self.puts.load(Ordering::Relaxed), self.gets.load(Ordering::Relaxed))
    }

    /// First-attempt GET failures injected so far.
    pub fn transient_failures(&self) -> u64 {
        self.transient_failures.load(Ordering::Relaxed)
    }

    /// Store an object.
    pub fn put(&self, key: ChunkKey, data: Bytes) {
        self.puts.fetch_add(1, Ordering::Relaxed);
        self.objects.write().chunks.insert(key, data);
    }

    /// Fetch an object.
    pub fn get(&self, key: &ChunkKey) -> Option<Bytes> {
        if self.policy().is_some_and(|policy| policy.first_attempt_fails(key)) {
            // Transient: count it (the failed attempt is still a GET);
            // the retry always succeeds.
            self.transient_failures.fetch_add(1, Ordering::Relaxed);
            self.gets.fetch_add(1, Ordering::Relaxed);
        }
        self.gets.fetch_add(1, Ordering::Relaxed);
        self.objects.read().chunks.get(key).cloned()
    }

    /// Delete an object; returns whether it existed.
    pub fn delete(&self, key: &ChunkKey) -> bool {
        self.objects.write().chunks.remove(key).is_some()
    }

    /// Chunk keys of one stream in this tier, in key order — which is
    /// time order, then persist order (the reader's and the compactor's
    /// ordered scan).
    pub fn chunk_refs(&self, labels: &LabelSet) -> Vec<ChunkKey> {
        let bound = |ts, seq| ChunkKey { labels: labels.clone(), min_ts: ts, max_ts: ts, seq };
        let range = bound(Timestamp::MIN, 0)..=bound(Timestamp::MAX, u64::MAX);
        self.objects.read().chunks.range(range).map(|(key, _)| key.clone()).collect()
    }
}

/// Serialize a sealed chunk into a self-describing object:
/// varint header (count, min_ts, max_ts, uncompressed, data_len) + block.
pub fn chunk_to_object(chunk: &SealedChunk) -> Bytes {
    let data = chunk.raw_block();
    let mut out = Vec::with_capacity(data.len() + 24);
    put_uvarint(&mut out, chunk.count as u64);
    put_uvarint(&mut out, zigzag(chunk.min_ts));
    put_uvarint(&mut out, zigzag(chunk.max_ts));
    put_uvarint(&mut out, chunk.uncompressed as u64);
    put_uvarint(&mut out, data.len() as u64);
    out.extend_from_slice(data);
    Bytes::from(out)
}

/// Decode an object back into a sealed chunk.
pub fn object_to_chunk(data: &[u8]) -> Result<SealedChunk, CorruptBlock> {
    let mut pos = 0;
    let (count, n) = get_uvarint(&data[pos..])?;
    pos += n;
    let (min_z, n) = get_uvarint(&data[pos..])?;
    pos += n;
    let (max_z, n) = get_uvarint(&data[pos..])?;
    pos += n;
    let (uncompressed, n) = get_uvarint(&data[pos..])?;
    pos += n;
    let (len, n) = get_uvarint(&data[pos..])?;
    pos += n;
    if len != (data.len() - pos) as u64 {
        return Err(CorruptBlock("object length mismatch"));
    }
    Ok(SealedChunk::from_parts(
        Bytes::copy_from_slice(&data[pos..]),
        unzigzag(min_z),
        unzigzag(max_z),
        count as usize,
        uncompressed as usize,
    ))
}

/// The chunk store: persistence of offloaded chunks across the hot
/// (sealed) and cold (compacted) tiers, plus the durable series index.
#[derive(Clone)]
pub struct ChunkStore {
    hot: Arc<ObjectTier>,
    cold: Arc<ObjectTier>,
    /// Store-wide monotonic sequence uniquifying chunk keys.
    next_seq: Arc<AtomicU64>,
}

impl Default for ChunkStore {
    fn default() -> Self {
        Self::new()
    }
}

impl ChunkStore {
    /// A chunk store over fresh in-memory object tiers.
    pub fn new() -> Self {
        Self {
            hot: Arc::new(ObjectTier::new(None)),
            cold: Arc::new(ObjectTier::new(Some(ColdTierPolicy::default()))),
            next_seq: Arc::new(AtomicU64::new(0)),
        }
    }

    /// The hot (offloaded) tier, which also holds the series index.
    pub fn objects(&self) -> &ObjectTier {
        &self.hot
    }

    /// The cold (compacted) tier.
    pub fn cold(&self) -> &ObjectTier {
        &self.cold
    }

    fn put_chunk(&self, tier: &ObjectTier, labels: &LabelSet, chunk: &SealedChunk) {
        let seq = self.next_seq.fetch_add(1, Ordering::Relaxed);
        let (min_ts, max_ts) = (chunk.min_ts, chunk.max_ts);
        tier.put(ChunkKey { labels: labels.clone(), min_ts, max_ts, seq }, chunk_to_object(chunk));
    }

    /// Persist one chunk of a stream into the hot tier.
    pub fn persist(&self, labels: &LabelSet, chunk: &SealedChunk) {
        if chunk.count > 0 {
            self.put_chunk(&self.hot, labels, chunk);
        }
    }

    /// Write one compacted chunk into the cold tier.
    pub fn put_compacted(&self, labels: &LabelSet, chunk: &SealedChunk) {
        self.put_chunk(&self.cold, labels, chunk);
    }

    /// Record the stream's labels in the durable series index (idempotent).
    /// Without this, offloaded chunks would be reachable only through an
    /// ingester's in-memory stream map — and orphaned by a crash.
    pub fn register_series(&self, labels: &LabelSet) {
        let mut objects = self.hot.objects.write();
        if !objects.series_index.contains_key(labels) {
            let mut encoded = Vec::new();
            put_labels(&mut encoded, labels);
            objects.series_index.insert(labels.clone(), encoded.len());
        }
    }

    /// Every stream in the durable series index, in label order.
    pub fn series(&self) -> Vec<LabelSet> {
        self.hot.objects.read().series_index.keys().cloned().collect()
    }

    /// Delete chunks of a stream entirely older than `horizon`, both
    /// tiers, deciding from the key span alone. Returns how many objects
    /// were removed. A stream whose last chunk goes (in both tiers) also
    /// loses its series-index entry.
    pub fn delete_before(&self, labels: &LabelSet, horizon: Timestamp) -> usize {
        let tiers = [&self.hot, &self.cold];
        let mut removed = 0;
        for tier in tiers {
            for key in tier.chunk_refs(labels) {
                if key.max_ts < horizon && tier.delete(&key) {
                    removed += 1;
                }
            }
        }
        if removed > 0 && tiers.iter().all(|t| t.chunk_refs(labels).is_empty()) {
            self.hot.objects.write().series_index.remove(labels);
        }
        removed
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reader::{read_store, QueryStats};
    use omni_model::LogEntry;

    fn chunk(lines: usize, base_ts: Timestamp) -> SealedChunk {
        let entries: Vec<LogEntry> =
            (0..lines).map(|i| LogEntry::new(base_ts + i as i64, format!("line {i}"))).collect();
        SealedChunk::from_entries(&entries)
    }

    /// The labels of test stream `n`.
    fn s(n: u64) -> LabelSet {
        omni_model::labels!("stream" => n.to_string())
    }

    /// One stream's stored entries in `(start, end]` plus the read cost.
    fn read(
        store: &ChunkStore,
        labels: &LabelSet,
        start: Timestamp,
        end: Timestamp,
    ) -> (Vec<LogEntry>, QueryStats) {
        let mut stats = QueryStats::default();
        (read_store(store, labels, start, end, &mut stats), stats)
    }

    #[test]
    fn object_roundtrip() {
        let c = chunk(50, 1_000);
        let obj = chunk_to_object(&c);
        let back = object_to_chunk(&obj).unwrap();
        assert_eq!(back.count, c.count);
        assert_eq!(back.min_ts, c.min_ts);
        assert_eq!(back.max_ts, c.max_ts);
        assert_eq!(back.decode().unwrap(), c.decode().unwrap());
    }

    #[test]
    fn corrupt_objects_rejected() {
        let c = chunk(5, 0);
        let mut obj = chunk_to_object(&c).to_vec();
        obj.truncate(obj.len() - 1);
        assert!(object_to_chunk(&obj).is_err());
        assert!(object_to_chunk(&[]).is_err());
    }

    /// A ten-byte varint decodes to `u64::MAX`; added to the position it
    /// wrapped (release) or overflowed (debug) instead of being refused.
    #[test]
    fn hostile_length_is_an_error_not_a_panic() {
        const HUGE: [u8; 10] = [0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x01];
        let labels = [&[0x01][..], &HUGE, &[0x01], b"abc"].concat();
        assert!(crate::compress::get_labels(&labels, &mut 0).is_err());
        let chunk = [&[0, 0, 0, 0][..], &HUGE, b"abc"].concat();
        assert!(object_to_chunk(&chunk).is_err());
    }

    #[test]
    fn persist_fetch_by_range() {
        let store = ChunkStore::new();
        store.persist(&s(42), &chunk(10, 0)); // ts 0..9
        store.persist(&s(42), &chunk(10, 1_000)); // ts 1000..1009
        store.persist(&s(7), &chunk(10, 0)); // other stream
        let (got, stats) = read(&store, &s(42), -1, 500);
        assert_eq!((got.len(), got[0].ts, stats.chunks_touched), (10, 0, 1));
        let (got, stats) = read(&store, &s(42), -1, 2_000);
        assert_eq!((got.len(), stats.chunks_touched), (20, 2));
        assert!(read(&store, &s(99), -1, 2_000).0.is_empty());
        assert_eq!(store.objects().object_count(), 3);
    }

    #[test]
    fn same_span_chunks_both_survive() {
        // Regression for the chunk_key collision: two sealed chunks of the
        // same stream with identical (min_ts, max_ts) — a same-timestamp
        // burst cut by chunk_target_bytes, or a WAL replay re-offload —
        // used to map to the same object key, so the second persist
        // silently overwrote the first and offload lost data. The
        // sequence component in the key makes them distinct objects.
        let store = ChunkStore::new();
        let a = SealedChunk::from_entries(&[
            LogEntry::new(500, "burst line A1"),
            LogEntry::new(500, "burst line A2"),
        ]);
        let b = SealedChunk::from_entries(&[
            LogEntry::new(500, "burst line B1"),
            LogEntry::new(500, "burst line B2"),
        ]);
        assert_eq!((a.min_ts, a.max_ts), (b.min_ts, b.max_ts), "same span by construction");
        store.persist(&s(1), &a);
        store.persist(&s(1), &b);
        assert_eq!(store.objects().object_count(), 2, "same-span chunks must not collide");
        let (got, stats) = read(&store, &s(1), 0, 1_000);
        assert_eq!(stats.chunks_touched, 2);
        // Same span, so the key sequence decides: persist order survives.
        let lines: Vec<String> = got.into_iter().map(|e| e.line).collect();
        assert_eq!(lines, ["burst line A1", "burst line A2", "burst line B1", "burst line B2"]);
    }

    #[test]
    fn pre_epoch_chunks_fetch_and_expire_correctly() {
        let store = ChunkStore::new();
        store.persist(&s(9), &chunk(10, -5_000)); // ts -5000..-4991
        store.persist(&s(9), &chunk(10, 1_000)); // ts 1000..1009

        // Keys list in time order: the negative-span chunk first.
        let refs = store.objects().chunk_refs(&s(9));
        assert_eq!(refs.len(), 2);
        assert_eq!(refs[0].min_ts, -5_000);
        assert_eq!(refs[1].min_ts, 1_000);
        // Fetch finds the pre-epoch chunk through the key-span filter.
        let (got, stats) = read(&store, &s(9), -6_000, 0);
        assert_eq!((got.len(), got[0].ts, stats.chunks_touched), (10, -5_000, 1));
        // Retention at the epoch deletes only the pre-epoch chunk.
        assert_eq!(store.delete_before(&s(9), 0), 1);
        assert_eq!(read(&store, &s(9), i64::MIN, i64::MAX).1.chunks_touched, 1);
    }

    #[test]
    fn fetch_skips_non_overlapping_objects_without_get() {
        // The key already carries the span, so a narrow fetch must not GET
        // (let alone decode) objects outside the window.
        let store = ChunkStore::new();
        for i in 0..10 {
            store.persist(&s(3), &chunk(10, i * 1_000)); // spans [0..9], [1000..1009], ...
        }
        let (_, gets_before) = store.objects().op_counts();
        let (_, stats) = read(&store, &s(3), 4_000, 4_500);
        assert_eq!(stats.chunks_touched, 1, "exactly one chunk overlaps (4000, 4500]");
        let (_, gets_after) = store.objects().op_counts();
        assert_eq!(gets_after - gets_before, 1, "only the overlapping object is fetched");
        assert_eq!(stats.cold_chunks_touched, 0);
        assert_eq!(stats.skipped_by_key, 9);
    }

    #[test]
    fn delete_before_removes_old_objects() {
        let store = ChunkStore::new();
        store.persist(&s(1), &chunk(10, 0));
        store.persist(&s(1), &chunk(10, 10_000));
        assert_eq!(store.delete_before(&s(1), 5_000), 1);
        assert_eq!(store.objects().object_count(), 1);
        assert!(read(&store, &s(1), -1, 5_000).0.is_empty());
        assert_eq!(read(&store, &s(1), -1, 20_000).0.len(), 10);
    }

    #[test]
    fn empty_chunks_not_persisted() {
        let store = ChunkStore::new();
        store.persist(&s(1), &SealedChunk::from_entries(&[]));
        assert_eq!(store.objects().object_count(), 0);
    }

    /// A chunk key of stream `n` with a one-instant span at `ts`.
    fn key(n: u64, ts: Timestamp, seq: u64) -> ChunkKey {
        ChunkKey { labels: s(n), min_ts: ts, max_ts: ts, seq }
    }

    #[test]
    fn tier_lists_one_stream_and_deletes_once() {
        let tier = ObjectTier::new(None);
        tier.put(key(1, 5, 0), Bytes::from_static(b"x"));
        tier.put(key(1, -5, 1), Bytes::from_static(b"y"));
        tier.put(key(2, 0, 2), Bytes::from_static(b"z"));
        assert_eq!(tier.chunk_refs(&s(1)), [key(1, -5, 1), key(1, 5, 0)]);
        assert_eq!(tier.stored_bytes(), 3);
        assert!(tier.delete(&key(1, 5, 0)));
        assert!(!tier.delete(&key(1, 5, 0)));
    }

    /// The series index is no object: registering a stream — twice — adds
    /// no chunk object and costs no operation, listing it costs no GET,
    /// and `stored_bytes` counts the entry once at its encoded size.
    #[test]
    fn series_index_is_held_typed() {
        let store = ChunkStore::new();
        let labels = omni_model::labels!("app" => "x", "host" => "n0");
        store.register_series(&labels);
        store.register_series(&labels);
        let mut encoded = Vec::new();
        put_labels(&mut encoded, &labels);
        assert_eq!(store.series(), [labels]);
        assert_eq!(store.objects().object_count(), 0);
        assert_eq!(store.objects().op_counts(), (0, 0));
        assert_eq!(store.objects().stored_bytes(), encoded.len());
    }

    #[test]
    fn cold_tier_serves_compacted_chunks() {
        let store = ChunkStore::new();
        store.put_compacted(&s(5), &chunk(20, 100));
        assert_eq!(store.cold().object_count(), 1);
        store.register_series(&s(5));
        let (got, stats) = read(&store, &s(5), 0, 1_000);
        assert_eq!(got.len(), 20);
        assert_eq!((stats.chunks_touched, stats.cold_chunks_touched), (1, 1));
        assert_eq!(store.cold().op_counts(), (1, 1));
        assert_eq!(store.objects().op_counts(), (0, 0), "the cold read took no hot GET");
    }

    #[test]
    fn cold_tier_transient_failures_are_deterministic_and_retried() {
        let cold = |fail_permille| {
            let policy = ColdTierPolicy { fail_permille, seed: 7 };
            ObjectTier::new(Some(policy))
        };
        let tier = cold(1_000);
        tier.put(key(1, 0, 0), Bytes::from_static(b"abc"));
        // With a 100% coin every GET fails once and succeeds on retry.
        assert_eq!(tier.get(&key(1, 0, 0)).unwrap(), Bytes::from_static(b"abc"));
        assert_eq!(tier.transient_failures(), 1);
        assert_eq!(tier.get(&key(1, 0, 0)).unwrap(), Bytes::from_static(b"abc"));
        assert_eq!(tier.transient_failures(), 2, "the coin is per (seed, key), not one-shot");
        // The coin is deterministic: the same key under the same seed
        // always rolls the same way.
        let probe = |t: &ObjectTier| {
            (0..20)
                .map(|i| {
                    t.put(key(i, 0, i), Bytes::from_static(b"x"));
                    let before = t.transient_failures();
                    t.get(&key(i, 0, i));
                    t.transient_failures() > before
                })
                .collect::<Vec<bool>>()
        };
        assert_eq!(probe(&cold(500)), probe(&cold(500)));
    }

    #[test]
    fn delete_before_keeps_series_while_cold_data_remains() {
        let store = ChunkStore::new();
        store.register_series(&s(11));
        store.persist(&s(11), &chunk(5, 0));
        store.put_compacted(&s(11), &chunk(5, 10_000));
        // The hot chunk expires; the cold one is still live, so the
        // series entry must survive.
        assert_eq!(store.delete_before(&s(11), 5_000), 1);
        assert_eq!(store.series().len(), 1);
        // Once the cold tier drains too, the series entry goes.
        assert_eq!(store.delete_before(&s(11), 50_000), 1);
        assert!(store.series().is_empty());
    }
}
