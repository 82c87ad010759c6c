//! The chunk object store: "Chunks are first stored in memory, and then
//! moved to disk" (§IV-A).
//!
//! Real Loki offloads sealed chunks to an object store (S3/GCS/filesystem)
//! and keeps only the label index plus recent chunks in the ingesters.
//! This module provides the same split — plus the compacted tier the
//! compactor writes:
//!
//! * an [`ObjectStore`] abstraction and [`MemObjectStore`], the hot
//!   "disk" tier sealed chunks are offloaded into;
//! * [`ColdTier`], the simulated S3-style object store compacted chunks
//!   are demoted to, with a configurable per-operation latency and a
//!   deterministic transient-failure model (the `core::chaos` coin,
//!   applied to object reads);
//! * the serialization of [`SealedChunk`]s into self-describing objects
//!   and of stream labels into series-index entries.
//!
//! ## Key scheme
//!
//! One chunk object's key is
//! `chunks/<fp-hex>/<min-enc>-<max-enc>-<seq-hex>` (compacted objects use
//! the `compacted/` prefix). Timestamps are encoded **offset-binary**:
//! the i64 nanosecond value with its sign bit flipped, rendered as
//! fixed-width hex, so lexicographic key order equals timestamp order
//! even for pre-epoch (negative) timestamps. `seq` is a store-wide
//! monotonic counter making every persisted chunk's key unique: two
//! chunks of one stream with the identical `(min_ts, max_ts)` span (easy
//! with same-timestamp bursts, or a WAL replay re-offloading a chunk)
//! get distinct keys instead of silently overwriting each other.
//!
//! Because the span is part of the key, range reads and retention deletes
//! prune non-overlapping objects from the listing alone — without
//! fetching or decoding a single object body.

use crate::chunk::SealedChunk;
use crate::compress::{
    get_labels, get_uvarint, put_labels, put_uvarint, unzigzag, zigzag, CorruptBlock,
};
use bytes::Bytes;
use omni_model::lockwitness::{classes, OrderedRwLock};
use omni_model::{fnv1a64, LabelSet, Timestamp};
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Object-store abstraction (the "disk"/S3 tier).
pub trait ObjectStore: Send + Sync {
    /// Store an object.
    fn put(&self, key: String, data: Bytes);
    /// Fetch an object.
    fn get(&self, key: &str) -> Option<Bytes>;
    /// Keys beginning with `prefix`, sorted.
    fn list(&self, prefix: &str) -> Vec<String>;
    /// Delete an object; returns whether it existed.
    fn delete(&self, key: &str) -> bool;
}

/// In-memory object store standing in for the disk tier, with byte/object
/// accounting for the experiments.
pub struct MemObjectStore {
    objects: OrderedRwLock<BTreeMap<String, Bytes>>,
    puts: AtomicU64,
    gets: AtomicU64,
}

impl Default for MemObjectStore {
    fn default() -> Self {
        Self::new()
    }
}

impl MemObjectStore {
    /// Empty store.
    pub fn new() -> Self {
        Self {
            objects: OrderedRwLock::new(&classes::LOKI_STORE_OBJECTS, BTreeMap::new()),
            puts: AtomicU64::new(0),
            gets: AtomicU64::new(0),
        }
    }

    /// Number of stored objects.
    pub fn object_count(&self) -> usize {
        self.objects.read().len()
    }

    /// Total stored bytes.
    pub fn stored_bytes(&self) -> usize {
        self.objects.read().values().map(|b| b.len()).sum()
    }

    /// `(puts, gets)` operation counters.
    pub fn op_counts(&self) -> (u64, u64) {
        (self.puts.load(Ordering::Relaxed), self.gets.load(Ordering::Relaxed))
    }
}

impl ObjectStore for MemObjectStore {
    fn put(&self, key: String, data: Bytes) {
        self.puts.fetch_add(1, Ordering::Relaxed);
        self.objects.write().insert(key, data);
    }

    fn get(&self, key: &str) -> Option<Bytes> {
        self.gets.fetch_add(1, Ordering::Relaxed);
        self.objects.read().get(key).cloned()
    }

    fn list(&self, prefix: &str) -> Vec<String> {
        self.objects
            .read()
            .range(prefix.to_string()..)
            .take_while(|(k, _)| k.starts_with(prefix))
            .map(|(k, _)| k.clone())
            .collect()
    }

    fn delete(&self, key: &str) -> bool {
        self.objects.write().remove(key).is_some()
    }
}

/// Latency and transient-failure model of the cold (compacted) tier — an
/// S3-style remote object store rather than local disk. Mirrors the
/// deterministic permille coin of `core::chaos`: whether a given object's
/// first read fails transiently is a pure function of `(seed, key)`, so a
/// fixed-seed run produces identical retry counts regardless of query
/// thread interleaving.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ColdTierPolicy {
    /// Simulated latency charged per GET attempt.
    pub get_latency_ns: i64,
    /// Simulated latency charged per PUT.
    pub put_latency_ns: i64,
    /// Permille of objects whose first GET attempt fails transiently
    /// (the retry always succeeds — availability, not durability).
    pub fail_permille: u16,
    /// Seed of the failure coin.
    pub seed: u64,
}

impl Default for ColdTierPolicy {
    fn default() -> Self {
        Self {
            get_latency_ns: 8_000_000,  // 8ms: remote object-store GET
            put_latency_ns: 15_000_000, // 15ms: remote object-store PUT
            fail_permille: 0,
            seed: 0,
        }
    }
}

/// The cold object tier: compacted chunks demoted out of the hot store.
/// Wraps a [`MemObjectStore`] with the simulated latency/failure model of
/// [`ColdTierPolicy`]; every charged nanosecond and transient failure is
/// accounted so the drill and self-telemetry can surface the tier's cost.
pub struct ColdTier {
    objects: MemObjectStore,
    policy: OrderedRwLock<ColdTierPolicy>,
    /// First-attempt GET failures (each retried once, successfully).
    transient_failures: AtomicU64,
    /// Total simulated nanoseconds charged across operations.
    simulated_ns: AtomicU64,
}

impl Default for ColdTier {
    fn default() -> Self {
        Self::new()
    }
}

impl ColdTier {
    /// Empty cold tier with the default policy.
    pub fn new() -> Self {
        Self {
            objects: MemObjectStore::new(),
            policy: OrderedRwLock::new(&classes::LOKI_COLD_POLICY, ColdTierPolicy::default()),
            transient_failures: AtomicU64::new(0),
            simulated_ns: AtomicU64::new(0),
        }
    }

    /// Replace the latency/failure policy (chaos scenarios flip this at
    /// runtime, exactly like `ChaosAction`s flip bus fault windows).
    pub fn set_policy(&self, policy: ColdTierPolicy) {
        *self.policy.write() = policy;
    }

    /// The current policy.
    pub fn policy(&self) -> ColdTierPolicy {
        *self.policy.read()
    }

    /// Whether this key's first GET attempt fails under the policy coin.
    fn first_attempt_fails(&self, key: &str, policy: &ColdTierPolicy) -> bool {
        if policy.fail_permille == 0 {
            return false;
        }
        let mut buf = policy.seed.to_le_bytes().to_vec();
        buf.extend_from_slice(key.as_bytes());
        (fnv1a64(&buf) % 1_000) < policy.fail_permille as u64
    }

    /// Number of stored objects.
    pub fn object_count(&self) -> usize {
        self.objects.object_count()
    }

    /// Total stored bytes.
    pub fn stored_bytes(&self) -> usize {
        self.objects.stored_bytes()
    }

    /// `(puts, gets)` operation counters (gets count every attempt).
    pub fn op_counts(&self) -> (u64, u64) {
        self.objects.op_counts()
    }

    /// First-attempt GET failures injected so far.
    pub fn transient_failures(&self) -> u64 {
        self.transient_failures.load(Ordering::Relaxed)
    }

    /// Total simulated nanoseconds charged across operations.
    pub fn simulated_latency_ns(&self) -> u64 {
        self.simulated_ns.load(Ordering::Relaxed)
    }
}

impl ObjectStore for ColdTier {
    fn put(&self, key: String, data: Bytes) {
        let policy = self.policy();
        self.simulated_ns.fetch_add(policy.put_latency_ns.max(0) as u64, Ordering::Relaxed);
        self.objects.put(key, data);
    }

    fn get(&self, key: &str) -> Option<Bytes> {
        let policy = self.policy();
        self.simulated_ns.fetch_add(policy.get_latency_ns.max(0) as u64, Ordering::Relaxed);
        if self.first_attempt_fails(key, &policy) {
            // Transient: charge the failed attempt, count it, retry once.
            self.transient_failures.fetch_add(1, Ordering::Relaxed);
            self.objects.get(key); // the failed attempt still counts as a GET
            self.simulated_ns.fetch_add(policy.get_latency_ns.max(0) as u64, Ordering::Relaxed);
        }
        self.objects.get(key)
    }

    fn list(&self, prefix: &str) -> Vec<String> {
        self.objects.list(prefix)
    }

    fn delete(&self, key: &str) -> bool {
        self.objects.delete(key)
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

/// Offset-binary encoding of a timestamp for object keys: flip the sign
/// bit and render fixed-width hex, so `encode_key_ts(a) < encode_key_ts(b)`
/// (lexicographically) iff `a < b` — including pre-epoch negatives, which
/// the old `{min_ts:020}` decimal rendering sorted before *and among*
/// positives in the wrong order (`-` sorts before digits, and `-2` sorts
/// before `-1`).
pub fn encode_key_ts(ts: Timestamp) -> String {
    format!("{:016x}", (ts as u64) ^ (1u64 << 63))
}

/// Inverse of [`encode_key_ts`].
pub fn decode_key_ts(s: &str) -> Option<Timestamp> {
    if s.len() != 16 {
        return None;
    }
    u64::from_str_radix(s, 16).ok().map(|v| (v ^ (1u64 << 63)) as i64)
}

/// Object key for one chunk of one stream:
/// `chunks/<fp-hex>/<min-enc>-<max-enc>-<seq-hex>`. The sequence
/// component makes same-span chunks distinct objects (the pre-fix scheme
/// silently overwrote them), and the offset-binary timestamp encoding
/// keeps key order equal to time order for the compactor's ordered scans.
pub fn chunk_key(fingerprint: u64, min_ts: Timestamp, max_ts: Timestamp, seq: u64) -> String {
    format!(
        "chunks/{fingerprint:016x}/{}-{}-{seq:016x}",
        encode_key_ts(min_ts),
        encode_key_ts(max_ts)
    )
}

/// Object key for one compacted chunk in the cold tier.
pub fn compacted_key(fingerprint: u64, min_ts: Timestamp, max_ts: Timestamp, seq: u64) -> String {
    format!(
        "compacted/{fingerprint:016x}/{}-{}-{seq:016x}",
        encode_key_ts(min_ts),
        encode_key_ts(max_ts)
    )
}

/// Parse the `(min_ts, max_ts)` span out of a chunk-object key (either
/// tier). This is what lets `fetch`/`delete_before` prune objects from
/// the listing without touching their bodies.
pub fn parse_key_span(key: &str) -> Option<(Timestamp, Timestamp)> {
    let leaf = key.rsplit('/').next()?;
    let mut parts = leaf.split('-');
    let min = decode_key_ts(parts.next()?)?;
    let max = decode_key_ts(parts.next()?)?;
    parts.next()?; // seq must be present
    if parts.next().is_some() {
        return None;
    }
    Some((min, max))
}

/// Object key for one stream's series-index entry: `series/<fingerprint-hex>`.
pub fn series_key(fingerprint: u64) -> String {
    format!("series/{fingerprint:016x}")
}

/// Encode a stream's labels into a series-index object: a pair count
/// followed by length-prefixed key/value strings.
pub fn labels_to_object(labels: &LabelSet) -> Bytes {
    let mut out = Vec::new();
    put_labels(&mut out, labels);
    Bytes::from(out)
}

/// Decode a series-index object back into a label set. Corrupt or
/// truncated objects yield an error, never a panic or garbage labels.
pub fn object_to_labels(data: &[u8]) -> Result<LabelSet, CorruptBlock> {
    let mut pos = 0;
    let labels = get_labels(data, &mut pos)?;
    if pos != data.len() {
        return Err(CorruptBlock("series entry has trailing bytes"));
    }
    Ok(labels)
}

/// Per-fetch accounting: which tier served what, and how much the
/// key-span index saved.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FetchStats {
    /// Objects fetched from the hot (sealed) tier.
    pub hot_objects: usize,
    /// Objects fetched from the cold (compacted) tier.
    pub cold_objects: usize,
    /// Objects skipped from the key span alone, bodies never read.
    pub skipped_by_key: usize,
}

/// The chunk store: persistence + retrieval of offloaded chunks across
/// the hot (sealed) and cold (compacted) tiers.
#[derive(Clone)]
pub struct ChunkStore {
    store: Arc<MemObjectStore>,
    cold: Arc<ColdTier>,
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
            store: Arc::new(MemObjectStore::new()),
            cold: Arc::new(ColdTier::new()),
            next_seq: Arc::new(AtomicU64::new(0)),
        }
    }

    /// The underlying hot-tier object store (for accounting).
    pub fn objects(&self) -> &MemObjectStore {
        &self.store
    }

    /// The cold (compacted) tier.
    pub fn cold(&self) -> &ColdTier {
        &self.cold
    }

    /// Persist one chunk of a stream into the hot tier.
    pub fn persist(&self, fingerprint: u64, chunk: &SealedChunk) {
        if chunk.count == 0 {
            return;
        }
        let seq = self.next_seq.fetch_add(1, Ordering::Relaxed);
        self.store
            .put(chunk_key(fingerprint, chunk.min_ts, chunk.max_ts, seq), chunk_to_object(chunk));
    }

    /// Write one compacted chunk into the cold tier, returning its key.
    pub fn put_compacted(&self, fingerprint: u64, chunk: &SealedChunk) -> String {
        let seq = self.next_seq.fetch_add(1, Ordering::Relaxed);
        let key = compacted_key(fingerprint, chunk.min_ts, chunk.max_ts, seq);
        self.cold.put(key.clone(), chunk_to_object(chunk));
        key
    }

    /// Record the stream's labels in the durable series index (idempotent).
    /// Without this, offloaded chunks would be reachable only through an
    /// ingester's in-memory stream map — and orphaned by a crash.
    pub fn register_series(&self, fingerprint: u64, labels: &LabelSet) {
        let key = series_key(fingerprint);
        if self.store.list(&key).is_empty() {
            self.store.put(key, labels_to_object(labels));
        }
    }

    /// Every `(fingerprint, labels)` in the durable series index.
    pub fn series(&self) -> Vec<(u64, LabelSet)> {
        self.store
            .list("series/")
            .into_iter()
            .filter_map(|key| {
                let fp = u64::from_str_radix(key.strip_prefix("series/")?, 16).ok()?;
                let labels = object_to_labels(&self.store.get(&key)?).ok()?;
                Some((fp, labels))
            })
            .collect()
    }

    /// Chunk keys of one stream in one tier, in key (= time) order, each
    /// with the span parsed from the key.
    fn keys_with_spans(
        tier: &dyn ObjectStore,
        prefix: &str,
    ) -> Vec<(String, Timestamp, Timestamp)> {
        tier.list(prefix)
            .into_iter()
            .filter_map(|key| {
                let (min, max) = parse_key_span(&key)?;
                Some((key, min, max))
            })
            .collect()
    }

    /// Hot-tier chunk keys of a stream with their spans, in time order
    /// (the compactor's ordered scan).
    pub fn hot_chunk_refs(&self, fingerprint: u64) -> Vec<(String, Timestamp, Timestamp)> {
        Self::keys_with_spans(&*self.store, &format!("chunks/{fingerprint:016x}/"))
    }

    /// Cold-tier chunk keys of a stream with their spans, in time order.
    pub fn cold_chunk_refs(&self, fingerprint: u64) -> Vec<(String, Timestamp, Timestamp)> {
        Self::keys_with_spans(&*self.cold, &format!("compacted/{fingerprint:016x}/"))
    }

    /// Fetch every chunk of a stream overlapping `(start, end]`, both
    /// tiers.
    pub fn fetch(&self, fingerprint: u64, start: Timestamp, end: Timestamp) -> Vec<SealedChunk> {
        self.fetch_stats(fingerprint, start, end).0
    }

    /// [`Self::fetch`] with per-tier accounting. Non-overlapping objects
    /// are pruned from the key span alone — their bodies are never read —
    /// so a narrow window over a long-lived stream costs O(overlap) GETs,
    /// not O(stream history).
    pub fn fetch_stats(
        &self,
        fingerprint: u64,
        start: Timestamp,
        end: Timestamp,
    ) -> (Vec<SealedChunk>, FetchStats) {
        let mut out = Vec::new();
        let mut stats = FetchStats::default();
        for (tier, refs, fetched) in [
            (
                &*self.store as &dyn ObjectStore,
                self.hot_chunk_refs(fingerprint),
                &mut stats.hot_objects as &mut usize,
            ),
            (
                &*self.cold as &dyn ObjectStore,
                self.cold_chunk_refs(fingerprint),
                &mut stats.cold_objects,
            ),
        ] {
            for (key, min, max) in refs {
                // Window semantics are `(start, end]`, mirroring
                // `SealedChunk::overlaps`.
                if max <= start || min > end {
                    stats.skipped_by_key += 1;
                    continue;
                }
                if let Some(data) = tier.get(&key) {
                    if let Ok(chunk) = object_to_chunk(&data) {
                        if chunk.overlaps(start, end) {
                            *fetched += 1;
                            out.push(chunk);
                        }
                    }
                }
            }
        }
        (out, stats)
    }

    /// Delete chunks of a stream entirely older than `horizon`, both
    /// tiers, deciding from the key span alone. Returns how many objects
    /// were removed. A stream whose last chunk goes (in both tiers) also
    /// loses its series-index entry.
    pub fn delete_before(&self, fingerprint: u64, horizon: Timestamp) -> usize {
        let mut removed = 0;
        for (tier, refs) in [
            (&*self.store as &dyn ObjectStore, self.hot_chunk_refs(fingerprint)),
            (&*self.cold as &dyn ObjectStore, self.cold_chunk_refs(fingerprint)),
        ] {
            for (key, _, max) in refs {
                if max < horizon && tier.delete(&key) {
                    removed += 1;
                }
            }
        }
        if removed > 0
            && self.hot_chunk_refs(fingerprint).is_empty()
            && self.cold_chunk_refs(fingerprint).is_empty()
        {
            self.store.delete(&series_key(fingerprint));
        }
        removed
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use omni_model::LogEntry;

    fn chunk(lines: usize, base_ts: Timestamp) -> SealedChunk {
        let entries: Vec<LogEntry> =
            (0..lines).map(|i| LogEntry::new(base_ts + i as i64, format!("line {i}"))).collect();
        SealedChunk::from_entries(&entries)
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
        assert!(object_to_labels(&labels).is_err());
        let chunk = [&[0, 0, 0, 0][..], &HUGE, b"abc"].concat();
        assert!(object_to_chunk(&chunk).is_err());
    }

    #[test]
    fn persist_fetch_by_range() {
        let store = ChunkStore::new();
        store.persist(42, &chunk(10, 0)); // ts 0..9
        store.persist(42, &chunk(10, 1_000)); // ts 1000..1009
        store.persist(7, &chunk(10, 0)); // other stream
        let got = store.fetch(42, -1, 500);
        assert_eq!(got.len(), 1);
        assert_eq!(got[0].min_ts, 0);
        let got = store.fetch(42, -1, 2_000);
        assert_eq!(got.len(), 2);
        assert!(store.fetch(99, -1, 2_000).is_empty());
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
        store.persist(1, &a);
        store.persist(1, &b);
        assert_eq!(store.objects().object_count(), 2, "same-span chunks must not collide");
        let got = store.fetch(1, 0, 1_000);
        assert_eq!(got.len(), 2);
        let mut lines: Vec<String> =
            got.iter().flat_map(|c| c.decode().unwrap()).map(|e| e.line).collect();
        lines.sort();
        assert_eq!(lines, ["burst line A1", "burst line A2", "burst line B1", "burst line B2"]);
    }

    #[test]
    fn key_encoding_orders_negative_timestamps() {
        // Pre-epoch timestamps: decimal rendering made `-` sort before
        // digits and reversed the order among negatives. The offset-binary
        // hex encoding keeps lexicographic key order equal to time order.
        let timestamps = [i64::MIN, -2_000, -1_999, -1, 0, 1, 2_000, i64::MAX];
        let encoded: Vec<String> = timestamps.iter().map(|&t| encode_key_ts(t)).collect();
        let mut sorted = encoded.clone();
        sorted.sort();
        assert_eq!(encoded, sorted, "encoding must be order-preserving");
        for &t in &timestamps {
            assert_eq!(decode_key_ts(&encode_key_ts(t)), Some(t));
        }
    }

    #[test]
    fn pre_epoch_chunks_fetch_and_expire_correctly() {
        let store = ChunkStore::new();
        store.persist(9, &chunk(10, -5_000)); // ts -5000..-4991
        store.persist(9, &chunk(10, 1_000)); // ts 1000..1009
                                             // Keys list in time order: the negative-span chunk first.
        let refs = store.hot_chunk_refs(9);
        assert_eq!(refs.len(), 2);
        assert_eq!(refs[0].1, -5_000);
        assert_eq!(refs[1].1, 1_000);
        // Fetch finds the pre-epoch chunk through the key-span filter.
        let got = store.fetch(9, -6_000, 0);
        assert_eq!(got.len(), 1);
        assert_eq!(got[0].min_ts, -5_000);
        // Retention at the epoch deletes only the pre-epoch chunk.
        assert_eq!(store.delete_before(9, 0), 1);
        assert_eq!(store.fetch(9, i64::MIN, i64::MAX).len(), 1);
    }

    #[test]
    fn fetch_skips_non_overlapping_objects_without_get() {
        // The key already carries the span, so a narrow fetch must not GET
        // (let alone decode) objects outside the window.
        let store = ChunkStore::new();
        for i in 0..10 {
            store.persist(3, &chunk(10, i * 1_000)); // spans [0..9], [1000..1009], ...
        }
        let (_, gets_before) = store.objects().op_counts();
        let (chunks, stats) = store.fetch_stats(3, 4_000, 4_500);
        assert_eq!(chunks.len(), 1, "exactly one chunk overlaps (4000, 4500]");
        let (_, gets_after) = store.objects().op_counts();
        assert_eq!(gets_after - gets_before, 1, "only the overlapping object is fetched");
        assert_eq!(stats.hot_objects, 1);
        assert_eq!(stats.skipped_by_key, 9);
    }

    #[test]
    fn delete_before_removes_old_objects() {
        let store = ChunkStore::new();
        store.persist(1, &chunk(10, 0));
        store.persist(1, &chunk(10, 10_000));
        assert_eq!(store.delete_before(1, 5_000), 1);
        assert_eq!(store.objects().object_count(), 1);
        assert!(store.fetch(1, -1, 5_000).is_empty());
        assert_eq!(store.fetch(1, -1, 20_000).len(), 1);
    }

    #[test]
    fn empty_chunks_not_persisted() {
        let store = ChunkStore::new();
        store.persist(1, &SealedChunk::from_entries(&[]));
        assert_eq!(store.objects().object_count(), 0);
    }

    #[test]
    fn mem_store_list_prefix() {
        let store = MemObjectStore::new();
        store.put("a/1".into(), Bytes::from_static(b"x"));
        store.put("a/2".into(), Bytes::from_static(b"y"));
        store.put("b/1".into(), Bytes::from_static(b"z"));
        assert_eq!(store.list("a/"), vec!["a/1", "a/2"]);
        assert_eq!(store.stored_bytes(), 3);
        assert!(store.delete("a/1"));
        assert!(!store.delete("a/1"));
    }

    #[test]
    fn cold_tier_serves_compacted_chunks_and_charges_latency() {
        let store = ChunkStore::new();
        let key = store.put_compacted(5, &chunk(20, 100));
        assert!(key.starts_with("compacted/"));
        store.register_series(5, &omni_model::labels!("app" => "x"));
        let (chunks, stats) = store.fetch_stats(5, 0, 1_000);
        assert_eq!(chunks.len(), 1);
        assert_eq!(stats.cold_objects, 1);
        assert_eq!(stats.hot_objects, 0);
        let policy = store.cold().policy();
        assert!(store.cold().simulated_latency_ns() >= policy.put_latency_ns as u64);
    }

    #[test]
    fn cold_tier_transient_failures_are_deterministic_and_retried() {
        let tier = ColdTier::new();
        tier.set_policy(ColdTierPolicy { fail_permille: 1_000, seed: 7, ..Default::default() });
        tier.put("compacted/x".into(), Bytes::from_static(b"abc"));
        // With a 100% coin every GET fails once and succeeds on retry.
        assert_eq!(tier.get("compacted/x").unwrap(), Bytes::from_static(b"abc"));
        assert_eq!(tier.transient_failures(), 1);
        assert_eq!(tier.get("compacted/x").unwrap(), Bytes::from_static(b"abc"));
        assert_eq!(tier.transient_failures(), 2, "the coin is per (seed, key), not one-shot");
        // The coin is deterministic: the same key under the same seed
        // always rolls the same way.
        let again = ColdTier::new();
        again.set_policy(ColdTierPolicy { fail_permille: 500, seed: 7, ..Default::default() });
        let probe = |t: &ColdTier| {
            (0..20)
                .map(|i| {
                    let key = format!("compacted/{i}");
                    t.put(key.clone(), Bytes::from_static(b"x"));
                    let before = t.transient_failures();
                    t.get(&key);
                    t.transient_failures() > before
                })
                .collect::<Vec<bool>>()
        };
        let third = ColdTier::new();
        third.set_policy(ColdTierPolicy { fail_permille: 500, seed: 7, ..Default::default() });
        assert_eq!(probe(&again), probe(&third));
    }

    #[test]
    fn delete_before_keeps_series_while_cold_data_remains() {
        let store = ChunkStore::new();
        store.register_series(11, &omni_model::labels!("app" => "cold"));
        store.persist(11, &chunk(5, 0));
        store.put_compacted(11, &chunk(5, 10_000));
        // The hot chunk expires; the cold one is still live, so the
        // series entry must survive.
        assert_eq!(store.delete_before(11, 5_000), 1);
        assert_eq!(store.series().len(), 1);
        // Once the cold tier drains too, the series entry goes.
        assert_eq!(store.delete_before(11, 50_000), 1);
        assert!(store.series().is_empty());
    }
}
