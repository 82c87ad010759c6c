//! One ingester shard: owns a set of streams and their label index.
//!
//! The paper's Loki cluster runs 8 ingester worker nodes; the distributor
//! shards streams across them by label fingerprint. Each shard is
//! independently locked so ingest scales with shard count (experiment C5).
//!
//! Within a shard a stream is its label set: the shard keeps its streams
//! in an [`omni_model::SeriesTable`], the slab a TSDB shard keeps its
//! series in, so two label sets whose fingerprints collide stay two
//! streams, and every sweep (seal, offload, flush, retention) walks the
//! slots in order — deterministic with no sort.
//!
//! A shard answers a query in two phases ([`Ingester::query_stats`]):
//! what its in-memory streams hold, under the shard read lock; then, lock
//! dropped, what the shared chunk store holds for the streams it is home
//! to — matched in memory or only in the durable series index. Both
//! phases read through [`crate::reader`].

use crate::chunkstore::ChunkStore;
use crate::limits::Limits;
use crate::reader::{self, QueryStats};
use crate::stream::{AppendError, Stream};
use crate::tenant::TenantRejection;
use omni_logql::Selector;
use omni_model::lockwitness::{classes, OrderedRwLock};
use omni_model::{LabelSet, LogEntry, LogRecord, SeriesTable, Timestamp};
use std::sync::atomic::{AtomicU64, Ordering};

/// Ingest rejection reasons surfaced to the distributor.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum IngestError {
    /// Stream-level append failure.
    Append(AppendError),
    /// Too many labels on the stream.
    TooManyLabels(usize),
    /// Shard is at its stream cap.
    StreamLimitExceeded,
    /// Entry carried no labels at all.
    EmptyLabels,
    /// Every ingester shard is down; the distributor has nowhere to route.
    AllShardsDown,
    /// Tenant admission control shed the record — the `429` of the
    /// simulation. Carries who and why; never a panic, never silent.
    TenantRejected(TenantRejection),
}

impl std::fmt::Display for IngestError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            IngestError::Append(e) => write!(f, "{e}"),
            IngestError::TooManyLabels(n) => write!(f, "{n} labels exceeds per-stream limit"),
            IngestError::StreamLimitExceeded => write!(f, "per-shard stream limit exceeded"),
            IngestError::EmptyLabels => write!(f, "entry has no labels"),
            IngestError::AllShardsDown => write!(f, "all ingester shards down"),
            IngestError::TenantRejected(r) => write!(f, "{r}"),
        }
    }
}

impl std::error::Error for IngestError {}

/// Counters exported by one shard.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct IngesterStats {
    /// Entries accepted.
    pub entries: u64,
    /// Line bytes accepted.
    pub bytes: u64,
    /// Chunks sealed so far.
    pub chunks_sealed: u64,
    /// Entries rejected.
    pub rejected: u64,
}

struct ShardState {
    streams: SeriesTable<Stream>,
    /// Uncompressed sizes of chunks sealed since the last drain — the
    /// stack turns these into its chunk fill-ratio histogram.
    seal_sizes: Vec<u64>,
}

/// One ingester shard.
pub struct Ingester {
    state: OrderedRwLock<ShardState>,
    limits: Limits,
    chunk_store: Option<ChunkStore>,
    /// `(index, total)` placement in the cluster ring. The chunk store is
    /// shared, so exactly one shard — the stream's home — serves and
    /// retires a stream's offloaded chunks, else fan-out queries would
    /// count them once per shard.
    shard: (usize, usize),
    entries: AtomicU64,
    bytes: AtomicU64,
    chunks_sealed: AtomicU64,
    rejected: AtomicU64,
}

impl Ingester {
    /// Empty shard with the given limits.
    pub fn new(limits: Limits) -> Self {
        Self::with_store(limits, None)
    }

    /// Shard backed by a chunk object store for offloaded chunks.
    pub fn with_store(limits: Limits, chunk_store: Option<ChunkStore>) -> Self {
        Self::with_shard(limits, chunk_store, 0, 1)
    }

    /// Shard at ring position `shard_index` of `shard_total`.
    pub fn with_shard(
        limits: Limits,
        chunk_store: Option<ChunkStore>,
        shard_index: usize,
        shard_total: usize,
    ) -> Self {
        assert!(shard_index < shard_total, "shard index out of range");
        Self {
            state: OrderedRwLock::new(
                &classes::LOKI_INGESTER_STATE,
                ShardState { streams: SeriesTable::new(), seal_sizes: Vec::new() },
            ),
            limits,
            chunk_store,
            shard: (shard_index, shard_total),
            entries: AtomicU64::new(0),
            bytes: AtomicU64::new(0),
            chunks_sealed: AtomicU64::new(0),
            rejected: AtomicU64::new(0),
        }
    }

    /// Whether this shard is the home for a stream's durable-tier data:
    /// the distributor's placement, by fingerprint.
    fn owns(&self, labels: &LabelSet) -> bool {
        labels.fingerprint() % self.shard.1 as u64 == self.shard.0 as u64
    }

    /// Append one record — a frame of one (tests, single-shard callers).
    pub fn append(&self, record: LogRecord) -> Result<(), IngestError> {
        // Invariant: `append_frames` returns exactly one result per entry.
        self.append_frames([(record.labels, 1)], [record.entry])
            .pop()
            .expect("a frame of one yields one result") // lint:allow(no-unwrap)
    }

    /// Append stream frames under a **single** shard-lock acquisition.
    /// Frames arrive in columnar form so that a frame costs no allocation
    /// of its own: `frames` holds one `(labels, run length)` header per
    /// frame — labels that already know their fingerprint, since the
    /// distributor routed by it — and `entries` every frame's entries back
    /// to back, which the run lengths cut up. Each frame's labels are
    /// validated and its stream resolved (or created) once; each entry
    /// then pays only the stream append. Returns one result per entry in input order; the
    /// counters are added once per call.
    pub fn append_frames(
        &self,
        frames: impl IntoIterator<Item = (LabelSet, usize)>,
        entries: impl IntoIterator<Item = LogEntry>,
    ) -> Vec<Result<(), IngestError>> {
        let mut entries = entries.into_iter();
        let mut out = Vec::with_capacity(entries.size_hint().0);
        let (mut accepted, mut bytes, mut sealed_n) = (0u64, 0u64, 0u64);
        {
            let mut guard = self.state.write();
            let st = &mut *guard;
            for (labels, run_len) in frames {
                let run = entries.by_ref().take(run_len);
                let at_cap = st.streams.len() >= self.limits.max_streams_per_shard;
                let stream = if labels.is_empty() {
                    Err(IngestError::EmptyLabels)
                } else if labels.len() > self.limits.max_label_names_per_series {
                    Err(IngestError::TooManyLabels(labels.len()))
                } else if at_cap && st.streams.find(&labels).is_none() {
                    Err(IngestError::StreamLimitExceeded)
                } else {
                    Ok(st.streams.resolve(&labels, Stream::new).1)
                };
                let stream = match stream {
                    Ok(stream) => stream,
                    Err(e) => {
                        out.extend(run.map(|_| Err(e.clone())));
                        continue;
                    }
                };
                for entry in run {
                    let line_bytes = entry.line.len() as u64;
                    out.push(match stream.append(entry, &self.limits) {
                        Ok(sealed) => {
                            accepted += 1;
                            bytes += line_bytes;
                            if sealed {
                                sealed_n += 1;
                                if let Some(c) = stream.sealed_chunks().last() {
                                    st.seal_sizes.push(c.uncompressed as u64);
                                }
                            }
                            Ok(())
                        }
                        Err(e) => Err(IngestError::Append(e)),
                    });
                }
            }
        }
        self.entries.fetch_add(accepted, Ordering::Relaxed);
        self.bytes.fetch_add(bytes, Ordering::Relaxed);
        self.chunks_sealed.fetch_add(sealed_n, Ordering::Relaxed);
        self.rejected.fetch_add(out.len() as u64 - accepted, Ordering::Relaxed);
        out
    }

    /// Streams matching a selector: index candidates from equality
    /// matchers, then full matcher evaluation per candidate, then the
    /// streams only the durable tier knows (`store_only_streams`).
    pub fn select_streams(&self, selector: &Selector) -> Vec<LabelSet> {
        let st = self.state.read();
        let mut out: Vec<LabelSet> = st
            .streams
            .candidates(selector.equality_matchers())
            .filter(|(labels, _)| selector.matches(labels))
            .map(|(labels, _)| labels.clone())
            .collect();
        out.extend(self.store_only_streams(selector, |labels| st.streams.find(labels).is_some()));
        out
    }

    /// Streams matching `selector` that this shard is home to but does not
    /// hold in memory (`in_memory` says which it does): offloaded, then
    /// the in-memory map lost to a crash, or never on this replacement
    /// ingester. They are found through the store's series index.
    fn store_only_streams(
        &self,
        selector: &Selector,
        in_memory: impl Fn(&LabelSet) -> bool,
    ) -> Vec<LabelSet> {
        let Some(store) = &self.chunk_store else { return Vec::new() };
        let mut series = store.series();
        series.retain(|labels| self.owns(labels) && !in_memory(labels) && selector.matches(labels));
        series
    }

    /// Entries of matching streams in `(start, end]`, tagged with their
    /// stream labels and in arrival order, plus the storage-side read
    /// cost (see [`crate::reader`] for tier order, pruning and where a
    /// corrupt chunk goes).
    pub fn query_stats(
        &self,
        selector: &Selector,
        start: Timestamp,
        end: Timestamp,
    ) -> (Vec<(LabelSet, Vec<LogEntry>)>, QueryStats) {
        let mut stats = QueryStats::default();
        // Phase 1, under the read lock: what memory holds for the matching
        // streams, then the matching streams only the durable tier knows
        // (`store_only_streams`; listing the series index reads no
        // object), so nothing is counted twice. Store reads wait until the
        // guard drops: the cold-tier GET path can block, and holding the
        // shard lock across it would stall ingest on this shard (the
        // lock-held-across-call class).
        let mut streams: Vec<(LabelSet, Vec<LogEntry>)> = {
            let st = self.state.read();
            let mut streams: Vec<_> = st
                .streams
                .candidates(selector.equality_matchers())
                .filter(|(labels, _)| selector.matches(labels))
                .map(|(labels, s)| (labels.clone(), reader::read_memory(s, start, end, &mut stats)))
                .collect();
            let store_only = self.store_only_streams(selector, |l| st.streams.find(l).is_some());
            streams.extend(store_only.into_iter().map(|labels| (labels, Vec::new())));
            streams
        };
        if let Some(store) = &self.chunk_store {
            // Phase 2: the older tiers go in front of what memory held —
            // home shard only, since the store is shared cluster-wide.
            for (labels, entries) in streams.iter_mut().filter(|(l, _)| self.owns(l)) {
                let mut memory = std::mem::take(entries);
                *entries = reader::read_store(store, labels, start, end, &mut stats);
                entries.append(&mut memory);
                entries.sort_by_key(|e| e.ts);
            }
        }
        streams.retain(|(_, entries)| !entries.is_empty());
        (streams, stats)
    }

    /// Offload sealed chunks entirely older than `older_than` to the
    /// chunk store ("chunks are first stored in memory, and then moved to
    /// disk"). Returns chunks moved; no-op without a store.
    pub fn offload(&self, older_than: Timestamp) -> usize {
        let Some(store) = &self.chunk_store else { return 0 };
        let mut st = self.state.write();
        let mut moved = 0;
        // Slot order: `persist` allocates store-wide key sequence numbers,
        // so the sweep order must be deterministic for byte-identical
        // chaos replay.
        for (_, labels, s) in st.streams.iter_mut() {
            let drained = s.drain_chunks_before(older_than);
            if drained.is_empty() {
                continue;
            }
            store.register_series(labels);
            for chunk in drained {
                store.persist(labels, &chunk);
                moved += 1;
            }
        }
        moved
    }

    /// Seal head chunks older than the age limit.
    pub fn tick(&self, now: Timestamp) {
        let mut guard = self.state.write();
        let st = &mut *guard;
        let mut sealed = 0;
        // Slot order: the drained seal sizes feed the fill-ratio histogram.
        for (_, _, s) in st.streams.iter_mut() {
            if s.maybe_seal_by_age(now, &self.limits) {
                sealed += 1;
                if let Some(c) = s.sealed_chunks().last() {
                    st.seal_sizes.push(c.uncompressed as u64);
                }
            }
        }
        self.chunks_sealed.fetch_add(sealed, Ordering::Relaxed);
    }

    /// Drain the uncompressed sizes of chunks sealed since the last call
    /// (by target-size overflow or by age). Feeds the fill-ratio
    /// histogram in the stack's self-telemetry.
    pub fn take_seal_sizes(&self) -> Vec<u64> {
        std::mem::take(&mut self.state.write().seal_sizes)
    }

    /// Force-flush every head chunk.
    pub fn flush(&self) {
        for (_, _, s) in self.state.write().streams.iter_mut() {
            s.flush();
        }
    }

    /// Drop chunks and streams beyond the retention horizon.
    /// Returns `(chunks_dropped, streams_dropped)`.
    pub fn enforce_retention(&self, now: Timestamp) -> (usize, usize) {
        let (chunks, dropped) = self.enforce_retention_by(now, &|_| self.limits.retention_ns);
        (chunks, dropped.len())
    }

    /// Drop chunks and streams beyond a *per-stream* retention horizon:
    /// `retention_of(labels)` names each stream's horizon, which is how
    /// per-tenant retention reaches storage (the resolver reads the
    /// stream's `__tenant__` label). Returns the chunks dropped and the
    /// labels of every fully retired stream so the caller can release
    /// tenant stream-cap accounting.
    pub fn enforce_retention_by(
        &self,
        now: Timestamp,
        retention_of: &(dyn Fn(&LabelSet) -> i64 + Sync),
    ) -> (usize, Vec<LabelSet>) {
        // Snapshot stream identities under the read lock, in slot order,
        // then resolve horizons with no shard lock held: the resolver
        // reads tenant state, which ranks *before* the shard band in the
        // declared lock order (DESIGN.md §14), so calling it under
        // `state` would invert the hierarchy.
        let ident: Vec<_> =
            self.state.read().streams.iter().map(|(id, labels, _)| (id, labels.clone())).collect();
        let horizons: Vec<_> = ident
            .into_iter()
            // Saturate: a sentinel `now` must clamp, not wrap (the
            // `start - range_ns` overflow class).
            .map(|(id, labels)| (id, now.saturating_sub(retention_of(&labels))))
            .collect();
        let mut st = self.state.write();
        let mut chunks = 0;
        let mut dropped: Vec<LabelSet> = Vec::new();
        for (id, horizon) in horizons {
            // Streams created since the snapshot are skipped this tick:
            // they are new by definition, so no horizon can touch them.
            let Some(s) = st.streams.get_mut(id) else { continue };
            chunks += s.enforce_retention(horizon);
            if s.is_empty() && s.newest_ts() < horizon {
                dropped.extend(st.streams.remove(id).map(|(labels, _)| labels));
            }
        }
        // The disk tiers obey the same horizons, but their deletes are
        // executed by the compactor's single store walk (see
        // `compactor::Compactor::apply_retention`), not an eager
        // per-shard sweep here.
        (chunks, dropped)
    }

    /// Oldest timestamp held only in memory across every stream — the WAL
    /// checkpoint bound. `None` when everything accepted is durable (or
    /// the shard is empty).
    pub fn min_unpersisted_ts(&self) -> Option<Timestamp> {
        self.state.read().streams.iter().filter_map(|(_, _, s)| s.oldest_ts_in_memory()).min()
    }

    /// Shard counters.
    pub fn stats(&self) -> IngesterStats {
        IngesterStats {
            entries: self.entries.load(Ordering::Relaxed),
            bytes: self.bytes.load(Ordering::Relaxed),
            chunks_sealed: self.chunks_sealed.load(Ordering::Relaxed),
            rejected: self.rejected.load(Ordering::Relaxed),
        }
    }

    /// Number of active streams.
    pub fn stream_count(&self) -> usize {
        self.state.read().streams.len()
    }

    /// Total sealed chunks currently held.
    pub fn chunk_count(&self) -> usize {
        self.state.read().streams.iter().map(|(_, _, s)| s.chunk_count()).sum()
    }

    /// Sum of compressed chunk bytes held.
    pub fn compressed_bytes(&self) -> usize {
        self.state
            .read()
            .streams
            .iter()
            .flat_map(|(_, _, s)| s.sealed_chunks())
            .map(|c| c.compressed_size())
            .sum()
    }

    /// Sum of uncompressed chunk payload bytes held.
    pub fn uncompressed_bytes(&self) -> usize {
        self.state
            .read()
            .streams
            .iter()
            .flat_map(|(_, _, s)| s.sealed_chunks())
            .map(|c| c.uncompressed)
            .sum()
    }

    /// Raw compressed bytes of every sealed chunk, per stream in slot
    /// order — the byte-level surface the batch/sequential equivalence
    /// tests compare.
    pub fn sealed_chunk_bytes(&self) -> Vec<(LabelSet, Vec<u8>)> {
        let st = self.state.read();
        st.streams
            .iter()
            .map(|(_, labels, s)| {
                (
                    labels.clone(),
                    s.sealed_chunks().iter().flat_map(|c| c.raw_block()).copied().collect(),
                )
            })
            .collect()
    }

    /// Index entry count (see C4).
    pub fn index_entries(&self) -> usize {
        self.state.read().streams.index().entry_count()
    }

    /// Approximate index memory.
    pub fn index_bytes(&self) -> usize {
        self.state.read().streams.index().approx_bytes()
    }

    /// Label values (for the API surface Grafana uses).
    pub fn label_values(&self, name: &str) -> Vec<String> {
        self.state.read().streams.index().label_values(name)
    }

    /// Label names present on this shard.
    pub fn label_names(&self) -> Vec<String> {
        self.state.read().streams.index().label_names()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use omni_logql::parse_selector;
    use omni_model::labels;

    fn rec(labels: LabelSet, ts: Timestamp, line: &str) -> LogRecord {
        LogRecord::new(labels, ts, line)
    }

    #[test]
    fn append_creates_stream_and_indexes() {
        let ing = Ingester::new(Limits::default());
        ing.append(rec(labels!("app" => "fm"), 1, "hello")).unwrap();
        assert_eq!(ing.stream_count(), 1);
        let sel = parse_selector(r#"{app="fm"}"#).unwrap();
        let streams = ing.select_streams(&sel);
        assert_eq!(streams.len(), 1);
    }

    #[test]
    fn query_respects_selector_and_window() {
        let ing = Ingester::new(Limits::default());
        for i in 0..10 {
            ing.append(rec(labels!("app" => "a"), i * 10, "a line")).unwrap();
            ing.append(rec(labels!("app" => "b"), i * 10, "b line")).unwrap();
        }
        let sel = parse_selector(r#"{app="a"}"#).unwrap();
        let (got, _) = ing.query_stats(&sel, 20, 50);
        assert_eq!(got.len(), 1);
        assert_eq!(got[0].1.len(), 3); // 30,40,50
    }

    #[test]
    fn regex_selector_falls_back_to_scan() {
        let ing = Ingester::new(Limits::default());
        ing.append(rec(labels!("app" => "fabric_manager_monitor"), 1, "x")).unwrap();
        ing.append(rec(labels!("app" => "loki"), 1, "y")).unwrap();
        let sel = parse_selector(r#"{app=~"fabric.*"}"#).unwrap();
        assert_eq!(ing.select_streams(&sel).len(), 1);
    }

    #[test]
    fn limits_enforced() {
        let limits = Limits {
            max_label_names_per_series: 2,
            max_streams_per_shard: 1,
            ..Default::default()
        };
        let ing = Ingester::new(limits);
        let too_many = labels!("a" => "1", "b" => "2", "c" => "3");
        assert!(matches!(ing.append(rec(too_many, 1, "x")), Err(IngestError::TooManyLabels(3))));
        ing.append(rec(labels!("a" => "1"), 1, "x")).unwrap();
        assert!(matches!(
            ing.append(rec(labels!("a" => "2"), 1, "x")),
            Err(IngestError::StreamLimitExceeded)
        ));
        assert!(matches!(ing.append(rec(LabelSet::new(), 1, "x")), Err(IngestError::EmptyLabels)));
        assert_eq!(ing.stats().rejected, 3);
    }

    #[test]
    fn retention_drops_streams_and_chunks() {
        let limits = Limits { chunk_target_bytes: 8, retention_ns: 100, ..Default::default() };
        let ing = Ingester::new(limits);
        ing.append(rec(labels!("old" => "1"), 10, "0123456789")).unwrap();
        ing.append(rec(labels!("new" => "1"), 900, "0123456789")).unwrap();
        let (chunks, streams) = ing.enforce_retention(1000);
        assert!(chunks >= 1);
        assert_eq!(streams, 1);
        assert_eq!(ing.stream_count(), 1);
    }

    #[test]
    fn tick_seals_aged_heads() {
        let limits = Limits { chunk_max_age_ns: 100, ..Default::default() };
        let ing = Ingester::new(limits);
        ing.append(rec(labels!("a" => "1"), 0, "x")).unwrap();
        assert_eq!(ing.chunk_count(), 1); // head counts as one bucket
        ing.tick(500);
        assert_eq!(ing.stats().chunks_sealed, 1);
    }

    #[test]
    fn concurrent_appends_across_streams() {
        let ing = std::sync::Arc::new(Ingester::new(Limits::default()));
        std::thread::scope(|s| {
            for t in 0..8 {
                let ing = ing.clone();
                s.spawn(move || {
                    for i in 0..500 {
                        ing.append(rec(labels!("worker" => format!("{t}")), i, "concurrent line"))
                            .unwrap();
                    }
                });
            }
        });
        let stats = ing.stats();
        assert_eq!(stats.entries, 4_000);
        assert_eq!(ing.stream_count(), 8);
    }

    #[test]
    fn compression_accounting() {
        let limits = Limits { chunk_target_bytes: 1_000, ..Default::default() };
        let ing = Ingester::new(limits);
        for i in 0..200 {
            ing.append(rec(labels!("a" => "1"), i, "a very repetitive log line indeed")).unwrap();
        }
        ing.flush();
        assert!(ing.compressed_bytes() > 0);
        assert!(ing.uncompressed_bytes() > ing.compressed_bytes());
    }
}
