//! One log stream: "If logs share the same combination of unique labels,
//! they are called a log stream. Each log stream fills a separate chunk."
//!
//! A [`Stream`] is what an ingester shard's series table holds for one
//! label set. It owns the two in-memory tiers — sealed chunks, oldest
//! first, and the open head — and the write side of them: append, seal,
//! drain for offload, retention. Reading them is [`crate::reader`]'s job.

use crate::chunk::{HeadChunk, SealedChunk};
use crate::limits::Limits;
use omni_model::{LogEntry, Timestamp};

/// Why an append was rejected.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum AppendError {
    /// Entry is older than the stream's ordering window allows.
    OutOfOrder {
        /// The rejected entry's timestamp.
        entry_ts: Timestamp,
        /// The newest accepted timestamp.
        newest_ts: Timestamp,
    },
    /// Line exceeds `max_line_size`.
    LineTooLong(usize),
}

impl std::fmt::Display for AppendError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            AppendError::OutOfOrder { entry_ts, newest_ts } => {
                write!(f, "entry at {entry_ts} out of order (newest {newest_ts})")
            }
            AppendError::LineTooLong(n) => write!(f, "line of {n} bytes exceeds limit"),
        }
    }
}

impl std::error::Error for AppendError {}

/// A stream's entries: open head chunk + sealed chunks. Its labels are
/// its key in the shard's series table.
#[derive(Debug)]
pub struct Stream {
    head: HeadChunk,
    chunks: Vec<SealedChunk>,
    newest_ts: Timestamp,
    total_entries: u64,
    total_bytes: u64,
}

impl Default for Stream {
    fn default() -> Self {
        Self::new()
    }
}

impl Stream {
    /// New empty stream.
    pub fn new() -> Self {
        Self {
            head: HeadChunk::new(),
            chunks: Vec::new(),
            newest_ts: i64::MIN,
            total_entries: 0,
            total_bytes: 0,
        }
    }

    /// Append one entry, enforcing ordering and line-size limits and
    /// cutting the head chunk per policy. Returns `true` when the append
    /// sealed a chunk.
    pub fn append(&mut self, entry: LogEntry, limits: &Limits) -> Result<bool, AppendError> {
        if entry.line.len() > limits.max_line_size {
            return Err(AppendError::LineTooLong(entry.line.len()));
        }
        if entry.ts < self.newest_ts.saturating_sub(limits.out_of_order_tolerance_ns) {
            return Err(AppendError::OutOfOrder { entry_ts: entry.ts, newest_ts: self.newest_ts });
        }
        // Within the tolerance window entries may arrive slightly late;
        // clamp into order for the head chunk (Loki 2.4 rejects instead
        // when the window is 0).
        let ts = entry.ts.max(self.head.max_ts().unwrap_or(i64::MIN));
        self.newest_ts = self.newest_ts.max(entry.ts);
        self.total_entries += 1;
        self.total_bytes += entry.line.len() as u64;
        self.head.append(LogEntry { ts, line: entry.line });

        let mut sealed = false;
        if self.head.bytes() >= limits.chunk_target_bytes {
            self.seal_head();
            sealed = true;
        }
        Ok(sealed)
    }

    /// Seal the head chunk if it has outlived `chunk_max_age_ns` relative
    /// to `now`. Returns `true` if a chunk was cut.
    pub fn maybe_seal_by_age(&mut self, now: Timestamp, limits: &Limits) -> bool {
        if let Some(min_ts) = self.head.min_ts() {
            if now - min_ts >= limits.chunk_max_age_ns {
                self.seal_head();
                return true;
            }
        }
        false
    }

    fn seal_head(&mut self) {
        if !self.head.is_empty() {
            self.chunks.push(self.head.seal());
        }
    }

    /// Force-seal (used on shutdown/flush).
    pub fn flush(&mut self) {
        self.seal_head();
    }

    /// Sealed chunk count.
    pub fn chunk_count(&self) -> usize {
        self.chunks.len() + usize::from(!self.head.is_empty())
    }

    /// Sealed chunks, oldest first (size accounting, and the reader's
    /// sealed-in-memory tier).
    pub fn sealed_chunks(&self) -> &[SealedChunk] {
        &self.chunks
    }

    /// The open head chunk (the reader's newest tier).
    pub fn head(&self) -> &HeadChunk {
        &self.head
    }

    /// Total entries ever appended.
    pub fn total_entries(&self) -> u64 {
        self.total_entries
    }

    /// Total line bytes ever appended.
    pub fn total_bytes(&self) -> u64 {
        self.total_bytes
    }

    /// Newest accepted timestamp.
    pub fn newest_ts(&self) -> Timestamp {
        self.newest_ts
    }

    /// Remove and return sealed chunks entirely older than `horizon`
    /// (the memory → disk offload path).
    pub fn drain_chunks_before(&mut self, horizon: Timestamp) -> Vec<SealedChunk> {
        let mut drained = Vec::new();
        self.chunks.retain(|c| {
            if c.max_ts < horizon {
                drained.push(c.clone());
                false
            } else {
                true
            }
        });
        drained
    }

    /// Drop chunks entirely older than `horizon` (whole-chunk
    /// granularity, exactly like the disk tier's `delete_before`): a
    /// sealed chunk — or the unsealed head — is removed iff its
    /// `max_ts < horizon`, and kept whole when it spans the boundary.
    /// Returns chunks dropped.
    pub fn enforce_retention(&mut self, horizon: Timestamp) -> usize {
        let before = self.chunks.len();
        self.chunks.retain(|c| c.max_ts >= horizon);
        let mut dropped = before - self.chunks.len();
        // The head chunk must expire on the same predicate, or data that
        // never sealed (quiet streams) would outlive retention in the
        // memory tier while its flushed twin on disk is deleted.
        if matches!(self.head.max_ts(), Some(max) if max < horizon) {
            self.head = HeadChunk::new();
            dropped += 1;
        }
        dropped
    }

    /// Whether the stream holds no data at all.
    pub fn is_empty(&self) -> bool {
        self.chunks.is_empty() && self.head.is_empty()
    }

    /// Oldest timestamp still held in memory (head or sealed-but-not-yet
    /// offloaded chunks) — the WAL must keep everything from here on, since
    /// a crash would lose it.
    pub fn oldest_ts_in_memory(&self) -> Option<Timestamp> {
        let chunk_min = self.chunks.iter().map(|c| c.min_ts).min();
        match (self.head.min_ts(), chunk_min) {
            (Some(h), Some(c)) => Some(h.min(c)),
            (h, c) => h.or(c),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn stream() -> Stream {
        Stream::new()
    }

    fn entries_in(s: &Stream, start: Timestamp, end: Timestamp) -> Vec<LogEntry> {
        crate::reader::read_memory(s, start, end, &mut Default::default())
    }

    #[test]
    fn append_and_query() {
        let mut s = stream();
        let limits = Limits::default();
        for i in 0..10 {
            s.append(LogEntry::new(i * 100, format!("l{i}")), &limits).unwrap();
        }
        let es = entries_in(&s, 100, 500);
        assert_eq!(es.len(), 4); // 200,300,400,500
        assert_eq!(s.total_entries(), 10);
    }

    #[test]
    fn out_of_order_rejected_with_zero_tolerance() {
        let mut s = stream();
        let limits = Limits::default();
        s.append(LogEntry::new(1000, "a"), &limits).unwrap();
        let err = s.append(LogEntry::new(500, "b"), &limits).unwrap_err();
        assert!(matches!(err, AppendError::OutOfOrder { entry_ts: 500, newest_ts: 1000 }));
    }

    #[test]
    fn tolerance_window_accepts_slightly_late() {
        let mut s = stream();
        let limits = Limits { out_of_order_tolerance_ns: 600, ..Default::default() };
        s.append(LogEntry::new(1000, "a"), &limits).unwrap();
        s.append(LogEntry::new(500, "late"), &limits).unwrap();
        // Clamped into order; both retrievable.
        assert_eq!(entries_in(&s, 0, 2000).len(), 2);
        let err = s.append(LogEntry::new(100, "too late"), &limits);
        assert!(err.is_err());
    }

    #[test]
    fn line_size_limit() {
        let mut s = stream();
        let limits = Limits { max_line_size: 10, ..Default::default() };
        assert!(matches!(
            s.append(LogEntry::new(1, "x".repeat(11)), &limits),
            Err(AppendError::LineTooLong(11))
        ));
    }

    #[test]
    fn chunk_cut_on_bytes() {
        let mut s = stream();
        let limits = Limits { chunk_target_bytes: 100, ..Default::default() };
        let mut seals = 0;
        for i in 0..100 {
            if s.append(LogEntry::new(i, "0123456789"), &limits).unwrap() {
                seals += 1;
            }
        }
        assert!(seals >= 9, "sealed {seals} chunks");
        assert!(s.sealed_chunks().len() >= 9);
        // All entries still queryable across chunk boundaries.
        assert_eq!(entries_in(&s, -1, 1000).len(), 100);
    }

    #[test]
    fn chunk_cut_on_age() {
        let mut s = stream();
        let limits = Limits { chunk_max_age_ns: 1_000, ..Default::default() };
        s.append(LogEntry::new(0, "old"), &limits).unwrap();
        assert!(!s.maybe_seal_by_age(500, &limits));
        assert!(s.maybe_seal_by_age(1_500, &limits));
        assert_eq!(s.sealed_chunks().len(), 1);
    }

    #[test]
    fn retention_drops_old_chunks() {
        let mut s = stream();
        let limits = Limits { chunk_target_bytes: 10, ..Default::default() };
        for i in 0..10 {
            s.append(LogEntry::new(i * 100, "0123456789ab"), &limits).unwrap();
        }
        let total_chunks = s.sealed_chunks().len();
        let dropped = s.enforce_retention(500);
        assert!(dropped > 0);
        assert!(s.sealed_chunks().len() < total_chunks);
        // Remaining data is only the newer half.
        assert!(entries_in(&s, -1, 10_000).iter().all(|e| e.ts >= 400));
    }

    #[test]
    fn retention_drops_expired_head_chunk() {
        // Regression: the memory tier only expired *sealed* chunks, so
        // unsealed head data older than the horizon survived retention
        // while the same workload flushed to the disk tier was deleted.
        let mut s = stream();
        let limits = Limits::default(); // large target: data stays in the head
        s.append(LogEntry::new(100, "stale head data"), &limits).unwrap();
        assert_eq!(s.enforce_retention(1_000), 1);
        assert!(s.is_empty());
        assert!(entries_in(&s, -1, 10_000).is_empty());

        // A head spanning the horizon is kept whole (chunk granularity),
        // matching the sealed and disk tiers.
        s.append(LogEntry::new(2_000, "a"), &limits).unwrap();
        s.append(LogEntry::new(4_000, "b"), &limits).unwrap();
        assert_eq!(s.enforce_retention(3_000), 0);
        assert_eq!(entries_in(&s, -1, 10_000).len(), 2);
    }

    #[test]
    fn flush_seals_head() {
        let mut s = stream();
        s.append(LogEntry::new(1, "x"), &Limits::default()).unwrap();
        assert_eq!(s.sealed_chunks().len(), 0);
        s.flush();
        assert_eq!(s.sealed_chunks().len(), 1);
    }
}
