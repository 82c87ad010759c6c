//! Chunks: "a concept that Loki uses to describe how it stores logs in
//! small buckets. Each log stream fills a separate chunk... Chunks are
//! first stored in memory, and then moved to disk." (§IV-A)
//!
//! A [`HeadChunk`] is the open in-memory bucket taking appends; when it
//! fills (bytes or age) the ingester seals it into a [`SealedChunk`]. A
//! sealed chunk is a sequence of independently-compressed **blocks**, each
//! carrying its own min/max timestamp in a small uncompressed header, so
//! range reads decompress only the blocks that overlap the window instead
//! of the whole chunk (Loki's chunk-internal block index). There is one
//! range read, [`SealedChunk::decode_range`], and on the query path one
//! caller of it: [`crate::reader`].

use crate::compress::{
    compress, decompress, get_str, get_uvarint, put_uvarint, unzigzag, zigzag, CorruptBlock,
};
use crate::reader::QueryStats;
use bytes::Bytes;
use omni_model::{LogEntry, Timestamp};

/// Target uncompressed payload size of one block inside a sealed chunk.
/// Small enough that a narrow range query skips most of a 256 KiB chunk,
/// large enough that the LZ77 window still sees plenty of history.
pub const BLOCK_TARGET_BYTES: usize = 8 * 1024;

/// The open, append-only in-memory chunk of one stream.
#[derive(Debug, Default)]
pub struct HeadChunk {
    entries: Vec<LogEntry>,
    bytes: usize,
}

impl HeadChunk {
    /// Empty head chunk.
    pub fn new() -> Self {
        Self::default()
    }

    /// Append an entry. Entries must arrive in non-decreasing timestamp
    /// order (the ingester enforces ordering before calling this).
    pub fn append(&mut self, entry: LogEntry) {
        debug_assert!(
            self.entries.last().map(|e| e.ts <= entry.ts).unwrap_or(true),
            "head chunk appends must be time-ordered"
        );
        self.bytes += entry.line.len();
        self.entries.push(entry);
    }

    /// Uncompressed byte size of buffered lines.
    pub fn bytes(&self) -> usize {
        self.bytes
    }

    /// Buffered entry count.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the head chunk has no entries.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Timestamp of the first buffered entry.
    pub fn min_ts(&self) -> Option<Timestamp> {
        self.entries.first().map(|e| e.ts)
    }

    /// Timestamp of the last buffered entry.
    pub fn max_ts(&self) -> Option<Timestamp> {
        self.entries.last().map(|e| e.ts)
    }

    /// Entries in `(start, end]`.
    pub fn entries_in(&self, start: Timestamp, end: Timestamp) -> Vec<LogEntry> {
        self.entries.iter().filter(|e| e.ts > start && e.ts <= end).cloned().collect()
    }

    /// Seal into a compressed chunk, leaving this head empty.
    pub fn seal(&mut self) -> SealedChunk {
        let entries = std::mem::take(&mut self.entries);
        self.bytes = 0;
        SealedChunk::from_entries(&entries)
    }
}

/// An immutable, compressed chunk: a block-count varint followed by
/// `[zigzag(min_ts), zigzag(max_ts), count, uncompressed_len,
/// compressed_len, compressed payload]` per block. Block headers stay
/// uncompressed so a range read can walk them and skip whole blocks.
#[derive(Debug, Clone)]
pub struct SealedChunk {
    /// Block headers + compressed block payloads.
    data: Bytes,
    /// First entry timestamp.
    pub min_ts: Timestamp,
    /// Last entry timestamp.
    pub max_ts: Timestamp,
    /// Entry count.
    pub count: usize,
    /// Uncompressed payload size (encoded entries, summed over blocks).
    pub uncompressed: usize,
}

/// One parsed block header plus its compressed payload.
struct BlockRef<'a> {
    min_ts: Timestamp,
    max_ts: Timestamp,
    count: usize,
    uncompressed_len: usize,
    payload: &'a [u8],
}

impl SealedChunk {
    /// Encode and compress entries (must be time-ordered), cutting a new
    /// block whenever the current one reaches [`BLOCK_TARGET_BYTES`].
    pub fn from_entries(entries: &[LogEntry]) -> Self {
        if entries.is_empty() {
            return Self { data: Bytes::new(), min_ts: 0, max_ts: 0, count: 0, uncompressed: 0 };
        }
        // Split into time-contiguous runs of roughly BLOCK_TARGET_BYTES.
        let mut blocks: Vec<&[LogEntry]> = Vec::new();
        let mut block_start = 0;
        let mut block_bytes = 0;
        for (i, e) in entries.iter().enumerate() {
            block_bytes += e.line.len();
            if block_bytes >= BLOCK_TARGET_BYTES {
                blocks.push(&entries[block_start..=i]);
                block_start = i + 1;
                block_bytes = 0;
            }
        }
        if block_start < entries.len() {
            blocks.push(&entries[block_start..]);
        }

        let mut data = Vec::new();
        put_uvarint(&mut data, blocks.len() as u64);
        let mut uncompressed = 0;
        let mut payload = Vec::with_capacity(BLOCK_TARGET_BYTES + 64);
        for block in blocks {
            payload.clear();
            put_uvarint(&mut payload, block.len() as u64);
            let base_ts = block[0].ts;
            put_uvarint(&mut payload, zigzag(base_ts));
            let mut prev = base_ts;
            for e in block {
                put_uvarint(&mut payload, zigzag(e.ts - prev));
                prev = e.ts;
                put_uvarint(&mut payload, e.line.len() as u64);
                payload.extend_from_slice(e.line.as_bytes());
            }
            uncompressed += payload.len();
            let compressed = compress(&payload);
            put_uvarint(&mut data, zigzag(base_ts));
            put_uvarint(&mut data, zigzag(block[block.len() - 1].ts));
            put_uvarint(&mut data, block.len() as u64);
            put_uvarint(&mut data, payload.len() as u64);
            put_uvarint(&mut data, compressed.len() as u64);
            data.extend_from_slice(&compressed);
        }
        Self {
            data: Bytes::from(data),
            min_ts: entries[0].ts,
            max_ts: entries[entries.len() - 1].ts,
            count: entries.len(),
            uncompressed,
        }
    }

    /// Compressed size in bytes.
    pub fn compressed_size(&self) -> usize {
        self.data.len()
    }

    /// The raw block container (for object-store serialization).
    pub fn raw_block(&self) -> &[u8] {
        &self.data
    }

    /// Reassemble a chunk from its stored parts (object-store
    /// deserialization path).
    pub fn from_parts(
        data: Bytes,
        min_ts: Timestamp,
        max_ts: Timestamp,
        count: usize,
        uncompressed: usize,
    ) -> Self {
        Self { data, min_ts, max_ts, count, uncompressed }
    }

    /// Compression ratio (uncompressed / compressed).
    pub fn ratio(&self) -> f64 {
        if self.data.is_empty() {
            1.0
        } else {
            self.uncompressed as f64 / self.data.len() as f64
        }
    }

    /// Number of compressed blocks inside this chunk.
    pub fn block_count(&self) -> usize {
        if self.data.is_empty() {
            return 0;
        }
        get_uvarint(&self.data).map(|(n, _)| n as usize).unwrap_or(0)
    }

    /// Parse the block headers, yielding each block lazily without
    /// touching its compressed payload.
    fn blocks(&self) -> Result<Vec<BlockRef<'_>>, CorruptBlock> {
        if self.data.is_empty() {
            return Ok(Vec::new());
        }
        let buf = &self.data[..];
        let mut pos = 0;
        let (block_count, n) = get_uvarint(&buf[pos..])?;
        pos += n;
        // Each block needs at least a 6-byte header; a count beyond that
        // cannot be honest, and must not drive a Vec pre-allocation.
        if block_count > (buf.len() / 6) as u64 + 1 {
            return Err(CorruptBlock("block count exceeds container size"));
        }
        let mut out = Vec::with_capacity(block_count as usize);
        for _ in 0..block_count {
            let (min_z, n) = get_uvarint(&buf[pos..])?;
            pos += n;
            let (max_z, n) = get_uvarint(&buf[pos..])?;
            pos += n;
            let (count, n) = get_uvarint(&buf[pos..])?;
            pos += n;
            let (uncompressed_len, n) = get_uvarint(&buf[pos..])?;
            pos += n;
            let (compressed_len, n) = get_uvarint(&buf[pos..])?;
            pos += n;
            if compressed_len > (buf.len() - pos) as u64 {
                return Err(CorruptBlock("block payload runs past chunk end"));
            }
            let compressed_len = compressed_len as usize;
            out.push(BlockRef {
                min_ts: unzigzag(min_z),
                max_ts: unzigzag(max_z),
                count: count as usize,
                uncompressed_len: uncompressed_len as usize,
                payload: &buf[pos..pos + compressed_len],
            });
            pos += compressed_len;
        }
        Ok(out)
    }

    /// Decompress and decode one block payload. The header's
    /// `uncompressed_len` must match what the payload inflates to: it is
    /// the size a range read reports, and a header is not trusted alone.
    fn decode_block(block: &BlockRef<'_>, out: &mut Vec<LogEntry>) -> Result<(), CorruptBlock> {
        let buf = decompress(block.payload)?;
        if buf.len() != block.uncompressed_len {
            return Err(CorruptBlock("block length disagrees with its header"));
        }
        let mut pos = 0;
        let (count, n) = get_uvarint(&buf[pos..])?;
        pos += n;
        let (base_z, n) = get_uvarint(&buf[pos..])?;
        pos += n;
        let mut ts = unzigzag(base_z);
        // Every entry costs at least 2 bytes; never pre-allocate past what
        // the payload could actually hold.
        if count > (buf.len() - pos) as u64 / 2 {
            return Err(CorruptBlock("entry count exceeds block size"));
        }
        out.reserve(count as usize);
        for _ in 0..count {
            // The first delta is stored as 0 (base_ts already equals the
            // first entry's ts), so unconditional accumulation is correct.
            let (delta_z, n) = get_uvarint(&buf[pos..])?;
            pos += n;
            ts = ts.wrapping_add(unzigzag(delta_z));
            let line = get_str(&buf, &mut pos)?.to_string();
            out.push(LogEntry { ts, line });
        }
        Ok(())
    }

    /// Decode all entries.
    pub fn decode(&self) -> Result<Vec<LogEntry>, CorruptBlock> {
        // `count` may come from an untrusted stored header; cap the
        // pre-allocation (decode still succeeds for honest large chunks).
        let mut out = Vec::with_capacity(self.count.min(self.data.len()));
        for block in self.blocks()? {
            Self::decode_block(&block, &mut out)?;
        }
        Ok(out)
    }

    /// Decode only entries in `(start, end]`, decompressing only blocks
    /// whose time span overlaps the window — the one range-decode entry
    /// point. Every block is counted into `stats` as decoded or skipped
    /// (the header check *is* the skip), so a window the chunk misses
    /// entirely skips all of them.
    pub fn decode_range(
        &self,
        start: Timestamp,
        end: Timestamp,
        stats: &mut QueryStats,
    ) -> Result<Vec<LogEntry>, CorruptBlock> {
        let mut out = Vec::new();
        for block in self.blocks()? {
            if block.count == 0 || block.max_ts <= start || block.min_ts > end {
                stats.blocks_skipped += 1;
                continue;
            }
            let before = out.len();
            Self::decode_block(&block, &mut out)?;
            stats.blocks_decoded += 1;
            stats.decompressed_bytes += block.uncompressed_len;
            // Filter in place: only the freshly decoded tail needs it.
            let mut keep = before;
            for i in before..out.len() {
                if out[i].ts > start && out[i].ts <= end {
                    out.swap(keep, i);
                    keep += 1;
                }
            }
            out.truncate(keep);
        }
        Ok(out)
    }

    /// Whether this chunk may contain entries in `(start, end]`.
    pub fn overlaps(&self, start: Timestamp, end: Timestamp) -> bool {
        self.count > 0 && self.max_ts > start && self.min_ts <= end
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn entries(n: usize) -> Vec<LogEntry> {
        (0..n)
            .map(|i| LogEntry::new(1_000 + i as i64 * 7, format!("line number {i} with payload")))
            .collect()
    }

    #[test]
    fn seal_and_decode_roundtrip() {
        let es = entries(100);
        let chunk = SealedChunk::from_entries(&es);
        assert_eq!(chunk.count, 100);
        assert_eq!(chunk.min_ts, 1_000);
        assert_eq!(chunk.max_ts, 1_000 + 99 * 7);
        assert_eq!(chunk.decode().unwrap(), es);
    }

    #[test]
    fn empty_chunk() {
        let chunk = SealedChunk::from_entries(&[]);
        assert_eq!(chunk.count, 0);
        assert_eq!(chunk.block_count(), 0);
        assert!(chunk.decode().unwrap().is_empty());
        assert!(!chunk.overlaps(i64::MIN, i64::MAX));
    }

    #[test]
    fn head_chunk_tracks_bytes_and_seals() {
        let mut head = HeadChunk::new();
        for e in entries(10) {
            head.append(e);
        }
        assert_eq!(head.len(), 10);
        assert!(head.bytes() > 0);
        let sealed = head.seal();
        assert!(head.is_empty());
        assert_eq!(head.bytes(), 0);
        assert_eq!(sealed.count, 10);
    }

    #[test]
    fn decode_range_filters_half_open() {
        let es = entries(10); // ts: 1000, 1007, ..., 1063
        let chunk = SealedChunk::from_entries(&es);
        let stats = &mut QueryStats::default();
        let got = chunk.decode_range(1000, 1014, stats).unwrap();
        // (1000, 1014] -> 1007, 1014
        assert_eq!(got.len(), 2);
        assert_eq!(got[0].ts, 1007);
        assert_eq!(got[1].ts, 1014);
        assert!(chunk.decode_range(2000, 3000, stats).unwrap().is_empty());
    }

    #[test]
    fn repeated_lines_compress() {
        let es: Vec<LogEntry> =
            (0..500).map(|i| LogEntry::new(i, "the same line every time, forever")).collect();
        let chunk = SealedChunk::from_entries(&es);
        assert!(chunk.ratio() > 5.0, "ratio {}", chunk.ratio());
        assert_eq!(chunk.decode().unwrap().len(), 500);
    }

    #[test]
    fn duplicate_timestamps_survive() {
        let es = vec![LogEntry::new(5, "a"), LogEntry::new(5, "b"), LogEntry::new(5, "c")];
        let chunk = SealedChunk::from_entries(&es);
        assert_eq!(chunk.decode().unwrap(), es);
    }

    #[test]
    fn unicode_lines_survive() {
        let es = vec![LogEntry::new(1, "日本語 naïve — ok")];
        let chunk = SealedChunk::from_entries(&es);
        assert_eq!(chunk.decode().unwrap(), es);
    }

    #[test]
    fn head_entries_in_window() {
        let mut head = HeadChunk::new();
        for e in entries(5) {
            head.append(e);
        }
        let got = head.entries_in(1000, 1007);
        assert_eq!(got.len(), 1);
        assert_eq!(got[0].ts, 1007);
    }

    #[test]
    fn large_chunk_splits_into_blocks() {
        let es = entries(2_000);
        let chunk = SealedChunk::from_entries(&es);
        assert!(chunk.block_count() > 1, "expected multiple blocks, got {}", chunk.block_count());
        assert_eq!(chunk.decode().unwrap(), es);
    }

    #[test]
    fn narrow_range_skip_win_is_visible_in_decode_stats() {
        let es = entries(2_000); // ts: 1000 .. 1000 + 1999*7
        let chunk = SealedChunk::from_entries(&es);
        let total = chunk.block_count();
        assert!(total > 2);
        // Narrow window in the middle of the chunk.
        let mid = 1_000 + 1_000 * 7;
        let mut stats = QueryStats::default();
        let got = chunk.decode_range(mid, mid + 70, &mut stats).unwrap();
        assert_eq!(got.len(), 10);
        assert!(got.iter().all(|e| e.ts > mid && e.ts <= mid + 70));
        // The stats partition the chunk: every block either decoded or
        // skipped, with most skipped for a narrow window.
        assert_eq!(stats.blocks_decoded + stats.blocks_skipped, total);
        assert!(stats.blocks_decoded >= 1);
        assert!(
            stats.blocks_skipped > stats.blocks_decoded,
            "narrow range should skip most blocks: {stats:?} of {total}"
        );
        // Decompressed bytes account only for decoded blocks.
        assert!(stats.decompressed_bytes > 0);
        assert!(stats.decompressed_bytes < chunk.uncompressed);
        // A fully disjoint window touches no payload at all.
        let mut miss = QueryStats::default();
        assert!(chunk.decode_range(1_000_000, 2_000_000, &mut miss).unwrap().is_empty());
        assert_eq!(miss.blocks_decoded, 0);
        assert_eq!(miss.blocks_skipped, total);
        assert_eq!(miss.decompressed_bytes, 0);
    }

    #[test]
    fn full_range_decode_matches_per_block_decode() {
        let es = entries(2_000);
        let chunk = SealedChunk::from_entries(&es);
        let mut stats = QueryStats::default();
        assert_eq!(chunk.decode_range(i64::MIN, i64::MAX, &mut stats).unwrap(), es);
        assert_eq!(stats.blocks_decoded, chunk.block_count());
    }

    /// A block header's `uncompressed_len` used to be trusted as the
    /// decompressed size: summed into `QueryStats::decompressed_bytes`, a
    /// hostile value overflowed (debug) or wrapped (release) as soon as a
    /// query read two such blocks. Found by
    /// `arbitrary_header_fields_never_panic_the_decoder` (`prop_chunk.rs`).
    #[test]
    fn block_length_must_match_its_payload() {
        let honest = SealedChunk::from_entries(&entries(10));
        let blocks = honest.blocks().unwrap();
        let block = &blocks[0];
        let mut data = Vec::new();
        put_uvarint(&mut data, 1);
        let (min, max, count) = (zigzag(block.min_ts), zigzag(block.max_ts), block.count as u64);
        for field in [min, max, count, u64::MAX, block.payload.len() as u64] {
            put_uvarint(&mut data, field);
        }
        data.extend_from_slice(block.payload);
        let hostile = SealedChunk::from_parts(
            Bytes::from(data),
            honest.min_ts,
            honest.max_ts,
            honest.count,
            honest.uncompressed,
        );
        let mut stats = QueryStats { decompressed_bytes: 1, ..Default::default() };
        assert!(hostile.decode_range(i64::MIN, i64::MAX, &mut stats).is_err());
        assert_eq!(stats.decompressed_bytes, 1);
        assert!(hostile.decode().is_err());
    }

    #[test]
    fn truncated_chunk_container_is_rejected() {
        let es = entries(200);
        let chunk = SealedChunk::from_entries(&es);
        let raw = chunk.raw_block();
        let truncated = Bytes::from(raw[..raw.len() / 2].to_vec());
        let bad = SealedChunk::from_parts(
            truncated,
            chunk.min_ts,
            chunk.max_ts,
            chunk.count,
            chunk.uncompressed,
        );
        assert!(bad.decode().is_err());
    }
}
