//! Property tests for the chunk codec and the block compressor.

use bytes::Bytes;
use omni_loki::chunk::SealedChunk;
use omni_loki::compress::{compress, decompress};
use omni_loki::QueryStats;
use omni_model::LogEntry;
use proptest::prelude::*;

proptest! {
    #[test]
    fn compressor_is_lossless(data in prop::collection::vec(any::<u8>(), 0..5_000)) {
        let c = compress(&data);
        prop_assert_eq!(decompress(&c).unwrap(), data);
    }

    #[test]
    fn compressor_is_lossless_on_repetitive_text(
        word in "[a-z]{1,10}",
        n in 1usize..500,
    ) {
        let data: Vec<u8> = word.repeat(n).into_bytes();
        let c = compress(&data);
        prop_assert_eq!(decompress(&c).unwrap(), data);
    }

    #[test]
    fn decompressor_never_panics(data in prop::collection::vec(any::<u8>(), 0..2_000)) {
        let _ = decompress(&data);
    }

    #[test]
    fn chunk_roundtrip(
        deltas in prop::collection::vec(0i64..1_000_000_000, 0..200),
        lines in prop::collection::vec("\\PC{0,60}", 0..200),
    ) {
        let n = deltas.len().min(lines.len());
        let mut ts = 1_600_000_000_000_000_000i64;
        let entries: Vec<LogEntry> = (0..n)
            .map(|i| {
                ts += deltas[i];
                LogEntry::new(ts, lines[i].clone())
            })
            .collect();
        let chunk = SealedChunk::from_entries(&entries);
        prop_assert_eq!(chunk.decode().unwrap(), entries);
    }

    #[test]
    fn chunk_decode_of_corrupt_container_never_panics(
        data in prop::collection::vec(any::<u8>(), 0..2_000),
        count in 0usize..500,
    ) {
        // Arbitrary bytes posing as a chunk container: decode must return
        // (possibly garbage) entries or an error — never panic.
        let chunk = SealedChunk::from_parts(Bytes::from(data), 0, 1_000_000, count, 4_096);
        let _ = chunk.decode();
        let _ = chunk.decode_range(100, 2_000, &mut QueryStats::default());
    }

    #[test]
    fn truncated_chunk_bytes_never_panic(
        n in 1usize..300,
        cut_frac in 0.0f64..1.0,
    ) {
        let entries: Vec<LogEntry> =
            (0..n).map(|i| LogEntry::new(i as i64 * 50, format!("payload line {i}"))).collect();
        let chunk = SealedChunk::from_entries(&entries);
        let raw = chunk.raw_block();
        let cut = ((raw.len() as f64) * cut_frac) as usize;
        let truncated = SealedChunk::from_parts(
            Bytes::from(raw[..cut].to_vec()),
            chunk.min_ts,
            chunk.max_ts,
            chunk.count,
            chunk.uncompressed,
        );
        let _ = truncated.decode();
        let _ = truncated.decode_range(0, i64::MAX, &mut QueryStats::default());
    }

    #[test]
    fn chunk_range_decode_equals_filtered_full_decode(
        n in 1usize..100,
        start_frac in 0.0f64..1.0,
        len_frac in 0.0f64..1.0,
    ) {
        let entries: Vec<LogEntry> =
            (0..n).map(|i| LogEntry::new(i as i64 * 100, format!("line {i}"))).collect();
        let chunk = SealedChunk::from_entries(&entries);
        let span = (n as i64) * 100;
        let start = (span as f64 * start_frac) as i64 - 50;
        let end = start + (span as f64 * len_frac) as i64;
        let ranged = chunk.decode_range(start, end, &mut QueryStats::default()).unwrap();
        let expected: Vec<LogEntry> = entries
            .iter()
            .filter(|e| e.ts > start && e.ts <= end)
            .cloned()
            .collect();
        prop_assert_eq!(ranged, expected);
    }
}
