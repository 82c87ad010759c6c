//! Property tests for the chunk codec and the block compressor, and the
//! hostile-bytes properties of the chunk-object decoder: whatever bytes a
//! store hands back, `object_to_chunk` then `decode_range` yields entries
//! or an error — never a panic, and never an allocation sized by a count
//! the bytes merely claim.

use bytes::Bytes;
use omni_loki::chunk::SealedChunk;
use omni_loki::chunkstore::{chunk_to_object, object_to_chunk};
use omni_loki::compress::{compress, decompress, get_uvarint, put_uvarint};
use omni_loki::QueryStats;
use omni_model::LogEntry;
use proptest::prelude::*;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::ops::Range;

/// Tracks the largest single allocation each thread requests, so a
/// property can bound what decoding a buffer may ask for.
struct Largest;

thread_local! {
    static LARGEST: Cell<usize> = const { Cell::new(0) };
}

fn note(size: usize) {
    LARGEST.with(|l| l.set(l.get().max(size)));
}

// SAFETY: every method forwards to `System` with the caller's layout and
// pointer unchanged; the thread-local beside it never touches the memory.
unsafe impl GlobalAlloc for Largest {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note(layout.size());
        // SAFETY: the caller upholds `GlobalAlloc::alloc`'s contract.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System` with this `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note(new_size);
        // SAFETY: `ptr` came from `System` with this `layout`.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOCATOR: Largest = Largest;

/// Decode `object` the way the reader does — twice into one
/// `QueryStats`, as a query sums many chunks — and the way the compactor
/// does, and check the largest allocation stays within what the decoded bytes could
/// honestly need. Each compressed byte inflates to at most 44 (a 3-byte
/// match token copies 131), every entry costs at least 2 of those bytes,
/// and a `LogEntry` is 32 bytes, so the bound leaves room for doubling
/// growth above that and no room for a claimed count.
fn decode_hostile(object: &[u8]) {
    LARGEST.with(|l| l.set(0));
    if let Ok(chunk) = object_to_chunk(object) {
        let mut stats = QueryStats::default();
        for _ in 0..2 {
            let _ = chunk.decode_range(i64::MIN, i64::MAX, &mut stats);
        }
        let _ = chunk.decode();
    }
    let bound = 4_096 + object.len() * 44 * 32;
    let largest = LARGEST.with(Cell::get);
    assert!(largest <= bound, "a {}-byte object allocated {largest} bytes", object.len());
}

/// An object header claiming `body` is an honest block container.
fn framed(body: &[u8]) -> Vec<u8> {
    let mut out = Vec::new();
    for field in [3, 0, 2_000, 4_096, body.len() as u64] {
        put_uvarint(&mut out, field);
    }
    out.extend_from_slice(body);
    out
}

/// `object` with its length field recomputed from what follows the
/// header, so a change inside the container reaches the container decoder.
fn reframed(object: &[u8]) -> Vec<u8> {
    let mut out = Vec::new();
    let mut pos = 0;
    for _ in 0..4 {
        let (value, n) = get_uvarint(&object[pos..]).unwrap();
        put_uvarint(&mut out, value);
        pos += n;
    }
    pos += get_uvarint(&object[pos..]).unwrap().1;
    put_uvarint(&mut out, (object.len() - pos) as u64);
    out.extend_from_slice(&object[pos..]);
    out
}

/// The byte range of every header field of a valid object, in order:
/// the object's `count, min_ts, max_ts, uncompressed, len`, the block
/// count, then per block `min_ts, max_ts, count, uncompressed_len,
/// compressed_len`.
fn header_fields(object: &[u8]) -> Vec<Range<usize>> {
    let mut out = Vec::new();
    let mut field = |pos: &mut usize| {
        let (value, n) = get_uvarint(&object[*pos..]).unwrap();
        out.push(*pos..*pos + n);
        *pos += n;
        value
    };
    let mut pos = 0;
    for _ in 0..5 {
        field(&mut pos);
    }
    for _ in 0..field(&mut pos) {
        let mut payload = 0;
        for _ in 0..5 {
            payload = field(&mut pos);
        }
        pos += payload as usize;
    }
    out
}

/// A valid object of three blocks, starting before the epoch, with
/// deltas of several sizes and equal timestamps. Blocks are
/// self-contained, so a container is its block count and then the blocks
/// in order: splicing three one-block chunks keeps it far below the
/// 8 KiB an encoder-cut block needs, and every flip cheap to decode.
fn multi_block_object() -> Bytes {
    let parts = [(-5_000, 0), (-4_000, 1), (700, 90)].map(|(base, step)| {
        let entries: Vec<LogEntry> =
            (0..6).map(|i| LogEntry::new(base + i * step, format!("line {i} ü"))).collect();
        SealedChunk::from_entries(&entries)
    });
    let mut container = vec![parts.len() as u8];
    for part in &parts {
        assert_eq!(part.raw_block()[0], 1, "a one-block container");
        container.extend_from_slice(&part.raw_block()[1..]);
    }
    let chunk = SealedChunk::from_parts(
        Bytes::from(container),
        parts[0].min_ts,
        parts[2].max_ts,
        parts.iter().map(|p| p.count).sum(),
        parts.iter().map(|p| p.uncompressed).sum(),
    );
    let spliced: Vec<LogEntry> = parts.iter().flat_map(|p| p.decode().unwrap()).collect();
    assert_eq!((chunk.block_count(), chunk.decode().unwrap()), (3, spliced));
    chunk_to_object(&chunk)
}

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

    /// Arbitrary bytes posing as a chunk object — as a whole, or as the
    /// block container behind a well-formed object header — decode to
    /// entries or an error.
    #[test]
    fn arbitrary_object_bytes_never_panic_the_decoder(
        data in prop::collection::vec(any::<u8>(), 0..2_000),
    ) {
        decode_hostile(&data);
        decode_hostile(&framed(&data));
    }

    /// Flipping any bits of any one byte of a valid multi-block object
    /// never panics the decoder.
    #[test]
    fn single_byte_flips_never_panic_the_object_decoder(mask in 1u8..255) {
        let object = multi_block_object();
        for i in 0..object.len() {
            let mut bytes = object.to_vec();
            bytes[i] ^= mask;
            decode_hostile(&bytes);
        }
    }

    /// Each header field of a valid multi-block object — the counts and
    /// lengths a decoder reads before any payload can vouch for them —
    /// replaced by an arbitrary value, small or huge: as is, and with the
    /// object's length field made honest again.
    #[test]
    fn arbitrary_header_fields_never_panic_the_decoder(
        value in prop_oneof![any::<u64>(), 0u64..20_000],
    ) {
        let object = multi_block_object();
        let mut varint = Vec::new();
        put_uvarint(&mut varint, value);
        for field in header_fields(&object) {
            let hostile = [&object[..field.start], &varint, &object[field.end..]].concat();
            decode_hostile(&hostile);
            decode_hostile(&reframed(&hostile));
        }
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
