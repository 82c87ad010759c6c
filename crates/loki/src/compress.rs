//! Block compression for chunk storage.
//!
//! "Log data is compressed and stored in chunks, thus a small index and
//! compressed chunks significantly reduce the costs for storage and the
//! log query times" (§III-A). This module implements the codec from
//! scratch: an LZ77-style byte compressor (hash-chain match finder with
//! one-step lazy matching) plus LEB128 varints and zigzag encoding used by
//! the chunk entry layout.
//!
//! Wire format of the compressed stream, token by token:
//!
//! * `0x00..=0x7f` — literal run: the control byte is the run length
//!   (1–127), followed by that many literal bytes;
//! * `0x80..=0xff` — match: length = `(ctrl & 0x7f) + MIN_MATCH`, followed
//!   by a 2-byte little-endian back-distance (1–65535).

use omni_model::LabelSet;

/// Minimum match length worth encoding.
const MIN_MATCH: usize = 4;
/// Maximum match length one token can carry.
const MAX_MATCH: usize = 127 + MIN_MATCH;
/// Window size (maximum back-distance).
const WINDOW: usize = 65_535;
/// Maximum hash-chain candidates examined per position.
const CHAIN_DEPTH: usize = 8;
/// A match this long is "good enough": stop walking the chain and skip
/// the lazy one-step lookahead (zlib's `nice_length` idea — the tail of
/// the chain rarely beats it, and searching costs more than it saves).
const NICE_MATCH: usize = 32;

/// Hash-table size (log2) scaled to the input: roughly one slot per two
/// input bytes, clamped to `2^8..=2^15`. `compress` runs once per ~8 KiB
/// chunk block, so a fixed maximum-size table would cost more to zero
/// than the block costs to scan.
fn table_bits(len: usize) -> u32 {
    let target = (len / 2).max(1);
    (usize::BITS - target.leading_zeros()).clamp(8, 15)
}

#[inline]
fn hash4(b: &[u8], bits: u32) -> usize {
    let v = u32::from_le_bytes([b[0], b[1], b[2], b[3]]);
    (v.wrapping_mul(2654435761) >> (32 - bits)) as usize
}

/// Walk the hash chain for position `i`, returning the best
/// `(length, distance)` found, or `(0, 0)` if nothing reaches
/// [`MIN_MATCH`]. Candidates at or past `i` (self-hits from already
/// indexing `i`) are skipped; the chain is recency-ordered, so the walk
/// stops at the first candidate beyond the window.
fn best_match(input: &[u8], i: usize, head: &[u32], prev: &[u32], bits: u32) -> (usize, usize) {
    let max = (input.len() - i).min(MAX_MATCH);
    let mut best_len = 0;
    let mut best_dist = 0;
    let mut cand = head[hash4(&input[i..], bits)];
    let mut depth = 0;
    while cand != u32::MAX && depth < CHAIN_DEPTH {
        let c = cand as usize;
        if c >= i {
            cand = prev[c];
            continue;
        }
        if i - c > WINDOW {
            break;
        }
        // Cheap pre-check: a candidate can only beat the current best if
        // it matches at the byte the best match would have to extend past.
        if best_len == 0 || input[c + best_len] == input[i + best_len] {
            let mut l = 0;
            while l < max && input[c + l] == input[i + l] {
                l += 1;
            }
            if l > best_len {
                best_len = l;
                best_dist = i - c;
                if best_len == max || best_len >= NICE_MATCH {
                    break;
                }
            }
        }
        cand = prev[c];
        depth += 1;
    }
    if best_len >= MIN_MATCH {
        (best_len, best_dist)
    } else {
        (0, 0)
    }
}

/// Compress a byte slice.
pub fn compress(input: &[u8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(input.len() / 2 + 16);
    let bits = table_bits(input.len());
    let mut head = vec![u32::MAX; 1 << bits];
    // Per-position chain links: prev[p] is the previous position sharing
    // p's hash bucket. Positions enter the chain in order via `ins`, and
    // a slot is pushed exactly when its position is indexed, so the
    // vector never needs pre-initialisation.
    let mut prev: Vec<u32> = Vec::with_capacity(input.len());
    let mut ins = 0;
    let mut i = 0;
    let mut literal_start = 0;

    let flush_literals = |out: &mut Vec<u8>, from: usize, to: usize, input: &[u8]| {
        let mut start = from;
        while start < to {
            let run = (to - start).min(127);
            out.push(run as u8);
            out.extend_from_slice(&input[start..start + run]);
            start += run;
        }
    };

    macro_rules! index_upto {
        ($bound:expr) => {
            while ins < $bound && ins + MIN_MATCH <= input.len() {
                let h = hash4(&input[ins..], bits);
                prev.push(head[h]);
                head[h] = ins as u32;
                ins += 1;
            }
        };
    }

    while i + MIN_MATCH <= input.len() {
        index_upto!(i + 1);
        let (mut len, mut dist) = best_match(input, i, &head, &prev, bits);
        if len == 0 {
            i += 1;
            continue;
        }
        // One-step lazy matching: if the next position starts a strictly
        // longer match, emit this byte as a literal and take that instead.
        // An already-nice match skips the lookahead entirely.
        while len < NICE_MATCH && i + 1 + MIN_MATCH <= input.len() {
            index_upto!(i + 2);
            let (next_len, next_dist) = best_match(input, i + 1, &head, &prev, bits);
            if next_len > len {
                i += 1;
                len = next_len;
                dist = next_dist;
            } else {
                break;
            }
        }
        flush_literals(&mut out, literal_start, i, input);
        out.push(0x80 | (len - MIN_MATCH) as u8);
        out.extend_from_slice(&(dist as u16).to_le_bytes());
        i += len;
        // Index the positions the match skipped so later data can still
        // refer back into it.
        index_upto!(i);
        literal_start = i;
    }
    flush_literals(&mut out, literal_start, input.len(), input);
    out
}

/// Decompression failure (corrupt block).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CorruptBlock(pub &'static str);

impl std::fmt::Display for CorruptBlock {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "corrupt compressed block: {}", self.0)
    }
}

impl std::error::Error for CorruptBlock {}

/// Decompress a block produced by [`compress`].
pub fn decompress(input: &[u8]) -> Result<Vec<u8>, CorruptBlock> {
    let mut out = Vec::with_capacity(input.len() * 3);
    let mut i = 0;
    while i < input.len() {
        let ctrl = input[i];
        i += 1;
        if ctrl < 0x80 {
            let run = ctrl as usize;
            if run == 0 {
                return Err(CorruptBlock("zero-length literal run"));
            }
            if i + run > input.len() {
                return Err(CorruptBlock("literal run past end"));
            }
            out.extend_from_slice(&input[i..i + run]);
            i += run;
        } else {
            let len = (ctrl & 0x7f) as usize + MIN_MATCH;
            if i + 2 > input.len() {
                return Err(CorruptBlock("truncated match distance"));
            }
            let dist = u16::from_le_bytes([input[i], input[i + 1]]) as usize;
            i += 2;
            if dist == 0 || dist > out.len() {
                return Err(CorruptBlock("match distance out of range"));
            }
            // Overlapping copy (dist may be < len).
            let start = out.len() - dist;
            for k in 0..len {
                let b = out[start + k];
                out.push(b);
            }
        }
    }
    Ok(out)
}

/// Append a LEB128 varint.
pub fn put_uvarint(out: &mut Vec<u8>, mut v: u64) {
    loop {
        let byte = (v & 0x7f) as u8;
        v >>= 7;
        if v == 0 {
            out.push(byte);
            return;
        }
        out.push(byte | 0x80);
    }
}

/// Read a LEB128 varint; returns `(value, bytes_consumed)`.
pub fn get_uvarint(input: &[u8]) -> Result<(u64, usize), CorruptBlock> {
    let mut v: u64 = 0;
    let mut shift = 0;
    for (i, &b) in input.iter().enumerate() {
        if shift >= 64 {
            return Err(CorruptBlock("varint overflow"));
        }
        v |= ((b & 0x7f) as u64) << shift;
        if b & 0x80 == 0 {
            return Ok((v, i + 1));
        }
        shift += 7;
    }
    Err(CorruptBlock("truncated varint"))
}

/// Read a varint-length-prefixed UTF-8 string at `*pos` and step past it.
/// The bound is taken by subtraction, so a hostile length (up to
/// `u64::MAX`) is an error, never an overflowing add or a panic.
#[inline]
pub fn get_str<'a>(buf: &'a [u8], pos: &mut usize) -> Result<&'a str, CorruptBlock> {
    let (len, n) = get_uvarint(&buf[*pos..])?;
    *pos += n;
    if len > (buf.len() - *pos) as u64 {
        return Err(CorruptBlock("string runs past buffer end"));
    }
    let end = *pos + len as usize;
    let s = std::str::from_utf8(&buf[*pos..end])
        .map_err(|_| CorruptBlock("string is not valid utf-8"))?;
    *pos = end;
    Ok(s)
}

/// Append a label set: a pair count, then length-prefixed key/value
/// strings. The one label-set layout the WAL and the series index share.
pub fn put_labels(out: &mut Vec<u8>, labels: &LabelSet) {
    put_uvarint(out, labels.len() as u64);
    for (k, v) in labels.iter() {
        put_uvarint(out, k.len() as u64);
        out.extend_from_slice(k.as_bytes());
        put_uvarint(out, v.len() as u64);
        out.extend_from_slice(v.as_bytes());
    }
}

/// Read a label set written by [`put_labels`] at `*pos` and step past it.
pub fn get_labels(buf: &[u8], pos: &mut usize) -> Result<LabelSet, CorruptBlock> {
    let (n_labels, n) = get_uvarint(&buf[*pos..])?;
    *pos += n;
    let mut labels = LabelSet::new();
    for _ in 0..n_labels {
        let k = get_str(buf, pos)?;
        let v = get_str(buf, pos)?;
        labels.insert(k, v);
    }
    Ok(labels)
}

/// Zigzag-encode a signed value.
pub fn zigzag(v: i64) -> u64 {
    ((v << 1) ^ (v >> 63)) as u64
}

/// Zigzag-decode.
pub fn unzigzag(v: u64) -> i64 {
    ((v >> 1) as i64) ^ -((v & 1) as i64)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_simple() {
        for case in [
            &b""[..],
            b"a",
            b"hello world",
            b"aaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaa",
            b"abcabcabcabcabcabcabcabc",
        ] {
            let c = compress(case);
            assert_eq!(decompress(&c).unwrap(), case, "case {case:?}");
        }
    }

    #[test]
    fn compresses_repetitive_logs_well() {
        // Log lines repeat heavily; expect a real ratio.
        let mut input = Vec::new();
        for i in 0..200 {
            input.extend_from_slice(
                format!(
                    "<13> 2022-03-03T01:47:{:02}Z x1000c0s0b0n0 slurmd[4242]: done with job {}\n",
                    i % 60,
                    10_000 + i
                )
                .as_bytes(),
            );
        }
        let c = compress(&input);
        assert_eq!(decompress(&c).unwrap(), input);
        let ratio = input.len() as f64 / c.len() as f64;
        assert!(ratio > 3.0, "compression ratio only {ratio:.2}");
    }

    #[test]
    fn incompressible_data_grows_bounded() {
        // Pseudo-random bytes: output may grow, but only by the literal
        // framing overhead (1 byte per 127).
        let input: Vec<u8> =
            (0..10_000u32).map(|i| (i.wrapping_mul(2654435761) >> 13) as u8).collect();
        let c = compress(&input);
        assert!(c.len() <= input.len() + input.len() / 127 + 2);
        assert_eq!(decompress(&c).unwrap(), input);
    }

    #[test]
    fn overlapping_match_copy() {
        let input = b"abababababababababababab";
        let c = compress(input);
        assert_eq!(decompress(&c).unwrap(), input);
    }

    #[test]
    fn corrupt_blocks_error_not_panic() {
        for bad in [
            &[0x00u8][..],           // zero-length literal
            &[0x05, b'a'][..],       // literal run past end
            &[0x81][..],             // truncated match
            &[0x81, 0x00, 0x00][..], // zero distance
            &[0x81, 0xff, 0xff][..], // distance beyond output
        ] {
            assert!(decompress(bad).is_err(), "should reject {bad:?}");
        }
    }

    #[test]
    fn varint_roundtrip() {
        for v in [0u64, 1, 127, 128, 300, u32::MAX as u64, u64::MAX] {
            let mut buf = Vec::new();
            put_uvarint(&mut buf, v);
            let (back, n) = get_uvarint(&buf).unwrap();
            assert_eq!(back, v);
            assert_eq!(n, buf.len());
        }
        assert!(get_uvarint(&[0x80]).is_err());
        assert!(get_uvarint(&[]).is_err());
    }

    #[test]
    fn zigzag_roundtrip() {
        for v in [0i64, 1, -1, 63, -64, i64::MAX, i64::MIN] {
            assert_eq!(unzigzag(zigzag(v)), v);
        }
    }
}
