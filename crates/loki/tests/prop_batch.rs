//! Property test for the one write path: any chunking of a record
//! sequence into `push_record_batch` calls, and any regrouping of those
//! chunks into stream frames for `push_frames`, must be indistinguishable
//! from pushing the same records as frames of one — identical per-record
//! outcomes, counters, stream/index state, byte-identical sealed chunks,
//! and identical WAL replay (the framed WAL segment itself may be
//! smaller: a run shares one label-set frame).

use omni_loki::{IngestError, Ingester, Limits, LokiCluster, StreamFrame};
use omni_model::{LabelSet, LogRecord, SimClock};
use proptest::prelude::*;

/// Records spread over a handful of streams with non-decreasing
/// timestamps (so the out-of-order check treats every path identically),
/// seasoned with occasional invalid records (empty labels) to exercise
/// per-record error reporting.
fn arb_records() -> impl Strategy<Value = Vec<LogRecord>> {
    prop::collection::vec((0usize..9, 0i64..1_000_000, "\\PC{0,40}"), 0..120).prop_map(|items| {
        let mut ts = 0i64;
        items
            .into_iter()
            .map(|(stream, dt, line)| {
                ts += dt;
                let labels = if stream == 8 {
                    LabelSet::new() // invalid: rejected by every path
                } else {
                    LabelSet::from_pairs([
                        ("app", "x".to_string()),
                        ("stream", format!("{stream}")),
                    ])
                };
                LogRecord::new(labels, ts, line)
            })
            .collect()
    })
}

/// Cut `records` into consecutive chunks of the given lengths (cycled).
fn chunked(records: &[LogRecord], lens: &[usize]) -> Vec<Vec<LogRecord>> {
    let mut out = Vec::new();
    let (mut rest, mut i) = (records, 0);
    while !rest.is_empty() {
        let (head, tail) = rest.split_at(lens[i % lens.len()].min(rest.len()));
        out.push(head.to_vec());
        rest = tail;
        i += 1;
    }
    out
}

/// Regroup one chunk into one frame per stream (first-appearance order;
/// each stream keeps its arrival order, which is all the ordering check
/// depends on), with each frame's original positions in the chunk.
fn framed(chunk: &[LogRecord]) -> (Vec<StreamFrame>, Vec<usize>) {
    let mut frames: Vec<(StreamFrame, Vec<usize>)> = Vec::new();
    for (i, r) in chunk.iter().enumerate() {
        match frames.iter_mut().find(|((labels, _), _)| *labels == r.labels) {
            Some(((_, entries), idxs)) => {
                entries.push(r.entry.clone());
                idxs.push(i);
            }
            None => frames.push(((r.labels.clone(), vec![r.entry.clone()]), vec![i])),
        }
    }
    let positions = frames.iter().flat_map(|(_, idxs)| idxs.iter().copied()).collect();
    (frames.into_iter().map(|(frame, _)| frame).collect(), positions)
}

/// Undo [`framed`]'s reordering on a per-entry result vector.
fn unframe(
    results: Vec<Result<(), IngestError>>,
    positions: &[usize],
) -> Vec<Result<(), IngestError>> {
    let mut out = vec![Ok(()); results.len()];
    for (res, &i) in results.into_iter().zip(positions) {
        out[i] = res;
    }
    out
}

proptest! {
    #[test]
    fn any_chunking_and_framing_equals_frames_of_one(
        records in arb_records(),
        lens in prop::collection::vec(1usize..40, 1..8),
    ) {
        let limits = Limits { chunk_target_bytes: 512, ..Default::default() };
        let chunks = chunked(&records, &lens);

        // One shard, bare: the ingester's own state, down to chunk bytes.
        let serial = Ingester::new(limits.clone());
        let batched = Ingester::new(limits.clone());
        let serial_results: Vec<_> = records.iter().map(|r| serial.append(r.clone())).collect();
        let mut batched_results = Vec::new();
        for chunk in &chunks {
            let (frames, positions) = framed(chunk);
            let (heads, entries): (Vec<_>, Vec<_>) =
                frames.into_iter().map(|(l, es)| ((l, es.len()), es)).unzip();
            let results = batched.append_frames(heads, entries.into_iter().flatten());
            batched_results.extend(unframe(results, &positions));
        }
        prop_assert_eq!(&serial_results, &batched_results);
        prop_assert_eq!(serial.stats(), batched.stats());
        prop_assert_eq!(serial.stream_count(), batched.stream_count());
        prop_assert_eq!(serial.index_entries(), batched.index_entries());
        serial.flush();
        batched.flush();
        prop_assert_eq!(serial.sealed_chunk_bytes(), batched.sealed_chunk_bytes());

        // The cluster door: frames of one, record batches, stream frames.
        let cluster = || LokiCluster::new(4, limits.clone(), SimClock::starting_at(0));
        let (one, batch, frame) = (cluster(), cluster(), cluster());
        let one_results: Vec<_> = records.iter().map(|r| one.push_record(r.clone())).collect();
        let mut batch_results = Vec::new();
        let mut frame_results = Vec::new();
        for chunk in chunks {
            let (frames, positions) = framed(&chunk);
            frame_results.extend(unframe(frame.push_frames(None, frames), &positions));
            batch_results.extend(batch.push_record_batch(chunk));
        }
        prop_assert_eq!(&one_results, &serial_results);
        let q = |c: &LokiCluster| {
            c.query_logs(r#"{app="x"}"#, i64::MIN, i64::MAX, usize::MAX).unwrap()
        };
        for (other, results) in [(&batch, batch_results), (&frame, frame_results)] {
            prop_assert_eq!(&one_results, &results);
            prop_assert_eq!(one.stats(), other.stats());
            prop_assert_eq!(one.stream_count(), other.stream_count());
            prop_assert_eq!(one.index_entries(), other.index_entries());
            prop_assert_eq!(one.resilience().wal_records, other.resilience().wal_records);
            prop_assert!(other.resilience().wal_bytes <= one.resilience().wal_bytes);
            prop_assert_eq!(q(&one), q(other));
        }

        // WAL replay: losing every ingester and replaying restores the
        // same records whichever way they were framed.
        for c in [&one, &batch, &frame] {
            for shard in 0..4 {
                c.crash_shard(shard);
                c.recover_shard(shard);
            }
        }
        for other in [&batch, &frame] {
            prop_assert_eq!(
                one.resilience().replayed_records,
                other.resilience().replayed_records
            );
            prop_assert_eq!(one.stats(), other.stats());
            prop_assert_eq!(q(&one), q(other));
        }
    }
}
