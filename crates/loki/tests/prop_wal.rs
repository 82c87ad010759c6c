//! Property tests for the WAL: whatever the ingest path accepts must
//! survive an encode → replay cycle bit-for-bit, including non-ASCII
//! lines and negative (pre-epoch) timestamps exercising the zigzag path.

use omni_loki::{Limits, LokiCluster, StreamFrame, Wal};
use omni_model::{LabelSet, LogEntry, SimClock};
use proptest::prelude::*;

/// Arbitrary label sets: 1..6 pairs, names lowercase, values spanning
/// printable unicode.
fn arb_labels() -> impl Strategy<Value = LabelSet> {
    prop::collection::vec(("[a-z_][a-z0-9_]{0,6}", "\\PC{0,12}"), 1..6).prop_map(|pairs| {
        let mut ls = LabelSet::new();
        for (k, v) in pairs {
            ls.insert(k, v);
        }
        ls
    })
}

/// A stream frame: one label set and a run of 1..6 entries.
fn arb_frame() -> impl Strategy<Value = StreamFrame> {
    let entry = (
        // Timestamps on both sides of the epoch: negative values take the
        // zigzag encoder through its sign-folding branch, and a run
        // holding both extremes takes the per-run delta past `i64`, which
        // must wrap on both sides.
        prop_oneof![
            -2_000_000_000i64..2_000_000_000,
            Just(i64::MIN / 2),
            Just(i64::MAX / 2),
            Just(i64::MIN),
            Just(i64::MAX),
        ],
        // Lines mixing ASCII, escapes and multi-byte unicode.
        prop_oneof!["\\PC{0,80}", "[é中Ω→ß¥☃ \t]{0,20}", Just(String::new())],
    )
        .prop_map(|(ts, line)| LogEntry::new(ts, line));
    (arb_labels(), prop::collection::vec(entry, 1..6))
}

proptest! {
    /// Encode → replay returns exactly the appended frames, in order.
    #[test]
    fn append_replay_roundtrip(frames in prop::collection::vec(arb_frame(), 0..30)) {
        let wal = Wal::new();
        for (labels, entries) in &frames {
            wal.append_run(labels, entries);
        }
        let total: usize = frames.iter().map(|(_, es)| es.len()).sum();
        prop_assert_eq!(wal.record_count(), total as u64);
        prop_assert_eq!(wal.replay().unwrap(), frames);
    }

    /// Checkpointing keeps exactly the entries at or after the bound —
    /// still framed as they were appended — and never grows the segment.
    #[test]
    fn checkpoint_partitions_by_timestamp(
        frames in prop::collection::vec(arb_frame(), 0..30),
        bound in -2_000_000_000i64..2_000_000_000,
    ) {
        let wal = Wal::new();
        wal.append_runs(frames.iter().map(|(labels, entries)| (labels, entries.as_slice())));
        let before_bytes = wal.bytes();
        let before_count = wal.record_count();
        let dropped = wal.checkpoint(bound);
        let expected: Vec<StreamFrame> = frames
            .into_iter()
            .map(|(labels, mut entries)| {
                entries.retain(|e| e.ts >= bound);
                (labels, entries)
            })
            .filter(|(_, entries)| !entries.is_empty())
            .collect();
        let kept: usize = expected.iter().map(|(_, es)| es.len()).sum();
        prop_assert_eq!(dropped as u64, before_count - kept as u64);
        prop_assert_eq!(wal.record_count(), kept as u64);
        prop_assert!(wal.bytes() <= before_bytes);
        prop_assert_eq!(wal.replay().unwrap(), expected);
    }

    /// Crash-recovery is idempotent at the cluster level: any script of
    /// crash/recover events — including a supervisor retrying recovery at
    /// the same WAL offset — restores exactly the accepted records, never
    /// duplicates. In-order pushes only, so acceptance is unconditional
    /// and the expected count is exact.
    #[test]
    fn repeated_crash_recovery_never_duplicates(
        // (push batch size, crash?, extra recover calls) per round.
        script in prop::collection::vec((1usize..8, any::<bool>(), 0usize..3), 1..8),
    ) {
        let c = LokiCluster::new(1, Limits::default(), SimClock::starting_at(0));
        let labels = LabelSet::from_pairs([("app", "fm")]);
        let mut pushed = 0i64;
        for (batch, crash, extra_recovers) in script {
            for _ in 0..batch {
                c.push(labels.clone(), pushed, format!("line {pushed}")).unwrap();
                pushed += 1;
            }
            if crash {
                c.crash_shard(0);
                let restored = c.recover_shard(0);
                prop_assert_eq!(restored as i64, pushed, "replay restores every record");
            }
            // Redundant recoveries (shard already up) must be no-ops.
            for _ in 0..extra_recovers {
                prop_assert_eq!(c.recover_shard(0), 0);
            }
            let out = c.query_logs(r#"{app="fm"}"#, -1, i64::MAX - 1, usize::MAX).unwrap();
            prop_assert_eq!(out.len() as i64, pushed, "no loss and no duplication");
        }
    }
}
