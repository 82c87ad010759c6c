//! Property tests for the compaction path: the label codec
//! (`compress::put_labels` / `get_labels`, which the WAL's series table
//! uses) must round-trip and survive corrupt input, and — the load-bearing
//! invariant — queries must return identical results, in arrival order,
//! wherever the data sits: the head, sealed in ingester memory, the hot
//! object tier (offloaded), the cold compacted tier, or all four at once.
//! A tier move that changes a single query answer is data corruption, not
//! housekeeping.

mod common;

use common::{reference_fetch, ReferenceStore};
use omni_logql::eval::eval_metric_at;
use omni_logql::{parse_expr, parse_selector, Expr};
use omni_loki::chunkstore::object_to_chunk;
use omni_loki::compress::{get_labels, put_labels};
use omni_loki::{Direction, Limits, LokiCluster, QueryRequest, QueryShape};
use omni_model::{LabelSet, LogRecord, SimClock, NANOS_PER_SEC};
use proptest::prelude::*;

/// Label maps with Loki-plausible keys and arbitrary printable values
/// (duplicate keys collapse in the `LabelSet`, as at ingest).
fn arb_labels() -> impl Strategy<Value = LabelSet> {
    prop::collection::vec(("[a-z_][a-z0-9_]{0,12}", "\\PC{0,24}"), 0..8)
        .prop_map(LabelSet::from_pairs)
}

/// One label set alone in a buffer, as `put_labels` writes it.
fn encode(labels: &LabelSet) -> Vec<u8> {
    let mut out = Vec::new();
    put_labels(&mut out, labels);
    out
}

proptest! {
    /// Encoding a label set and decoding it back is lossless.
    #[test]
    fn labels_roundtrip(labels in arb_labels()) {
        let obj = encode(&labels);
        prop_assert_eq!(get_labels(&obj, &mut 0).unwrap(), labels);
    }

    /// Arbitrary bytes posing as an encoded label set must decode to an
    /// error or a label set — never panic, never read out of bounds.
    #[test]
    fn corrupt_series_objects_never_panic(data in prop::collection::vec(any::<u8>(), 0..600)) {
        let _ = get_labels(&data, &mut 0);
    }

    /// A truncated valid encoding either errors or (cut at the exact
    /// end) reproduces the original — it never yields garbage labels.
    #[test]
    fn truncated_series_objects_error_or_roundtrip(
        labels in arb_labels(),
        cut_frac in 0.0f64..1.0,
    ) {
        let obj = encode(&labels);
        prop_assert_eq!(get_labels(&obj, &mut 0).unwrap(), labels.clone());
        let cut = ((obj.len() as f64) * cut_frac) as usize;
        if let Ok(decoded) = get_labels(&obj[..cut], &mut 0) {
            // The pair count and the bounds checks leave exactly one
            // decodable prefix: the whole encoding.
            prop_assert_eq!(cut, obj.len());
            prop_assert_eq!(decoded, labels);
        }
    }

    /// The one reader against the reference store, under any interleaving
    /// of writes and tier moves — so one stream sits in several tiers at
    /// once, with same-timestamp runs straddling the chunk cuts between
    /// them. After every op, cache dropped: log queries equal the
    /// reference in arrival order, metric queries equal `omni_logql::eval`
    /// over it, and the read statistics conserve.
    #[test]
    fn any_interleaving_of_tier_moves_answers_like_the_reference_store(
        ops in prop::collection::vec((0u8..11, 0usize..10_000), 1..60),
    ) {
        let mut rig = Rig::new();
        for (op, arg) in ops {
            match op {
                // Pushes dominate, and half of them repeat the previous
                // timestamp so ties straddle cuts and tier boundaries.
                0..=5 => rig.push(arg % 3, [0, 0, 0, SEC / 4, 7 * SEC, 90 * SEC][arg % 6]),
                6 => rig.c.tick(),
                7 => rig.c.flush(),
                8 => {
                    rig.c.offload([-1, 0, 60 * SEC][arg % 3]);
                }
                9 => {
                    rig.c.compact();
                }
                // Crash a shard whose data is all durable, so its streams
                // are known only to the series index until the next push.
                // (A WAL checkpoint is per shard, not per stream: replay
                // after a *partial* offload re-delivers entries already on
                // disk — at-least-once, and not this property's subject.)
                _ => {
                    rig.c.flush();
                    rig.c.offload(-1);
                    rig.c.crash_shard(arg % 2);
                    rig.c.recover_shard(arg % 2);
                }
            }
            rig.check(arg);
        }
    }
}

const SEC: i64 = NANOS_PER_SEC;
const SELECTOR: &str = r#"{app="tier"}"#;

/// A two-shard cluster with tiny chunks, and the reference it must equal.
struct Rig {
    c: LokiCluster,
    reference: ReferenceStore,
    ts: i64,
}

impl Rig {
    fn new() -> Self {
        let limits = Limits {
            chunk_target_bytes: 128,
            chunk_max_age_ns: 60 * SEC,
            compact_after_ns: 5 * SEC,
            split_interval_ns: 0, // one execution per query: statistics are per chunk
            ..Default::default()
        };
        let c = LokiCluster::new(2, limits, SimClock::starting_at(0));
        Self { c, reference: ReferenceStore::default(), ts: 0 }
    }

    fn push(&mut self, stream: usize, dt: i64) {
        self.ts += dt;
        self.c.clock().set(self.ts);
        let labels =
            LabelSet::from_pairs([("app", "tier".to_string()), ("stream", stream.to_string())]);
        // Unique lines: equal-content chunks would be legitimately
        // deduplicated, which is not what this test probes.
        let n = self.reference.0.len();
        let record = LogRecord::new(labels, self.ts, format!("v={n} entry {n} of the workload"));
        self.c.push_record(record.clone()).unwrap();
        self.reference.0.push(record);
    }

    /// Every chunk object of the workload's streams: `(cold?, span, blocks)`.
    fn store_objects(&self) -> Vec<(bool, (i64, i64), usize)> {
        let store = self.c.chunk_store();
        let mut out = Vec::new();
        for labels in store.series() {
            for (tier, cold) in [(store.cold(), true), (store.objects(), false)] {
                for key in tier.chunk_refs(&labels) {
                    let chunk = object_to_chunk(&tier.get(&key).unwrap()).unwrap();
                    out.push((cold, (key.min_ts, key.max_ts), chunk.block_count()));
                }
            }
        }
        out
    }

    fn check(&self, arg: usize) {
        let selector = parse_selector(SELECTOR).unwrap();
        // A sub-window that starts exactly on an entry's timestamp — so
        // now and then exactly on a chunk's `max_ts`, where `(start, end]`
        // must prune it.
        let sub_start =
            self.reference.0.get(arg % (self.reference.0.len() + 1)).map_or(-1, |r| r.entry.ts);
        let sub =
            (sub_start, sub_start + 1 + (arg as i64 * 7_919 * SEC / 4) % (self.ts + 2 - sub_start));
        let full = (-1, self.ts + 1);
        let objects = self.store_objects();
        for (start, end) in [full, sub] {
            self.c.frontend().invalidate_all();
            let shape =
                QueryShape::Logs { start, end, limit: usize::MAX, direction: Direction::Forward };
            let resp = self.c.query(QueryRequest { tenant: None, query: SELECTOR, shape }).unwrap();
            let stats = resp.report.stats;
            let expected = self.reference.logs_forward(&selector, start, end);
            assert_eq!(resp.data.into_logs().unwrap(), expected, "logs over ({start}, {end}]");

            // Conservation: every store object is pruned by key or read,
            // every block of a touched chunk is decoded or skipped, and
            // nothing is lost on the way.
            let outside =
                |&&(_, (min, max), _): &&(bool, (i64, i64), usize)| max <= start || min > end;
            let cold_inside = objects.iter().filter(|o| o.0 && !outside(o)).count();
            let extra_blocks: usize = objects.iter().filter(|o| !outside(o)).map(|o| o.2 - 1).sum();
            assert_eq!(stats.chunks_corrupt, 0);
            assert_eq!(stats.entries_scanned, expected.len());
            assert_eq!(stats.skipped_by_key, objects.iter().filter(outside).count());
            assert_eq!(stats.cold_chunks_touched, cold_inside);
            assert!(stats.chunks_touched >= objects.len() - stats.skipped_by_key);
            // In-memory chunks (128-byte target) are one block each.
            assert_eq!(
                stats.blocks_decoded + stats.blocks_skipped,
                stats.chunks_touched + extra_blocks
            );

            for op in ["count_over_time", "first_over_time", "last_over_time"] {
                // `logfmt` lifts `v` into the labels; overwriting it after
                // the unwrap folds each stream back into one group.
                let unwrap = if op == "count_over_time" {
                    ""
                } else {
                    r#"| logfmt | unwrap v | label_format v="-""#
                };
                let q = format!("{op}({SELECTOR} {unwrap} [45s])");
                let Expr::Metric(mq) = parse_expr(&q).unwrap() else { panic!("metric query") };
                let mut fetch = reference_fetch(|sel, s, e| self.reference.scan(sel, s, e));
                self.c.frontend().invalidate_all();
                assert_eq!(
                    self.c.query_instant(&q, end).unwrap(),
                    eval_metric_at(&mq, end, &mut fetch),
                    "{q} at {end}"
                );
            }
        }
    }
}
