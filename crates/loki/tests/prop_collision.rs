//! A stream is its labels, not its hash: two label sets whose 64-bit FNV
//! fingerprints collide stay two streams through every tier.
//!
//! Random streams are mixed with the known colliding pair
//! `{a="27d9f96af16d5676"}` / `{a="1ba910bbd8e288a5"}` and driven through
//! a random schedule of push (through the WAL), crash and WAL replay,
//! age seal, offload, compaction with cold demotion, and retention. The
//! same schedule runs a second time with the pair renamed to two sets
//! that do not collide but land on the same ingester shard. After every
//! step both runs must answer the same, up to that renaming: the renamed
//! run is the oracle, so whatever the cluster does by design (replay
//! re-delivering entries already offloaded, say) it does in both.
//!
//! It fails on an ingester stream map keyed by fingerprint (the second
//! set's lines come back under the first's labels at the first step) and
//! on a chunk listing that matches keys by fingerprint (once the pair's
//! chunks are offloaded).

use omni_loki::{Limits, LokiCluster};
use omni_model::{LabelSet, LogRecord, SimClock, NANOS_PER_SEC};
use proptest::prelude::*;

const MIN: i64 = 60 * NANOS_PER_SEC;
const HOUR: i64 = 60 * MIN;
const SHARDS: usize = 2;
/// The pair plus this many ordinary streams.
const STREAMS: usize = 4;
/// Two values of `a` whose label sets share the fingerprint
/// `0x008967ebbdbbbdf0`.
const PAIR: [&str; 2] = ["27d9f96af16d5676", "1ba910bbd8e288a5"];

fn set(value: &str) -> LabelSet {
    LabelSet::from_pairs([("a", value)])
}

/// Two values whose sets do not collide and are placed on the pair's
/// shard, so crashes, reroutes and replays hit the same data in both runs.
fn renamed_pair() -> [String; 2] {
    let home = |v: &str| set(v).fingerprint() % SHARDS as u64;
    let mut found = (0..).map(|i| format!("pair-{i}")).filter(|v| home(v) == home(PAIR[0]));
    [found.next().unwrap(), found.next().unwrap()]
}

#[derive(Debug, Clone, Copy)]
enum Op {
    /// `lines` lines into stream `stream`, `dt` after the previous step.
    Push { stream: usize, dt: i64, lines: usize },
    /// Crash shard `shard` and replay its WAL.
    CrashRecover { shard: usize },
    /// Advance and seal aged heads.
    Tick { dt: i64 },
    /// Offload sealed chunks older than `age`, checkpointing the WALs.
    Offload { age: i64 },
    /// Merge, dedup and demote to the cold tier.
    Compact,
    /// Advance and enforce retention on memory and both store tiers.
    Retain { dt: i64 },
}

fn arb_ops() -> impl Strategy<Value = Vec<Op>> {
    let op = (0u8..10, 0usize..STREAMS, 0i64..3 * HOUR, 1usize..5).prop_map(
        |(kind, stream, dt, lines)| match kind {
            0..=4 => Op::Push { stream, dt: dt / 8, lines },
            5 => Op::CrashRecover { shard: stream % SHARDS },
            6 => Op::Tick { dt },
            7 => Op::Offload { age: dt / 8 },
            8 => Op::Compact,
            _ => Op::Retain { dt },
        },
    );
    prop::collection::vec(op, 1..40)
}

/// One run: a cluster and the label values its streams go by.
struct Rig {
    c: LokiCluster,
    /// Stream `i` is `{a=names[i]}`; 0 and 1 are the pair.
    names: Vec<String>,
    ts: i64,
    pushed: usize,
}

/// What a run answers after a step, in the colliding run's names.
#[derive(Debug, PartialEq)]
struct Answer {
    stream_count: usize,
    pushes: Vec<bool>,
    logs: Vec<LogRecord>,
    /// Lines of each of the pair, found through the label index.
    pair_lines: [usize; 2],
    counts: Vec<(LabelSet, u64)>,
}

impl Rig {
    fn new(pair: [&str; 2]) -> Self {
        let limits = Limits {
            chunk_target_bytes: 40,
            chunk_max_age_ns: 20 * MIN,
            compact_after_ns: 10 * MIN,
            compacted_target_bytes: 512,
            retention_ns: 8 * HOUR,
            ..Default::default()
        };
        let mut names: Vec<String> = pair.iter().map(|v| v.to_string()).collect();
        names.extend((2..STREAMS).map(|i| format!("r{i}")));
        Self {
            c: LokiCluster::new(SHARDS, limits, SimClock::starting_at(0)),
            names,
            ts: 0,
            pushed: 0,
        }
    }

    fn advance(&mut self, dt: i64) {
        self.ts += dt;
        self.c.clock().set(self.ts);
    }

    /// Apply one step; the push outcomes, if it pushed.
    fn apply(&mut self, op: Op) -> Vec<bool> {
        match op {
            Op::Push { stream, dt, lines } => {
                self.advance(dt);
                let mut ok = Vec::new();
                for _ in 0..lines {
                    self.pushed += 1;
                    let line = format!("line {} of stream {stream}", self.pushed);
                    ok.push(self.c.push(set(&self.names[stream]), self.ts, line).is_ok());
                }
                return ok;
            }
            Op::CrashRecover { shard } => {
                self.c.crash_shard(shard);
                self.c.recover_shard(shard);
            }
            Op::Tick { dt } => {
                self.advance(dt);
                self.c.tick();
            }
            Op::Offload { age } => {
                self.c.offload(age);
            }
            Op::Compact => {
                self.c.compact();
            }
            Op::Retain { dt } => {
                self.advance(dt);
                self.c.enforce_retention();
            }
        }
        Vec::new()
    }

    /// Map this run's pair names onto the colliding run's.
    fn canonical(&self, labels: &LabelSet) -> LabelSet {
        match self.names[..2].iter().position(|n| Some(n.as_str()) == labels.get("a")) {
            Some(i) => set(PAIR[i]),
            None => labels.clone(),
        }
    }

    fn answer(&self, pushes: Vec<bool>) -> Answer {
        let end = self.ts + 1;
        let mut logs = self.c.query_logs(r#"{a=~".+"}"#, -1, end, usize::MAX).unwrap();
        for r in &mut logs {
            r.labels = self.canonical(&r.labels);
        }
        // Renaming may reorder sets at one timestamp; the sort is stable,
        // so each stream keeps its own order.
        logs.sort_by(|x, y| x.entry.ts.cmp(&y.entry.ts).then_with(|| x.labels.cmp(&y.labels)));
        let pair_lines = [0, 1].map(|i| {
            let q = format!(r#"{{a="{}"}}"#, self.names[i]);
            self.c.query_logs(&q, -1, end, usize::MAX).unwrap().len()
        });
        let q = r#"sum by (a) (count_over_time({a=~".+"}[1d]))"#;
        let mut counts: Vec<(LabelSet, u64)> = self
            .c
            .query_instant(q, end)
            .unwrap()
            .into_iter()
            .map(|(labels, v)| (self.canonical(&labels), v as u64))
            .collect();
        counts.sort();
        Answer { stream_count: self.c.stream_count(), pushes, logs, pair_lines, counts }
    }
}

proptest! {
    #[test]
    fn a_colliding_pair_answers_like_two_streams_at_every_step(ops in arb_ops()) {
        let (a, b) = (set(PAIR[0]), set(PAIR[1]));
        prop_assert_eq!(a.fingerprint(), b.fingerprint());
        let renamed = renamed_pair();
        let mut collide = Rig::new(PAIR);
        let mut oracle = Rig::new([renamed[0].as_str(), renamed[1].as_str()]);
        // Both pair streams always get a line first, so every schedule
        // has the pair side by side.
        let opening = [Op::Push { stream: 0, dt: 0, lines: 1 }, Op::Push { stream: 1, dt: 0, lines: 1 }];
        for (step, op) in opening.into_iter().chain(ops).enumerate() {
            let got = collide.apply(op);
            let want = oracle.apply(op);
            prop_assert_eq!(collide.answer(got), oracle.answer(want), "step {}: {:?}", step, op);
        }
    }
}
