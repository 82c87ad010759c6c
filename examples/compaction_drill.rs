//! Compaction drill: a year of simulated telemetry at a fixed seed, then
//! "incident archaeology" — a cold-start query months back into the
//! archive — measured before and after the compactor reshapes storage.
//!
//! The drill proves the tentpole claims end to end:
//!
//! 1. a months-old incident is still queryable after ingester crashes
//!    (cold start: only the durable tiers answer);
//! 2. compaction merges thousands of small age-sealed chunks into few
//!    large cold-tier objects and the same query returns byte-identical
//!    results — fewer objects touched, lower modeled tail latency;
//! 3. byte-identical replayed chunks (the WAL-replay double-persist
//!    artifact) are deduplicated, and the result cache notices;
//! 4. storage amplification (stored bytes / ingested line bytes) drops:
//!    per-object headers and unbatched compression stop being paid per
//!    tiny chunk;
//! 5. the cold tier's transient-failure model injects retried GETs
//!    without ever changing a query result.
//!
//! ```sh
//! cargo run --release --example compaction_drill            # full year + BENCH_PR8.json
//! cargo run --release --example compaction_drill -- --quick # 10 days, no report rewrite
//! ```
//!
//! Everything runs on the virtual clock from a fixed seed; wall-clock
//! timings vary between machines, modeled numbers do not.

use shasta_mon::json::{parse, Json};
use shasta_mon::loki::chunk::SealedChunk;
use shasta_mon::loki::{
    ColdTierPolicy, Direction, Limits, LokiCluster, QueryRequest, QueryShape, QueryStats,
};
use shasta_mon::model::{LabelSet, LogEntry, LogRecord, SimClock, NANOS_PER_SEC};
use std::time::Instant;

const SEED: u64 = 7;
const HOUR: i64 = 3_600 * NANOS_PER_SEC;

/// Modeled tail-query cost: one storage round trip per object touched
/// (hot tier priced as local disk, cold tier as a remote object-store
/// GET — the same figure `core::stack` charges per cold chunk), plus the
/// block-decode, inflation, and scan terms the stack's slow-query log
/// uses.
fn modeled_ns(s: &QueryStats) -> i64 {
    let hot_chunks = (s.chunks_touched - s.cold_chunks_touched) as i64;
    hot_chunks * 1_000_000
        + s.cold_chunks_touched as i64 * 8_000_000
        + s.blocks_decoded as i64 * 200_000
        + (s.decompressed_bytes as i64 / 1024) * 50_000
        + s.entries_scanned as i64 * 2_000
}

/// xorshift64: deterministic, dependency-free.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        let mut x = self.0;
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        self.0 = x;
        x
    }
}

/// An unlimited backward log query over `(win.0, win.1]` with its merged
/// execution statistics.
fn logs_with_stats(c: &LokiCluster, query: &str, win: (i64, i64)) -> (Vec<LogRecord>, QueryStats) {
    let shape = QueryShape::Logs {
        start: win.0,
        end: win.1,
        limit: usize::MAX,
        direction: Direction::default(),
    };
    let resp = c.query(QueryRequest { tenant: None, query, shape }).expect("archaeology query");
    (resp.data.into_logs().expect("a log query returns records"), resp.report.stats)
}

fn write_report(section: &str, value: Json) {
    let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("BENCH_PR8.json");
    let mut root = std::fs::read_to_string(&path)
        .ok()
        .and_then(|text| parse(&text).ok())
        .filter(|v| matches!(v, Json::Object(_)))
        .unwrap_or_else(Json::object);
    root.set(section, value).expect("report root is an object");
    std::fs::write(&path, root.pretty(2) + "\n")
        .unwrap_or_else(|e| panic!("cannot write {}: {e}", path.display()));
}

fn main() {
    let quick = std::env::args().any(|a| a == "--quick");
    let days: i64 = if quick { 10 } else { 365 };
    let incident_day: i64 = if quick { 5 } else { 90 };
    let replay_day: i64 = if quick { 7 } else { 180 };
    println!("Compaction drill: {days} simulated days, incident at day {incident_day}\n");

    let clock = SimClock::starting_at(0);
    let limits = Limits {
        compaction_interval_ns: 0, // explicit compact() below, no cadence
        // Archive archaeology wants day-sized splits: hourly splits would
        // re-GET the same compacted object 24 times per day queried
        // (Loki tunes `split_queries_by_interval` up for cold reads too).
        split_interval_ns: 24 * HOUR,
        ..Limits::default()
    };
    let c = LokiCluster::new(2, limits, clock.clone());

    // Six long-lived streams; exactly one carries the incident app.
    let hosts = ["x1000c0s0b0n0", "x1000c0s1b0n0", "x1000c2s0b0n0", "x3000c0s4b0n0"];
    let streams: Vec<LabelSet> = (0..6)
        .map(|i| {
            let app = if i == 0 { "fabric_manager" } else { "dvs" };
            LabelSet::from_pairs([("app", app.to_string()), ("hostname", hosts[i % 4].into())])
        })
        .collect();

    // ── Phase 1: a year of hourly telemetry ───────────────────────────
    let mut rng = Rng(SEED);
    let mut entries_ingested = 0u64;
    for hour in 0..days * 24 {
        let base = hour * HOUR;
        for (i, labels) in streams.iter().enumerate() {
            for k in 0..2 {
                let ts = base + (i as i64) * 1_000 + k * 500;
                let line = format!(
                    "daemon[{}]: heartbeat seq={} temp={}C status=ok",
                    1000 + i,
                    hour * 2 + k,
                    30 + rng.next() % 20,
                );
                c.push(labels.clone(), ts, line).expect("steady push");
                entries_ingested += 1;
            }
        }
        if hour / 24 == incident_day && hour % 24 == 10 {
            for n in 0..50 {
                let line = format!("CabinetLeakDetected cabinet=x1000 sensor=cab_leak_{n}");
                c.push(streams[0].clone(), base + 2_000_000 + n, line).expect("incident push");
                entries_ingested += 1;
            }
        }
        clock.advance(HOUR);
        c.tick(); // age-seal heads: small hourly chunks, as in production
        c.offload(HOUR); // sealed → hot object tier, WALs checkpointed
    }
    c.flush();
    c.offload(0); // everything durable before the cold start

    // The WAL-replay artifact: the same sealed chunk persisted twice
    // (a crash between persist and checkpoint re-offloads on replay).
    let replay_labels = LabelSet::from_pairs([("app", "replay_victim"), ("hostname", "x9000c1")]);
    let replay_entries: Vec<LogEntry> = (0..40)
        .map(|n| LogEntry::new(replay_day * 24 * HOUR + n * 1_000, format!("replayed event {n}")))
        .collect();
    let replay_chunk = SealedChunk::from_entries(&replay_entries);
    c.chunk_store().register_series(&replay_labels);
    c.chunk_store().persist(&replay_labels, &replay_chunk);
    c.chunk_store().persist(&replay_labels, &replay_chunk);

    // Cold start: crash wipes ingester memory; recovery replays an
    // (already checkpointed, near-empty) WAL. The archive must answer.
    c.crash_shard(0);
    c.recover_shard(0);

    let store = c.chunk_store();
    let hot_objects_before = store.objects().object_count();
    let hot_bytes_before = store.objects().stored_bytes();
    let logical_bytes = c.stats().bytes as f64;
    let amp_before = hot_bytes_before as f64 / logical_bytes;
    println!("ingested ..................... {entries_ingested} entries");
    println!("hot objects before ........... {hot_objects_before}");
    println!("storage amplification before . {amp_before:.3}");

    // ── Phase 2: incident archaeology, before compaction ──────────────
    let win = (incident_day * 24 * HOUR - 1, (incident_day + 1) * 24 * HOUR);
    let archaeology = r#"{app="fabric_manager"} |= "CabinetLeakDetected""#;
    c.frontend().invalidate_all();
    let (_, gets0) = store.objects().op_counts();
    let t0 = Instant::now();
    let (recs_before, stats_before) = logs_with_stats(&c, archaeology, win);
    let wall_before = t0.elapsed();
    let (_, gets1) = store.objects().op_counts();
    assert_eq!(recs_before.len(), 50, "the incident must be fully recovered");
    assert_eq!(stats_before.cold_chunks_touched, 0, "nothing compacted yet");
    let modeled_before = modeled_ns(&stats_before);
    println!("\narchaeology before compaction:");
    println!("  objects touched ............ {}", stats_before.chunks_touched);
    println!("  hot-tier GETs .............. {}", gets1 - gets0);
    println!("  modeled latency ............ {:.2} ms", modeled_before as f64 / 1e6);
    println!("  wall time .................. {} µs", wall_before.as_micros());

    let dup_win = (replay_day * 24 * HOUR - 1, (replay_day + 1) * 24 * HOUR);
    let dup_before =
        c.query_logs(r#"{app="replay_victim"}"#, dup_win.0, dup_win.1, usize::MAX).unwrap();
    assert_eq!(dup_before.len(), 80, "pre-compaction reads see the replayed duplicate");

    // ── Phase 3: compact ──────────────────────────────────────────────
    // The cold tier models a remote object store whose first GET of 5%
    // of objects fails transiently; a cold read's price is `modeled_ns`'s
    // 8ms per cold chunk, the stack's per-cold-chunk query cost.
    store.cold().set_policy(ColdTierPolicy { fail_permille: 50, seed: SEED });
    let report = c.compact();
    let hot_objects_after = store.objects().object_count();
    let stored_after = store.objects().stored_bytes() + store.cold().stored_bytes();
    let amp_after = stored_after as f64 / logical_bytes;
    println!("\ncompaction:");
    println!("  chunks merged .............. {}", report.chunks_merged);
    println!("  compacted objects written .. {}", report.objects_written);
    println!("  duplicates dropped ......... {}", report.duplicates_dropped);
    println!("  hot objects after .......... {hot_objects_after}");
    println!("  cold objects ............... {}", store.cold().object_count());
    println!("  storage amplification after  {amp_after:.3}");
    assert!(report.chunks_merged > 0 && report.objects_written > 0);
    assert!(report.duplicates_dropped >= 1, "the replayed chunk must dedup");
    assert!(hot_objects_after < hot_objects_before);
    assert!(store.cold().object_count() > 0, "compacted data demoted to the cold tier");
    assert!(amp_after < amp_before, "amplification must drop: {amp_after} vs {amp_before}");

    let dup_after =
        c.query_logs(r#"{app="replay_victim"}"#, dup_win.0, dup_win.1, usize::MAX).unwrap();
    assert_eq!(dup_after.len(), 40, "dedup must reach cached results too");

    // ── Phase 4: the same archaeology, now against the cold tier ──────
    c.frontend().invalidate_all();
    let t1 = Instant::now();
    let (recs_after, stats_after) = logs_with_stats(&c, archaeology, win);
    let wall_after = t1.elapsed();
    assert_eq!(recs_before, recs_after, "compaction must not change query results");
    assert!(stats_after.cold_chunks_touched > 0, "the read came from the cold tier");
    assert!(
        stats_after.chunks_touched < stats_before.chunks_touched,
        "consolidation must shrink objects touched: {} vs {}",
        stats_after.chunks_touched,
        stats_before.chunks_touched,
    );
    let modeled_after = modeled_ns(&stats_after);
    assert!(
        modeled_after < modeled_before,
        "tail latency must improve: {modeled_after} vs {modeled_before}"
    );
    println!("\narchaeology after compaction:");
    println!("  objects touched ............ {}", stats_after.chunks_touched);
    println!("  of those, cold tier ........ {}", stats_after.cold_chunks_touched);
    println!("  modeled latency ............ {:.2} ms", modeled_after as f64 / 1e6);
    println!("  wall time .................. {} µs", wall_after.as_micros());

    // ── Phase 5: cold-tier faults are transient and invisible ─────────
    store.cold().set_policy(ColdTierPolicy {
        fail_permille: 1_000, // every first GET fails once
        seed: SEED,
    });
    c.frontend().invalidate_all();
    let recs_faulty =
        c.query_logs(archaeology, win.0, win.1, usize::MAX).expect("query under faults");
    assert_eq!(recs_before, recs_faulty, "retried GETs must not change results");
    let failures = store.cold().transient_failures();
    assert!(failures > 0, "the failure coin must have fired");
    println!("\ncold tier: {failures} transient GET failures, all retried successfully");

    if !quick {
        let mut section = Json::object();
        for (k, v) in [
            ("entries_ingested", entries_ingested as f64),
            ("hot_objects_before", hot_objects_before as f64),
            ("hot_objects_after", hot_objects_after as f64),
            ("cold_objects", store.cold().object_count() as f64),
            ("objects_merged", report.chunks_merged as f64),
            ("compacted_objects_written", report.objects_written as f64),
            ("duplicates_dropped", report.duplicates_dropped as f64),
            ("storage_amplification_before", (amp_before * 1e4).round() / 1e4),
            ("storage_amplification_after", (amp_after * 1e4).round() / 1e4),
            ("objects_touched_before", stats_before.chunks_touched as f64),
            ("objects_touched_after", stats_after.chunks_touched as f64),
            ("tail_query_modeled_ms_before", (modeled_before as f64 / 1e3).round() / 1e3),
            ("tail_query_modeled_ms_after", (modeled_after as f64 / 1e3).round() / 1e3),
            ("tail_query_wall_us_before", wall_before.as_micros() as f64),
            ("tail_query_wall_us_after", wall_after.as_micros() as f64),
            ("cold_transient_failures", failures as f64),
        ] {
            section.set(k, Json::Number(v)).unwrap();
        }
        write_report("compaction_drill", section);
        println!("\nwrote BENCH_PR8.json (section compaction_drill)");
    }

    println!("\ncompaction drill: all assertions hold");
}
