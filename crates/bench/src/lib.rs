//! Shared workload helpers for the benchmark suite.

use omni_json::{parse, Json};
use omni_loki::{Limits, LokiCluster};
use omni_model::{LabelSet, LogRecord, SimClock, NANOS_PER_SEC};
use omni_shasta::{ShastaMachine, SyslogGenerator};
use omni_xname::TopologySpec;
use std::path::PathBuf;
use std::sync::Arc;

/// Deterministic corpus of syslog-shaped records: `n` lines spread over
/// `streams` label sets, advancing one second every 256 lines.
pub fn syslog_corpus(n: usize, streams: usize) -> Vec<LogRecord> {
    let clock = SimClock::starting_at(0);
    let machine = Arc::new(ShastaMachine::new(TopologySpec::tiny(), clock.clone(), 7));
    let mut gen = SyslogGenerator::new(machine.topology().nodes(), clock.clone(), 7);
    (0..n)
        .map(|i| {
            let (_, line) = gen.next_line();
            if i % 256 == 0 {
                clock.advance_secs(1);
            }
            let labels = LabelSet::from_pairs([
                ("cluster", "perlmutter".to_string()),
                ("data_type", "syslog".to_string()),
                ("stream", format!("{}", i % streams)),
            ]);
            LogRecord::new(labels, clock.now() + (i % 256) as i64, line)
        })
        .collect()
}

/// A Loki cluster pre-loaded with a corpus (flushed so queries hit sealed
/// chunks, like steady-state production).
pub fn loaded_cluster(shards: usize, n: usize, streams: usize) -> LokiCluster {
    let clock = SimClock::starting_at(0);
    let cluster = LokiCluster::new(shards, Limits::default(), clock.clone());
    for r in syslog_corpus(n, streams) {
        cluster.push_record(r).expect("corpus records are valid");
    }
    clock.advance_secs(3600);
    cluster.flush();
    cluster
}

/// Window end covering the whole corpus.
pub fn corpus_end() -> i64 {
    10_000 * NANOS_PER_SEC
}

/// Whether the bench binary was invoked with `--quick` (the verify.sh
/// smoke mode). The vendored criterion shim ignores CLI flags, so benches
/// check the raw argument list themselves: quick mode shrinks workloads
/// and skips the report write so a smoke run never dirties the tree.
pub fn quick_mode() -> bool {
    std::env::args().any(|a| a == "--quick")
}

/// Merge one named section into the repo-root report `file` (e.g.
/// `BENCH_PR3.json`): read-modify-write, so benches sharing a report can
/// run in either order and each owns exactly one top-level key.
pub fn write_report_section(file: &str, section: &str, value: Json) {
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../..").join(file);
    let mut root = std::fs::read_to_string(&path)
        .ok()
        .and_then(|text| parse(&text).ok())
        .filter(|v| matches!(v, Json::Object(_)))
        .unwrap_or_else(|| Json::Object(Vec::new()));
    root.set(section, value).expect("report root is an object");
    std::fs::write(&path, root.pretty(2) + "\n")
        .unwrap_or_else(|e| panic!("cannot write {}: {e}", path.display()));
}
