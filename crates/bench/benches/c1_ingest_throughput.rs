//! C1 — "OMNI is able to ingest at a rate of up to 400,000 messages per
//! second from heterogeneous and distributed sources."
//!
//! Measures sustained push throughput into the Loki cluster (single and
//! multi-producer) and into the TSDB; Criterion's throughput mode reports
//! elements/second to compare against the paper's 400k msg/s figure.

use criterion::{black_box, criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use omni_bench::{quick_mode, syslog_corpus, write_report_section};
use omni_json::jsonv;
use omni_loki::{Limits, LokiCluster, StreamFrame};
use omni_model::{labels, SimClock};
use omni_tsdb::{Tsdb, TsdbConfig};
use std::time::Instant;

/// PR3 before/after, fixed seed: the same corpus pushed two ways through
/// the one push door.
///
/// * **per-record** — `push_record`, a frame of one per call: every
///   message pays the fingerprint-cache probe, its own WAL record (labels
///   re-encoded each time), and one ingester lock round-trip.
/// * **batched** — `push_frames` with stream frames (one label set + its
///   entries, the Loki push protocol's native shape and exactly what a
///   source bridge drains per pump round): the whole frame pays for
///   labels once — fingerprint, routing, WAL framing, and the ingester
///   lock — and each entry costs only the stream append.
///
/// The corpus is stream-contiguous (what batching producers emit) and
/// sized so no chunk seals mid-run: seal/compression cost is identical
/// across paths and is benched separately (c2). Owns the `ingest`
/// section of BENCH_PR3.json; quick mode shrinks the workload and only
/// prints.
fn pr3_ingest_report() {
    let quick = quick_mode();
    let n = if quick { 8_000 } else { 50_000 };
    let runs = if quick { 2 } else { 5 };
    let streams = 64usize;
    let batch_size = 1_024;
    let mut corpus = syslog_corpus(n, streams);
    corpus.sort_by(|a, b| a.labels.get("stream").cmp(&b.labels.get("stream")));
    // Pre-built inputs so the timed region only moves records: cloning
    // line strings inside the timer is allocator traffic that would swamp
    // the path cost being measured.
    let frames: Vec<StreamFrame> = corpus
        .chunk_by(|a, b| a.labels == b.labels)
        .flat_map(|run| run.chunks(batch_size))
        .map(|chunk| (chunk[0].labels.clone(), chunk.iter().map(|r| r.entry.clone()).collect()))
        .collect();

    fn timed<T: Clone>(runs: usize, n: usize, data: &T, run: impl Fn(&LokiCluster, T)) -> f64 {
        let mut best = f64::INFINITY;
        for _ in 0..runs {
            let cluster = LokiCluster::new(8, Limits::default(), SimClock::starting_at(0));
            let data = data.clone();
            let start = Instant::now();
            run(&cluster, data);
            best = best.min(start.elapsed().as_secs_f64());
            assert_eq!(cluster.stats().entries, n as u64);
        }
        best
    }

    let per_record = timed(runs, n, &corpus, |cluster, corpus| {
        for r in corpus {
            cluster.push_record(r).unwrap();
        }
    });
    let framed = timed(runs, n, &frames, |cluster, frames| {
        for frame in frames {
            for result in cluster.push_frames(None, [frame]) {
                result.unwrap();
            }
        }
    });

    let rate = |secs: f64| n as f64 / secs;
    let speedup = rate(framed) / rate(per_record);
    println!(
        "pr3 ingest: per-record {:.0} msg/s, stream-framed batched {:.0} msg/s ({speedup:.2}x)",
        rate(per_record),
        rate(framed),
    );
    if !quick {
        write_report_section(
            "BENCH_PR3.json",
            "ingest",
            jsonv!({
                "messages": (n),
                "streams": (streams),
                "batch_size": (batch_size),
                "runs_best_of": (runs),
                "per_record_seconds": (per_record),
                "batched_seconds": (framed),
                "per_record_msgs_per_sec": (rate(per_record)),
                "batched_msgs_per_sec": (rate(framed)),
                "speedup": (speedup),
            }),
        );
    }
}

fn bench(c: &mut Criterion) {
    pr3_ingest_report();
    if quick_mode() {
        return;
    }

    let mut g = c.benchmark_group("c1_ingest_throughput");
    g.sample_size(10);

    // Single-threaded log ingest per batch of 10k messages.
    let corpus = syslog_corpus(10_000, 64);
    g.throughput(Throughput::Elements(corpus.len() as u64));
    g.bench_function("loki_single_producer_10k", |b| {
        b.iter_with_setup(
            || (LokiCluster::new(8, Limits::default(), SimClock::starting_at(0)), corpus.clone()),
            |(cluster, corpus)| {
                for r in corpus {
                    cluster.push_record(r).unwrap();
                }
                black_box(cluster.stats().entries)
            },
        );
    });

    // Concurrent producers (the "distributed sources" part of the claim).
    for &producers in &[2usize, 4, 8] {
        g.throughput(Throughput::Elements(10_000));
        g.bench_with_input(
            BenchmarkId::new("loki_concurrent_producers", producers),
            &producers,
            |b, &producers| {
                b.iter_with_setup(
                    || {
                        (
                            LokiCluster::new(8, Limits::default(), SimClock::starting_at(0)),
                            syslog_corpus(10_000, 64),
                        )
                    },
                    |(cluster, corpus)| {
                        // Partition by stream fingerprint so each producer
                        // owns disjoint streams (contiguous chunks would
                        // race one stream across producers and trip the
                        // out-of-order check).
                        let mut parts: Vec<Vec<omni_model::LogRecord>> =
                            (0..producers).map(|_| Vec::new()).collect();
                        for r in corpus {
                            let p = (r.labels.fingerprint() % producers as u64) as usize;
                            parts[p].push(r);
                        }
                        std::thread::scope(|s| {
                            for part in parts {
                                let cluster = cluster.clone();
                                s.spawn(move || {
                                    for r in part {
                                        cluster.push_record(r).unwrap();
                                    }
                                });
                            }
                        });
                        black_box(cluster.stats().entries)
                    },
                );
            },
        );
    }

    // Metric-side ingest.
    g.throughput(Throughput::Elements(10_000));
    g.bench_function("tsdb_ingest_10k_samples", |b| {
        b.iter_with_setup(
            || Tsdb::new(TsdbConfig::default()),
            |db| {
                for i in 0..10_000i64 {
                    db.ingest_sample(
                        "shasta_temperature_celsius",
                        labels!("xname" => format!("x{}", i % 100)),
                        i * 1_000_000,
                        42.0 + (i % 10) as f64,
                    );
                }
                black_box(db.samples_ingested())
            },
        );
    });

    g.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
