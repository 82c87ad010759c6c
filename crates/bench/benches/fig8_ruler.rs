//! E6 — Figure 8: Ruler evaluation cost. "The Ruler ... is responsible
//! for continually evaluating a set of configurable queries" — this
//! measures one evaluation pass across rule counts and store sizes.

use criterion::{black_box, criterion_group, criterion_main, BenchmarkId, Criterion};
use omni_bench::{corpus_end, loaded_cluster};
use omni_model::{AlertRule, LabelSet, RuleEngine, RuleGroup, NANOS_PER_SEC};

fn switch_rule(i: usize) -> AlertRule {
    AlertRule {
        name: format!("SwitchOffline{i}"),
        expr: format!(
            r#"sum(count_over_time({{data_type="syslog", stream="{i}"}} |= "slurmd" [5m])) by (stream) > 0"#
        ),
        for_ns: 60 * NANOS_PER_SEC,
        labels: LabelSet::from_pairs([("severity", "critical")]),
        annotations: vec![("summary".into(), "stream {{.stream}} busy".into())],
    }
}

fn bench(c: &mut Criterion) {
    let mut g = c.benchmark_group("fig8_ruler_evaluation");
    g.sample_size(10);
    for &rules in &[1usize, 4, 16] {
        let cluster = loaded_cluster(4, 50_000, 32);
        let mut ruler = RuleEngine::new(cluster.clone());
        ruler
            .add_group(RuleGroup {
                name: "bench".into(),
                interval_ns: 0, // always due
                rules: (0..rules).map(switch_rule).collect(),
            })
            .unwrap();
        g.bench_with_input(BenchmarkId::new("rules", rules), &rules, |b, _| {
            let mut t = corpus_end();
            b.iter(|| {
                t += NANOS_PER_SEC;
                black_box(ruler.evaluate(t).len())
            });
        });
    }
    g.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
