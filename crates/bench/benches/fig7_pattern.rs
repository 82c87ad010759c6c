//! E5 — Figure 7: the `pattern` stage extracting fields from the
//! fabric-manager event line, against the `regexp` and `json` stages on
//! equivalent inputs.

use criterion::{black_box, criterion_group, criterion_main, Criterion, Throughput};
use omni_logql::{parse_log_query, Pipeline};
use omni_model::labels;

const LINE: &str = "[critical] problem:fm_switch_offline, xname:x1002c1r7b0, state:UNKNOWN";
const JSON_LINE: &str = r#"{"severity":"critical","problem":"fm_switch_offline","xname":"x1002c1r7b0","state":"UNKNOWN"}"#;

/// The stages are leaked so each benchmark can hold its pipeline by value.
fn pipeline(q: &str) -> Pipeline<'static> {
    Pipeline::new(parse_log_query(q).unwrap().stages.leak())
}

fn bench(c: &mut Criterion) {
    let stream = labels!("app" => "fabric_manager_monitor", "cluster" => "perlmutter");
    let pattern = pipeline(
        r#"{app="fm"} | pattern "[<severity>] problem:<problem>, xname:<xname>, state:<state>""#,
    );
    let regexp = pipeline(
        r#"{app="fm"} | regexp "\[(?P<severity>\w+)\] problem:(?P<problem>\w+), xname:(?P<xname>\w+), state:(?P<state>\w+)""#,
    );
    let json = pipeline(r#"{app="fm"} | json"#);

    let mut g = c.benchmark_group("fig7_field_extraction");
    g.throughput(Throughput::Bytes(LINE.len() as u64));
    g.bench_function("pattern_stage", |b| {
        b.iter(|| black_box(pattern.process(black_box(LINE), &stream)));
    });
    g.bench_function("regexp_stage", |b| {
        b.iter(|| black_box(regexp.process(black_box(LINE), &stream)));
    });
    g.throughput(Throughput::Bytes(JSON_LINE.len() as u64));
    g.bench_function("json_stage", |b| {
        b.iter(|| black_box(json.process(black_box(JSON_LINE), &stream)));
    });
    g.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
