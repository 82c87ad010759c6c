#!/usr/bin/env bash
# One-shot verification gate: formatting, release build, full workspace
# tests, workspace-wide clippy (warnings denied), the omni-lint static
# analysis gate, and a warning-free doc build.
set -euo pipefail
cd "$(dirname "$0")/.."

echo "== cargo fmt --check =="
cargo fmt --check
bash -n scripts/bench_pairs.sh

echo "== cargo build --release =="
cargo build --release

echo "== omnibench builds against the crates' API and its tests pass =="
# omnibench is its own workspace (path deps on ../crates/*), so the root
# build and `cargo test --workspace` never see it. Its suite includes
# the_staged_replica_produces_what_the_real_stack_produces and the
# BENCHMARK.json name check, so an API removal or a refactor that breaks
# staged == real fails here rather than in the pipeline's benchmark.
cargo test --release --offline -q --manifest-path omnibench/Cargo.toml

echo "== cargo test -q --workspace =="
cargo test -q --workspace

echo "== range-path properties at 1000 cases =="
# The shard/frontend reduce and the two linear routines under it
# (merge_runs / merge_series, step_windows) are held bit for bit to the
# map stitches and binary-search windows they replaced, and the whole
# range path to the step-major reference; 64 cases is a smoke test.
PROPTEST_CASES=1000 cargo test -q -p omni-logql --test prop_grid
PROPTEST_CASES=1000 cargo test -q -p omni-loki --test prop_pushdown --test prop_frontend

# A stream is its labels: the known colliding pair beside random streams,
# through push, WAL replay, seal, offload, compaction, cold demotion and
# retention, answers like the same schedule with the pair renamed.
PROPTEST_CASES=1000 cargo test -q -p omni-loki --test prop_collision

# The scrape cache is held to uncached parse + ingest on a second store,
# and the exposition reader and renderer to hostile bytes and to the
# format!-per-line renderer.
PROPTEST_CASES=1000 cargo test -q -p omni-tsdb --test prop_scrape
PROPTEST_CASES=1000 cargo test -q -p omni-exporters --test prop_exposition

# The sensor path: the field scanner is held to parse, the wire writer
# and decode to the tree, and the metric bridge's ref cache to the tree
# decode on a second rig.
PROPTEST_CASES=1000 cargo test -q -p omni-json --test prop_scan
PROPTEST_CASES=1000 cargo test -q -p omni-redfish --test prop_wire
PROPTEST_CASES=1000 cargo test -q -p omni-core --test prop_metric_bridge

# The log path: the log bridge's label cache and borrowed push are held to
# the per-message bridge on a second rig, and the round-evicting cache
# under vmagent and both bridges to a plain map with seen-marks.
PROPTEST_CASES=1000 cargo test -q -p omni-core --test prop_log_bridge
PROPTEST_CASES=1000 cargo test -q -p omni-model --test prop_round_cache

# The alert path: ServiceNow's number-indexed incidents and borrowed
# events are held to the linear-scan instance they replaced, and
# Alertmanager's ordered groups and borrowed routes to the hash-map
# instance with sorted keys and copied route matches.
PROPTEST_CASES=1000 cargo test -q -p omni-servicenow --test prop_servicenow
PROPTEST_CASES=1000 cargo test -q -p omni-alertmanager --test prop_alertmanager

echo "== fair-scheduler tests, 50 consecutive passes =="
# The scheduler's Condvar gate is exercised by threaded tests (a deep
# backlog, virtual-time waits, a panicking split releasing its slot);
# a flaky interleaving shows up as one failed pass out of fifty.
for _ in $(seq 50); do
    cargo test -q -p omni-loki --lib scheduler:: >/dev/null
done

echo "== cargo clippy --workspace -D warnings =="
cargo clippy -q --workspace --all-targets -- -D warnings

echo "== omni-lint (static rule/query/source/concurrency validation) =="
# omni-lint exits non-zero when it has findings; capture the report
# either way and let the JSON decide so the findings still get printed.
# The three-layer lint (config, source invariants, workspace concurrency
# analysis) must also stay interactive: budget 10s wall clock.
lint_start=$(date +%s)
lint_out="$(cargo run -q -p omni-lint -- --json || true)"
lint_elapsed=$(( $(date +%s) - lint_start ))
python3 - "$lint_out" <<'PY'
import json, sys
report = json.loads(sys.argv[1])
assert report["version"] == 2, f"unexpected report version: {report['version']}"
for f in report["findings"]:
    # Schema v2: every finding carries a severity and a layer.
    assert f["severity"] in ("error", "warning"), f
    assert f["layer"] in (1, 2, 3), f
if report["findings"]:
    for f in report["findings"]:
        print(f"{f['file']}:{f['line']}: [{f['rule']}/{f['severity']}] {f['message']}")
    sys.exit(1)
print("omni-lint: no findings (schema v2)")
PY
if [ "$lint_elapsed" -gt 10 ]; then
    echo "omni-lint took ${lint_elapsed}s (> 10s budget)"; exit 1
fi
echo "omni-lint wall clock: ${lint_elapsed}s (budget 10s)"

echo "== omni-lint --catalog matches the checked-in golden =="
# The catalog is expanded from omni_obs::SELF_FAMILIES; a change to the
# emittable-metric surface shows up here as a file diff (regenerate the
# golden in the same commit when the change is intended).
cargo run -q -p omni-lint -- --catalog | diff - crates/lint/tests/fixtures/catalog.golden

echo "== one log store on the write path (no full-text copy beside Loki) =="
# Omni::discover is a Loki query; a test may still build a bare
# FullTextStore as its reference.
# (`set -e` ignores a `!`-negated command, hence the `if`.)
if grep -rn "Mutex<FullTextStore>\|discovery_stats" crates/core/src examples tests; then
    echo "a second log store is back on the write path"; exit 1
fi

echo "== one series store under the metric half (one label index, one copy of an open sample) =="
# Both stores resolve selectors through omni_model::LabelIndex, and a TSDB
# series keeps its open samples once, as a plain Vec<Sample>: neither the
# hand-copied postings map nor the `recent` mirror may come back.
if [ "$(grep -rn "struct LabelIndex" crates --include=*.rs | wc -l)" -ne 1 ]; then
    echo "a second label index is back"; exit 1
fi
if grep -n "postings\|recent\|BTreeSet" crates/tsdb/src/storage.rs; then
    echo "the TSDB has its own postings or a mirror of its open samples again"; exit 1
fi

echo "== typed object-store keys (no string key codec, no series objects) =="
# A chunk object's key is an omni_loki::chunkstore::ChunkKey, and the
# durable series index is a typed map under the hot tier's lock: neither
# the string key codec nor the series-object codec may come back.
if grep -rn "encode_key_ts\|decode_key_ts\|parse_key_span\|series_key\|labels_to_object\|object_to_labels" crates examples; then
    echo "a string object key or a series-index object is back"; exit 1
fi

echo "== one log-pipeline executor (no filter-only fork beside Pipeline::process) =="
# Pipeline::process borrows the line and labels until a stage rewrites
# them, so the pushdown map runs every pipeline through it: neither a
# second executor over borrowed lines nor its scan-accounting struct may
# come back.
if grep -rn "fn filter_only(\|fn passes_filters(\|PushdownScan\|has_parser_stage" crates; then
    echo "a second log-pipeline executor is back"; exit 1
fi

echo "== rows stay label-sorted on the range path (no map re-sort, no per-step binary search) =="
# Series and shard rows are combined by omni_logql::eval::merge_runs and
# every step window comes from eval::step_windows: neither the frontend's
# map join nor PromQL's binary-search window may come back.
if grep -rn "fn window(\|fn join_series(" crates; then
    echo "a per-step binary-search window or a map join of series is back"; exit 1
fi
if grep -n BTreeMap crates/loki/src/frontend.rs; then
    echo "the frontend re-sorts series through a BTreeMap again"; exit 1
fi

echo "== a label set carries its fingerprint (no distributor-side cache) =="
# LabelSet keeps its fingerprint beside its pairs, computed once: neither
# the distributor's label-set → fingerprint map, its lock class, nor a
# (fingerprint, labels) run header beside a label set may come back.
if grep -rn "fingerprint_cached\|FP_CACHE\|fp_cache:\|(u64, LabelSet, usize)" crates examples; then
    echo "a fingerprint is cached or carried beside its label set again"; exit 1
fi

echo "== vmagent reads pages through its scrape cache (no parse on the step, no fingerprint-keyed series) =="
# The stack registers page targets, so the step parses no page into
# MetricRecords; a TSDB shard finds a series by its label set, so two sets
# whose fingerprints collide stay two series.
if grep -rn "parse_exposition" crates/core/src; then
    echo "the step parses exposition pages into records again"; exit 1
fi
if grep -rn "HashMap<u64, SeriesData>" crates/tsdb/src; then
    echo "the TSDB keys series by fingerprint alone again"; exit 1
fi

echo "== a stream is its labels (no fingerprint-keyed stream, alert or chunk key) =="
# Both stores keep their series in omni_model::SeriesTable, found by label
# content; a chunk key and the durable series index carry the label set; a
# tenant's active streams and an Alertmanager group's alerts are keyed by
# labels. Two sets whose fingerprints collide stay two of each.
if grep -rn "HashMap<u64, Stream>\|HashMap<u64, Alert>" crates; then
    echo "a stream or an alert is keyed by its fingerprint again"; exit 1
fi
if grep -rn "HashSet<u64" crates/loki/src; then
    echo "a set of fingerprints stands for a set of streams again"; exit 1
fi
if grep -n "fingerprint: u64" crates/loki/src/chunkstore.rs; then
    echo "a chunk key names its stream by fingerprint again"; exit 1
fi

echo "== one sensor wire format (no JSON tree per reading on the step path) =="
# omni_redfish::sensor writes a reading with write_wire and reads it with
# decode (one borrowed scan): the bridge may not decode through a tree nor
# the collector dump one.
if grep -rn "SensorReading::from_json" crates/core/src; then
    echo "the metric bridge decodes readings through a JSON tree again"; exit 1
fi
if grep -n "reading.to_json" crates/redfish/src/collector.rs; then
    echo "the collector builds a JSON tree per reading again"; exit 1
fi

echo "== one copy of a log line (one round cache, no per-line copy or label set) =="
# omni_model::RoundCache is the one round-evicting cache (vmagent's scrape
# cache and both bridges' caches); the log bridge queues the bus's bytes
# and pushes them borrowed, and the step publishes a line with a static
# topic: neither a hand-written cache copy nor a per-line copy may come
# back.
if grep -rn "struct SeriesCache\|struct ScrapeCache" crates; then
    echo "a second round-evicting cache is back"; exit 1
fi
if grep -n "from_utf8_lossy(&msg.payload).into_owned()\|record.clone()" crates/core/src/bridge.rs; then
    echo "the log bridge copies a line or a record per message again"; exit 1
fi
if grep -nE "topics::[A-Z_]*\.to_string\(\)" crates/core/src/stack.rs; then
    echo "the step allocates a topic per published line again"; exit 1
fi

echo "== the alert path pays for the notification, not the history, and has one alert =="
# A ServiceNow delivery reads the incident its own alert is bound to, an
# incident is found by its number, an event is read borrowed, and a Slack
# message is stored without a copy: neither a history copy on the step
# path, a history scan, a per-event alert snapshot nor a message clone
# may come back.
if sed '/^#\[cfg(test)\]/,$d' crates/core/src/stack.rs | grep -n "\.incidents()"; then
    echo "the step copies every ServiceNow incident again"; exit 1
fi
if grep -n "incidents.iter_mut()\|alert_snapshot" crates/servicenow/src/lib.rs; then
    echo "ServiceNow scans its incident history or snapshots an alert per event again"; exit 1
fi
if grep -n "push(msg.clone())" crates/alertmanager/src/slack.rs; then
    echo "the Slack sink copies every message again"; exit 1
fi
# One alert type from rule to receiver, a route match is the route, and
# groups live in one ordered map: neither the rule engine's own
# notification type, its conversion, a copied route match nor a
# per-tick key clone may come back. (prop_alertmanager's reference keeps
# its copy of the old RouteMatch, so the sources are searched, not tests.)
if grep -rnE "struct RuleNotification|\bAlertState\b|impl From<&RuleNotification>|struct RouteMatch" crates/*/src; then
    echo "a second alert type, its conversion or a route-match copy is back"; exit 1
fi
if grep -n "keys().cloned()" crates/alertmanager/src/lib.rs; then
    echo "Alertmanager clones and sorts its group keys per tick again"; exit 1
fi

echo "== nothing without a caller (one tenant admission, one cold-GET price, one alert-to-event read) =="
# Per-tenant admission is Loki's TenantState alone (a token bucket is plain
# data under the tenant's own lock); a cold chunk is priced once, by the
# stack's per-cold-chunk query cost; an alert becomes an SN Event only
# through the borrowed AlertEvent; a log-bridge record carries its trace
# id from the message it came from. Neither the bus's tenant quotas, the
# bucket's own lock, the cold tier's latency meter, the owned alert
# conversion nor the per-record trace-label scan may come back.
if grep -rnE "produce_as|set_tenant_quota|TenantProduceStats|BUS_QUOTAS|MODEL_BUCKET_STATE|simulated_latency_ns|get_latency_ns|fn from_alertmanager|fn record_trace" crates/*/src; then
    echo "a caller-less second door, lock or price is back"; exit 1
fi

echo "== one step order (the STAGES table is the step) =="
# MonitoringStack::step runs omni_core::stack::STAGES and nothing else:
# neither a numbered stage comment may come back in stack.rs, nor may a
# Log, Metric or Alert span that omnibench's group_of times be missing
# from the table or sit there under another group. omnibench is only
# read here. The per-stage allocation counts must add up to the step's.
if grep -nE "// [0-9]+b?\. " crates/core/src/stack.rs; then
    echo "a numbered stage comment is back in stack.rs"; exit 1
fi
python3 - <<'PY'
import re
staged = open("omnibench/src/staged.rs").read()
group_of = staged[staged.index("pub fn group_of"):]
group_of = group_of[:group_of.index("\n}\n")]
timed = {}
for names, group in re.findall(r'((?:"[a-z_.]+"\s*\|?\s*)+)=>\s*Group::(\w+)', group_of):
    if group in ("Log", "Metric", "Alert"):
        timed.update((name, group) for name in re.findall(r'"([a-z_.]+)"', names))
stack = open("crates/core/src/stack.rs").read()
table = stack[stack.index("pub const STAGES"):]
table = table[:table.index("\n];\n")]
stages = dict(re.findall(r'stage\(\s*"([a-z_.]+)",\s*Group::(\w+)', table))
assert timed and stages, "found no span names or no stages"
wrong = [f"{n} ({g})" for n, g in timed.items() if stages.get(n) != g]
if wrong:
    print("spans omnibench times that are not stages of that group:", ", ".join(wrong))
    raise SystemExit(1)
print(f"all {len(timed)} Log/Metric/Alert spans of group_of are stages of {len(stages)}")
PY
cargo test -q -p omni-core --test alloc_step_stages

echo "== cargo doc --no-deps (warnings denied) =="
RUSTDOCFLAGS="-D warnings" cargo doc -q --no-deps --workspace

echo "== quickstart (whole Figure-1 pipeline; the runtime surface of Omni::discover) =="
# Captured first: `grep -q` closing the pipe early would fail the
# example's remaining println under pipefail.
quickstart_out="$(cargo run -q --release --example quickstart)"
echo "$quickstart_out" | grep -q '^discovery: [1-9]' || { echo "discover found nothing"; exit 1; }

echo "== tenant chaos drill (fixed seed, isolation invariants) =="
# The drill asserts its own invariants and exits non-zero on any
# isolation breach; require the closing line so a silent truncation of
# the drill also fails the gate.
cargo run -q --release --example tenant_chaos_drill \
    | grep "tenant chaos drill: all isolation invariants hold"

echo "== tenant chaos drill under the lock-order witness (debug build) =="
# The runtime lock-order witness (debug_assertions only) checks every
# OrderedMutex/OrderedRwLock acquisition against LOCK_ORDER; running the
# drill once in a debug build exercises the full hierarchy under load.
cargo run -q --example tenant_chaos_drill \
    | grep "tenant chaos drill: all isolation invariants hold"

echo "== chaos drill twice (shard crash + WAL replay through the whole stack) =="
# The only drill that crashes an ingester shard and replays its WAL into
# the stack. It asserts zero log loss itself (non-zero exit on loss); on
# the virtual clock with a seeded schedule, two runs must print
# byte-identical reports, and recovery must find no corrupt segment.
chaos_a="$(cargo run -q --release --example chaos_drill)"
chaos_b="$(cargo run -q --release --example chaos_drill)"
diff <(echo "$chaos_a") <(echo "$chaos_b") || { echo "chaos drill is not deterministic"; exit 1; }
echo "$chaos_a" | grep "^loki: .*corrupt segments 0$" || { echo "chaos drill loki line missing or corrupt"; exit 1; }

echo "== introspection drill (slow-query log, span trees, exemplars, SLO burn) =="
# The drill asserts the whole deep-introspection surface: the slow query
# self-ingests with a trace id, the trace renders as a span tree with
# per-split children, the exemplar links the same trace,
# the forced regression fires SloFastBurn through vmalert→Alertmanager,
# and tail sampling bounds retention. Require the closing line so a
# silent truncation also fails the gate.
drill_out="$(cargo run -q --release --example introspection_drill)"
echo "$drill_out" | grep "introspection drill: all assertions hold"
echo "$drill_out" | grep -q '"trace_id"' || { echo "slow-query log line missing"; exit 1; }

echo "== compaction drill (--quick: 10 days, no report rewrite) =="
# The drill asserts tier equivalence (byte-identical archaeology results
# before/after compaction), replayed-chunk dedup with cache invalidation,
# reduced storage amplification, and retried transient cold-tier GETs.
cargo run -q --release --example compaction_drill -- --quick \
    | grep "compaction drill: all assertions hold"

echo "== heatmap drill (component rollups over pushed-down aggregations) =="
# The drill asserts the cabinet/chassis rollups light up, every rolled-up
# row name parses to the requested hierarchy level, and the frontend's
# pushdown counters prove the refresh moved partials, not entries. A
# refresh one render step later must take every older split from the
# range step extents and scan no more than the new step's lookback.
heatmap_out="$(cargo run -q --release --example heatmap_drill)"
echo "$heatmap_out" | grep "heatmap drill: all assertions hold"
echo "$heatmap_out" | grep -q "queries pushed down" || { echo "pushdown stats missing"; exit 1; }
echo "$heatmap_out" | grep "^sliding refresh: " || { echo "sliding refresh line missing"; exit 1; }

echo "== bench smoke (--quick: tiny workload, no report rewrite) =="
cargo bench -q -p omni-bench --bench c1_ingest_throughput -- --quick | grep "pr3 ingest"
cargo bench -q -p omni-bench --bench fig5_range_query -- --quick | grep "pr3 range_query"
cargo bench -q -p omni-bench --bench c7_frontend_cache -- --quick | grep "pr5 frontend_cache"
cargo bench -q -p omni-bench --bench c8_lint_runtime -- --quick | grep "pr9 lint_runtime"

echo "== BENCH_PR{3,5,8}.json present and complete =="
while read -r file keys; do
    test -f "$file"
    for key in $keys; do
        grep -q "\"$key\"" "$file" || { echo "$file missing $key"; exit 1; }
    done
done <<'REPORTS'
BENCH_PR3.json ingest range_query speedup per_record_msgs_per_sec batched_msgs_per_sec blocks_total blocks_decoded
BENCH_PR5.json frontend_cache cold_refresh_seconds warm_refresh_seconds speedup cache_hits cache_misses split_equals_unsplit
BENCH_PR8.json compaction_drill objects_merged duplicates_dropped storage_amplification_before storage_amplification_after tail_query_modeled_ms_before tail_query_modeled_ms_after objects_touched_before objects_touched_after cold_transient_failures
REPORTS

echo "verify: OK"
