#!/usr/bin/env bash
# The measurement protocol for a change that claims (or must not lose)
# performance: run two already-built omni-bench binaries — the parent
# commit's and the change's — in alternating order and judge every
# end-to-end metric of BENCHMARK.json by the choosing-metrics rule.
#
#   scripts/bench_pairs.sh <parent-omni-bench> <change-omni-bench> \
#       [--pairs N=10] [--seed S=1] [workload...]
#
# Build each side once into its own target directory first, e.g.
#   CARGO_TARGET_DIR=/root/scratch/change-target cargo build --release \
#       --offline --manifest-path omnibench/Cargo.toml --bin omni-bench
# (and the same inside a `git clone` of the parent commit).
#
# Per workload x metric it prints both medians, both quartile pairs, pairs
# won / lost / tied by the change, and a verdict:
#   gain        the change won >= 9/10 of all pairs run and the medians
#               differ by more than the parent's interquartile distance
#   regression  the change's median is worse than the parent's by more
#               than the metric's bound in BENCHMARK.json
#   within      neither
# Exits non-zero on any `correct: false`, any `failed > 0`, or an
# `attempted` that differs between runs (a verdict is a reading, not a
# gate: a `regression` on a noisy host wants a second look, not a red X).
# Writes nothing into the repo (runs are untraced; raw lines go to a
# temporary file that is removed on exit).
set -euo pipefail

usage() {
    echo "usage: $0 <parent-omni-bench> <change-omni-bench> [--pairs N=10] [--seed S=1] [workload...]" >&2
    exit 2
}

[ $# -ge 2 ] || usage
parent=$1
change=$2
shift 2
pairs=10
seed=1
workloads=()
while [ $# -gt 0 ]; do
    case "$1" in
        --pairs) pairs=${2:?--pairs needs a value}; shift 2 ;;
        --seed) seed=${2:?--seed needs a value}; shift 2 ;;
        -*) usage ;;
        *) workloads+=("$1"); shift ;;
    esac
done
for bin in "$parent" "$change"; do
    [ -x "$bin" ] || { echo "not an executable: $bin" >&2; exit 2; }
done

spec="$(cd "$(dirname "$0")/.." && pwd)/BENCHMARK.json"
seconds=$(python3 -c 'import json, sys; print(json.load(open(sys.argv[1]))["run_seconds"])' "$spec")
if [ ${#workloads[@]} -eq 0 ]; then
    mapfile -t workloads < <(python3 -c 'import json, sys
for w in json.load(open(sys.argv[1]))["workloads"]: print(w["name"])' "$spec")
fi

runs=$(mktemp)
trap 'rm -f "$runs"' EXIT
for workload in "${workloads[@]}"; do
    for ((pair = 0; pair < pairs; pair++)); do
        # Alternate which side runs first, so drift over the session
        # (thermal, page cache, a noisy neighbour) favours neither.
        if ((pair % 2 == 0)); then order="parent change"; else order="change parent"; fi
        for side in $order; do
            if [ "$side" = parent ]; then bin=$parent; else bin=$change; fi
            # A run that fails its own checks exits non-zero but still
            # prints its result line; the report below decides.
            line=$("$bin" --workload "$workload" --seed "$seed" --seconds "$seconds" --trace 0 | tail -n 1) || true
            printf '%s\t%s\t%s\n' "$workload" "$side" "$line" >>"$runs"
            echo "$workload seed $seed pair $((pair + 1))/$pairs $side done" >&2
        done
    done
done

python3 - "$spec" "$runs" <<'PY'
import json, statistics, sys

spec = json.load(open(sys.argv[1]))
runs = {}  # workload -> side -> [result, ...] in pair order
for row in open(sys.argv[2]):
    workload, side, line = row.rstrip("\n").split("\t", 2)
    try:
        result = json.loads(line)
    except ValueError:
        sys.exit(f"{workload} ({side}): last stdout line is not a result: {line[:120]!r}")
    runs.setdefault(workload, {"parent": [], "change": []})[side].append(result)

def quartiles(xs):
    # One pair has no spread: all three are the value itself.
    return statistics.quantiles(xs, n=4, method="inclusive") if len(xs) > 1 else xs * 3

bad = []
for workload, sides in runs.items():
    for side, results in sides.items():
        for r in results:
            if r.get("correct") is not True:
                bad.append(f"{workload}: a {side} run reported correct: {r.get('correct')}")
            if r.get("failed", 0) > 0:
                bad.append(f"{workload}: a {side} run reported failed: {r['failed']}")
    attempted = {r.get("attempted") for results in sides.values() for r in results}
    if len(attempted) != 1:
        bad.append(f"{workload}: attempted differs between runs: {sorted(attempted, key=str)}")

    n = len(sides["parent"])
    print(f"\n{workload}  ({n} pairs, attempted {sorted(attempted, key=str)})")
    print(f"  {'metric':<28} {'parent q1/median/q3':>34} {'change q1/median/q3':>34}  won/lost/tied  verdict")
    for metric in spec["end_to_end"]:
        name, lower, bound = metric["name"], metric["better"] == "lower", metric["bound"]
        value = lambda r: r.get("metrics", {}).get(name, {}).get("value")
        p = [value(r) for r in sides["parent"]]
        c = [value(r) for r in sides["change"]]
        if any(v is None for v in p + c):
            print(f"  {name:<28} not reported")
            continue
        better = (lambda a, b: a < b) if lower else (lambda a, b: a > b)
        won = sum(better(cv, pv) for pv, cv in zip(p, c))
        lost = sum(better(pv, cv) for pv, cv in zip(p, c))
        (p1, pm, p3), (c1, cm, c3) = quartiles(p), quartiles(c)
        worse_by = ((cm - pm) if lower else (pm - cm)) / abs(pm) if pm else 0.0
        if won * 10 >= 9 * n and better(cm, pm) and abs(cm - pm) > p3 - p1:
            verdict = "gain"
        elif worse_by > bound:
            verdict = f"regression ({worse_by:.1%} worse, bound {bound:.0%})"
        else:
            verdict = "within"
        cell = lambda a, b, c_: f"{a:.6g} / {b:.6g} / {c_:.6g}"
        print(f"  {name:<28} {cell(p1, pm, p3):>34} {cell(c1, cm, c3):>34}  {won:>3}/{lost}/{n - won - lost:<6}  {verdict}")

if bad:
    print()
    for line in bad:
        print(f"FAIL {line}")
    sys.exit(1)
PY
