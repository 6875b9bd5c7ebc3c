#!/usr/bin/env bash
# Run the google-benchmark suites (E7 crypto micro-benchmarks, E13
# verification pipeline, E16 reconfiguration epoch latency n=4->5->4,
# E17 shard scaling S=1/2/4/8) and capture the results as JSON so future
# PRs have a perf trajectory to compare against.  When a committed
# baseline JSON exists at the repo root, any benchmark that comes out
# >20% slower than its committed time prints a REGRESSION warning, and
# one deduplicated summary of all regressed suites follows the sweep
# (the script exits 1 under --strict).
#
# Rows timed with UseRealTime() carry a trailing "/real_time" in their
# names; every parser below drops it before reading the arguments.
#
# Usage: bench/run_bench.sh [--strict] [build-dir]
# Defaults: build/; output JSONs land at the repo root (BENCH_E7.json,
# BENCH_E13.json, BENCH_E16.json, BENCH_E17.json), overwriting the
# committed baselines — inspect the diff before committing new numbers.
set -euo pipefail

strict=0
if [[ "${1:-}" == "--strict" ]]; then
  strict=1
  shift
fi

repo_root="$(cd "$(dirname "$0")/.." && pwd)"
build_dir="${1:-$repo_root/build}"

# backend_compare <bench.json>: group-backend comparison table.  Labeled
# benchmarks carry the group backend name as their label and the backend
# selector as their LAST argument; rows differing only in that selector
# are the same operation on different backends, so print them side by
# side with the speedup of each backend over the slowest.
backend_compare() {
  python3 - "$1" <<'EOF'
import json, sys
from collections import defaultdict

with open(sys.argv[1]) as f:
    data = json.load(f)

families = defaultdict(dict)  # (family-with-non-backend-args) -> label -> ns
for b in data.get("benchmarks", []):
    if b.get("run_type") == "aggregate" or not b.get("label"):
        continue
    parts = [p for p in b["name"].split("/") if p != "real_time"]
    key = "/".join(parts[:-1])  # strip trailing backend selector
    families[key][b["label"]] = float(b["real_time"])

printed_header = False
for key in sorted(families):
    rows = families[key]
    if len(rows) < 2:
        continue
    if not printed_header:
        print("\n-- backend comparison (speedup vs slowest backend) --")
        printed_header = True
    slowest = max(rows.values())
    cols = ", ".join(f"{label}: {ns:,.0f} ns ({slowest / ns:.1f}x)"
                     for label, ns in sorted(rows.items(), key=lambda kv: -kv[1]))
    print(f"{key}:  {cols}")
EOF
}

# executor_scaling <bench.json>: multi-core scaling table for the
# BM_E3AtomicExecutors family (issue 7).  Rows are named
# BM_E3AtomicExecutors/<executors>/<backend>; print each backend's curve
# as speedup over its own sequential (E=0) row.  On a 1-core container
# the curve collapses to ~1x — the multi-core CI bench job records the
# real one.  Returns 1 when the host has >=4 CPUs, an E=4 row exists,
# and its speedup is below the 1.5x acceptance floor.
executor_scaling() {
  python3 - "$1" <<'EOF'
import json, sys
from collections import defaultdict

with open(sys.argv[1]) as f:
    data = json.load(f)

curves = defaultdict(dict)  # backend label -> executors -> ms
for b in data.get("benchmarks", []):
    if b.get("run_type") == "aggregate":
        continue
    parts = [p for p in b["name"].split("/") if p != "real_time"]
    if parts[0] != "BM_E3AtomicExecutors" or len(parts) != 3:
        continue
    curves[b.get("label", parts[2])][int(parts[1])] = float(b["real_time"])

if not curves:
    sys.exit(0)
num_cpus = data.get("context", {}).get("num_cpus", 1)
print(f"\n-- executor scaling, E3 atomic ({num_cpus} CPUs) --")
failed = False
for label in sorted(curves):
    curve = curves[label]
    base = curve.get(0)
    if base is None or base <= 0:
        continue
    cols = ", ".join(f"E={e}: {base / t:.2f}x" for e, t in sorted(curve.items()))
    print(f"{label}:  {cols}")
    if num_cpus >= 4 and 4 in curve and base / curve[4] < 1.5:
        print(f"SCALING: {label}: {base / curve[4]:.2f}x at 4 executors "
              f"(< 1.5x acceptance floor on a {num_cpus}-core host)")
        failed = True
sys.exit(1 if failed else 0)
EOF
}

# shard_scaling <bench.json>: shard-scaling table for the
# BM_E17ShardedAtomic family (issue 10).  Rows are named
# BM_E17ShardedAtomic/<shards>; items_per_second is the AGGREGATE
# committed request rate across all shards per second of wall-clock time
# (the rows use UseRealTime), so the curve is that rate's ratio over the
# S=1 row.  On a 1-core host the curve flattens.  Returns 1 when the
# host has >=4 CPUs, an S=4 row exists, and its aggregate throughput is
# below the 1.5x acceptance floor.
shard_scaling() {
  python3 - "$1" <<'EOF'
import json, sys

with open(sys.argv[1]) as f:
    data = json.load(f)

curve = {}  # shards -> aggregate items/s
batch = {}  # shards -> payloads per BATCH frame
for b in data.get("benchmarks", []):
    if b.get("run_type") == "aggregate":
        continue
    parts = [p for p in b["name"].split("/") if p != "real_time"]
    if parts[0] != "BM_E17ShardedAtomic" or len(parts) != 2:
        continue
    curve[int(parts[1])] = float(b.get("items_per_second", 0.0))
    batch[int(parts[1])] = float(b.get("payloads_per_batch", 0.0))

if not curve:
    sys.exit(0)
num_cpus = data.get("context", {}).get("num_cpus", 1)
print(f"\n-- shard scaling, E17 aggregate committed req/s ({num_cpus} CPUs) --")
base = curve.get(1)
if base is None or base <= 0:
    sys.exit(0)
cols = ", ".join(f"S={s}: {rate:,.0f}/s ({rate / base:.2f}x, {batch.get(s, 0):.1f} payloads/batch)"
                 for s, rate in sorted(curve.items()))
print(cols)
if num_cpus >= 4 and 4 in curve and curve[4] / base < 1.5:
    print(f"SCALING: {curve[4] / base:.2f}x aggregate throughput at 4 shards "
          f"(< 1.5x acceptance floor on a {num_cpus}-core host)")
    sys.exit(1)
sys.exit(0)
EOF
}

# compare <old.json> <new.json>: warn on >20% real_time slowdowns.
compare_json() {
  python3 - "$1" "$2" <<'EOF'
import json, sys

def load(path):
    with open(path) as f:
        data = json.load(f)
    out = {}
    for b in data.get("benchmarks", []):
        # Skip aggregate rows; compare per-benchmark base measurements.
        if b.get("run_type") == "aggregate":
            continue
        out[b["name"].removesuffix("/real_time")] = float(b["real_time"])
    return out

old, new = load(sys.argv[1]), load(sys.argv[2])
regressed = 0
for name, new_t in sorted(new.items()):
    old_t = old.get(name)
    if old_t is None or old_t <= 0:
        continue
    ratio = new_t / old_t
    if ratio > 1.20:
        regressed += 1
        print(f"REGRESSION: {name}: {old_t:.0f} -> {new_t:.0f} ns "
              f"({(ratio - 1) * 100:.0f}% slower than committed baseline)")
sys.exit(1 if regressed else 0)
EOF
}

status=0
regressed_suites=()
for exp in e7_crypto e13_pipeline e16_reconfig e17_sharding; do
  id="${exp%%_*}"
  id="${id^^}"  # e7 -> E7
  bench_bin="$build_dir/bench/bench_${exp}"
  out_json="$repo_root/BENCH_${id}.json"
  if [[ ! -x "$bench_bin" ]]; then
    echo "error: $bench_bin not built (run: cmake -B build -S . && cmake --build build -j)" >&2
    exit 1
  fi
  baseline=""
  if [[ -f "$out_json" ]]; then
    baseline="$(mktemp)"
    cp "$out_json" "$baseline"
  fi
  "$bench_bin" --benchmark_out="$out_json" --benchmark_out_format=json \
               --benchmark_format=console
  echo "wrote $out_json"
  backend_compare "$out_json"
  if [[ "$id" == "E13" ]]; then
    if ! executor_scaling "$out_json"; then
      echo "warning: E3 atomic executor scaling below the 1.5x floor" >&2
      status=1
    fi
  fi
  if [[ "$id" == "E17" ]]; then
    if ! shard_scaling "$out_json"; then
      echo "warning: E17 shard scaling below the 1.5x aggregate-throughput floor" >&2
      status=1
    fi
  fi
  if [[ -n "$baseline" ]]; then
    if ! compare_json "$baseline" "$out_json"; then
      # Per-benchmark REGRESSION lines already printed; collect the suite
      # id and warn ONCE after the sweep instead of once per suite.
      regressed_suites+=("$id")
      status=1
    fi
    rm -f "$baseline"
  fi
done

if [[ ${#regressed_suites[@]} -gt 0 ]]; then
  echo "warning: benchmarks regressed >20% vs the committed JSONs in: ${regressed_suites[*]}" >&2
fi

if [[ $strict -eq 1 ]]; then
  exit $status
fi
exit 0
