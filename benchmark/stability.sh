#!/usr/bin/env bash
# Checks that the benchmark agrees with itself within its own bounds.
#
#   bash benchmark/stability.sh [--sets 2] [--runs 3] [--seconds 20]
#
# Runs the whole suite as --sets sets. Within a set every workload runs
# --runs times (seeds 1..runs), each run in its own process; successive sets
# alternate the workload order. For every end-to-end metric of
# BENCHMARK.json and every workload it prints each set's median, the gap
# between the largest and smallest set median (over the smallest) and the
# largest spread inside a set (interquartile range over median). It fails if
# a gap exceeds the metric's bound, or, for metrics other than setup_s, a
# spread does. The suggested bound is the rule BENCHMARK.json's bounds were
# derived with: max(5 %, 2 x largest gap, 3 x largest spread), where
# setup_s ignores the spread, capped at 25 %.
set -euo pipefail

root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
sets=2
runs=3
seconds=20
while (( $# > 0 )); do
  case "$1" in
    --sets) sets="$2"; shift 2 ;;
    --runs) runs="$2"; shift 2 ;;
    --seconds) seconds="$2"; shift 2 ;;
    *) echo "usage: $0 [--sets N] [--runs N] [--seconds S]" >&2; exit 2 ;;
  esac
done

out="${CARGO_TARGET_DIR:-$root/.bench_build}/stability"
rm -rf "$out"
mkdir -p "$out"
mapfile -t workloads < <(bash "$root/benchmark/run.sh" --list)

for (( set = 1; set <= sets; ++set )); do
  order=("${workloads[@]}")
  if (( set % 2 == 0 )); then
    order=()
    for (( i = ${#workloads[@]} - 1; i >= 0; --i )); do
      order+=("${workloads[i]}")
    done
  fi
  for (( seed = 1; seed <= runs; ++seed )); do
    for w in "${order[@]}"; do
      echo "set $set seed $seed $w" >&2
      bash "$root/benchmark/run.sh" --workload "$w" --seed "$seed" \
        --seconds "$seconds" --trace 0 2>/dev/null | tail -n 1 \
        >> "$out/set$set.$w.jsonl"
    done
  done
done

python3 - "$root/BENCHMARK.json" "$out" "$sets" "${workloads[@]}" <<'EOF'
import json, statistics, sys

spec = json.load(open(sys.argv[1]))
out, sets, workloads = sys.argv[2], int(sys.argv[3]), sys.argv[4:]
ok = True
print(f"{'workload':18} {'metric':16} {'bound':>6} {'gap':>7} {'spread':>7} "
      f"{'suggest':>7}  set medians")
for w in workloads:
    results = []
    for s in range(1, sets + 1):
        lines = [json.loads(l) for l in open(f"{out}/set{s}.{w}.jsonl")]
        if not all(r["correct"] for r in lines):
            print(f"{w}: a run reported correct=false")
            ok = False
        results.append(lines)
    for m in spec["end_to_end"]:
        name, bound = m["name"], m["bound"]
        series = [[r["metrics"][name]["value"] for r in rs] for rs in results]
        medians = [statistics.median(v) for v in series]
        gap = (max(medians) - min(medians)) / min(medians)
        spread = 0.0
        if all(len(v) >= 2 for v in series):
            spread = max((q[2] - q[0]) / statistics.median(v)
                         for v in series
                         for q in [statistics.quantiles(v, n=4)])
        gated_spread = 0.0 if name == "setup_s" else spread
        bad = gap > bound or gated_spread > bound
        ok = ok and not bad
        suggest = min(0.25, max(0.05, 2 * gap, 3 * gated_spread))
        print(f"{w:18} {name:16} {bound:6.3f} {gap:7.3%} {spread:7.3%} "
              f"{suggest:7.3f}  "
              + " ".join(f"{x:.6g}" for x in medians)
              + ("  FAIL" if bad else ""))
print("stability:", "PASS" if ok else "FAIL")
sys.exit(0 if ok else 1)
EOF
