#!/usr/bin/env bash
# A/B run of benchmark workloads: a committed revision against the working
# tree, in alternating parent/change pairs.
#
#   scripts/ab_bench.sh <workload|all> [pairs] [seconds] [rev]
#   scripts/ab_bench.sh kv-read-zipf 5 8 HEAD~1
#   scripts/ab_bench.sh all 5 8            # every workload in BENCHMARK.json
#
# `rev` (default HEAD) is exported with `git archive` into a temporary
# directory; the working tree is the change. Each side builds once, into
# its own CARGO_TARGET_DIR under that directory, outside benchmark/. Every
# pair runs `benchmark/run.sh --workload <w> --seed <seed> --seconds <s>
# --trace 0` once per side; odd pairs run the parent first, even pairs the
# change. Per workload and end-to-end metric of BENCHMARK.json the report
# gives the parent and change medians, the parent's interquartile range,
# the median change/parent ratio, the bound, how many pairs the change
# won, and whether the median ratio moved past the bound (WORSE /
# better). A one-line summary per workload follows the tables. The exit
# status is 1 if any metric of any workload reads WORSE.
#
# Environment: AB_SEED (default 1) seeds every run; AB_WORKDIR keeps the
# exported tree and both builds in that directory across invocations
# (incremental rebuilds) instead of a fresh temporary one.
set -euo pipefail

if [[ $# -lt 1 ]]; then
  echo "usage: $0 <workload|all> [pairs] [seconds] [rev]" >&2
  exit 2
fi
target="$1"
pairs="${2:-5}"
seconds="${3:-8}"
rev="${4:-HEAD}"
seed="${AB_SEED:-1}"

root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
spec="$root/BENCHMARK.json"
if [[ -n "${AB_WORKDIR:-}" ]]; then
  work="$AB_WORKDIR"
  mkdir -p "$work"
else
  work="$(mktemp -d "${TMPDIR:-/tmp}/ab_bench.XXXXXX")"
  trap 'rm -rf "$work"' EXIT
fi

if [[ "$target" == all ]]; then
  mapfile -t workloads < <(python3 -c '
import json, sys
for w in json.load(open(sys.argv[1]))["workloads"]:
    print(w["name"])' "$spec")
else
  workloads=("$target")
fi

# The parent tree: a clean export of `rev` (no git metadata is touched).
rm -rf "$work/parent"
mkdir -p "$work/parent"
git -C "$root" archive "$rev" | tar -x -C "$work/parent"

run_side() {  # <workload> <tree> <target-dir> -> JSON line on stdout
  CARGO_TARGET_DIR="$3" bash "$2/benchmark/run.sh" --workload "$1" \
    --seed "$seed" --seconds "$seconds" --trace 0 2>/dev/null | tail -n 1
}

# Build both sides up front so no pair pays a compile.
for side in parent change; do
  tree="$root"
  [[ "$side" == parent ]] && tree="$work/parent"
  echo "building $side (log: $work/build-$side.log)" >&2
  CARGO_TARGET_DIR="$work/build-$side" bash "$tree/benchmark/run.sh" --list \
    >/dev/null 2>"$work/build-$side.log"
done

summary="$work/summary.txt"
: >"$summary"
status=0
for workload in "${workloads[@]}"; do
  results="$work/results-$workload.jsonl"
  : >"$results"
  for ((i = 1; i <= pairs; ++i)); do
    if ((i % 2 == 1)); then
      p="$(run_side "$workload" "$work/parent" "$work/build-parent")"
      c="$(run_side "$workload" "$root" "$work/build-change")"
    else
      c="$(run_side "$workload" "$root" "$work/build-change")"
      p="$(run_side "$workload" "$work/parent" "$work/build-parent")"
    fi
    printf '{"pair": %d, "parent": %s, "change": %s}\n' "$i" "$p" "$c" \
      >>"$results"
    echo "$workload: pair $i/$pairs done" >&2
  done

  if ! python3 - "$spec" "$results" "$workload" "$rev" "$summary" <<'EOF'; then
import json, statistics, sys

spec = json.load(open(sys.argv[1]))
pairs = [json.loads(line) for line in open(sys.argv[2])]
workload, rev, summary = sys.argv[3], sys.argv[4], sys.argv[5]
print(f"{workload}: {len(pairs)} pairs, parent={rev}, change=working tree")
for side in ("parent", "change"):
    failed = [p[side].get("failed", 0) for p in pairs]
    correct = all(p[side].get("correct") for p in pairs)
    print(f"  {side}: correct={correct} failed={failed}")
print(f"  {'metric':<16} {'parent':>12} {'change':>12} {'par IQR':>10} "
      f"{'ratio':>7} {'bound':>6} {'wins':>5}  verdict")
worse_names, better_names = [], []
for m in spec["end_to_end"]:
    name, bound, higher = m["name"], m["bound"], m["better"] == "higher"
    par = [p["parent"]["metrics"][name]["value"] for p in pairs]
    chg = [p["change"]["metrics"][name]["value"] for p in pairs]
    ratio = statistics.median(c / p for p, c in zip(par, chg))
    q = statistics.quantiles(par, n=4) if len(par) > 1 else [par[0]] * 3
    iqr = q[2] - q[0]
    wins = sum((c > p) if higher else (c < p) for p, c in zip(par, chg))
    worse = ratio < 1 - bound if higher else ratio > 1 + bound
    better = ratio > 1 + bound if higher else ratio < 1 - bound
    verdict = "WORSE" if worse else ("better" if better else "within bound")
    if worse:
        worse_names.append(f"{name} {ratio:.3f}")
    if better:
        better_names.append(f"{name} {ratio:.3f}")
    print(f"  {name:<16} {statistics.median(par):>12.4g} "
          f"{statistics.median(chg):>12.4g} {iqr:>10.3g} {ratio:>7.3f} "
          f"{bound:>6.2f} "
          f"{wins:>2}/{len(pairs):<2}  {verdict}")
failed = sum(p["change"].get("failed", 0) for p in pairs)
incorrect = not all(p["change"].get("correct") for p in pairs)
line = (f"{workload}: {'WORSE ' + ', '.join(worse_names) if worse_names else 'ok'}"
        f"; better: {', '.join(better_names) or 'none'}"
        f"; change failed={failed}{' INCORRECT' if incorrect else ''}")
with open(summary, "a") as f:
    f.write(line + "\n")
sys.exit(1 if worse_names or incorrect or failed else 0)
EOF
    status=1
  fi
done

echo "summary (parent=$rev, change=working tree, $pairs pairs, ${seconds}s):"
cat "$summary"
exit "$status"
