#!/usr/bin/env bash
# A/B run of one benchmark workload: a committed revision against the
# working tree, in alternating parent/change pairs.
#
#   scripts/ab_bench.sh <workload> [pairs] [seconds] [rev]
#   scripts/ab_bench.sh kv-read-zipf 5 8 HEAD~1
#
# `rev` (default HEAD) is exported with `git archive` into a temporary
# directory; the working tree is the change. Each side builds into its own
# CARGO_TARGET_DIR under that directory, outside benchmark/. Every pair
# runs `benchmark/run.sh --workload <w> --seed <seed> --seconds <s>
# --trace 0` once per side; odd pairs run the parent first, even pairs the
# change. Per end-to-end metric of BENCHMARK.json the report gives the
# parent and change medians, the parent's interquartile range, the median
# change/parent ratio, the bound, how many pairs the change won, and
# whether the median ratio moved past the bound (WORSE / better).
#
# Environment: AB_SEED (default 1) seeds every run; AB_WORKDIR keeps the
# exported tree and both builds in that directory across invocations
# (incremental rebuilds) instead of a fresh temporary one.
set -euo pipefail

if [[ $# -lt 1 ]]; then
  echo "usage: $0 <workload> [pairs] [seconds] [rev]" >&2
  exit 2
fi
workload="$1"
pairs="${2:-5}"
seconds="${3:-8}"
rev="${4:-HEAD}"
seed="${AB_SEED:-1}"

root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
if [[ -n "${AB_WORKDIR:-}" ]]; then
  work="$AB_WORKDIR"
  mkdir -p "$work"
else
  work="$(mktemp -d "${TMPDIR:-/tmp}/ab_bench.XXXXXX")"
  trap 'rm -rf "$work"' EXIT
fi

# The parent tree: a clean export of `rev` (no git metadata is touched).
rm -rf "$work/parent"
mkdir -p "$work/parent"
git -C "$root" archive "$rev" | tar -x -C "$work/parent"

run_side() {  # <tree> <target-dir> -> JSON line on stdout
  CARGO_TARGET_DIR="$2" bash "$1/benchmark/run.sh" --workload "$workload" \
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

results="$work/results.jsonl"
: >"$results"
for ((i = 1; i <= pairs; ++i)); do
  if ((i % 2 == 1)); then
    p="$(run_side "$work/parent" "$work/build-parent")"
    c="$(run_side "$root" "$work/build-change")"
  else
    c="$(run_side "$root" "$work/build-change")"
    p="$(run_side "$work/parent" "$work/build-parent")"
  fi
  printf '{"pair": %d, "parent": %s, "change": %s}\n' "$i" "$p" "$c" \
    >>"$results"
  echo "pair $i/$pairs done" >&2
done

python3 - "$root/BENCHMARK.json" "$results" "$workload" "$rev" <<'EOF'
import json, statistics, sys

spec = json.load(open(sys.argv[1]))
pairs = [json.loads(line) for line in open(sys.argv[2])]
workload, rev = sys.argv[3], sys.argv[4]
print(f"{workload}: {len(pairs)} pairs, parent={rev}, change=working tree")
for side in ("parent", "change"):
    failed = [p[side].get("failed", 0) for p in pairs]
    correct = all(p[side].get("correct") for p in pairs)
    print(f"  {side}: correct={correct} failed={failed}")
print(f"  {'metric':<16} {'parent':>12} {'change':>12} {'par IQR':>10} "
      f"{'ratio':>7} {'bound':>6} {'wins':>5}  verdict")
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
    print(f"  {name:<16} {statistics.median(par):>12.4g} "
          f"{statistics.median(chg):>12.4g} {iqr:>10.3g} {ratio:>7.3f} "
          f"{bound:>6.2f} "
          f"{wins:>2}/{len(pairs):<2}  {verdict}")
EOF
