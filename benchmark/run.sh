#!/usr/bin/env bash
# Builds pgasnb_benchmark (Release) and runs it from the repository root.
#
#   bash benchmark/run.sh --workload kv-read-zipf --seed 1 --seconds 20 --trace 0
#   bash benchmark/run.sh [--seconds 20] [--trace 1]   # every workload in turn
#
# With --workload (or --list) the program runs once and the last line of
# stdout is its JSON result. Without it every workload runs in its own
# process and the exit status is non-zero if any of them failed. Build
# output goes to stderr. The build lives in ${CARGO_TARGET_DIR:-.bench_build}.
set -euo pipefail

root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
out="${CARGO_TARGET_DIR:-$root/.bench_build}"
build="$out/pgasnb-benchmark"
jobs="$(nproc 2>/dev/null || echo 2)"
(( jobs > 4 )) && jobs=4

cmake -S "$root/benchmark" -B "$build" -DCMAKE_BUILD_TYPE=Release >&2
cmake --build "$build" --target pgasnb_benchmark -j "$jobs" >&2

bin="$build/pgasnb_benchmark"
sha="$(git -C "$root" rev-parse --short=12 HEAD 2>/dev/null || echo unknown)"
common=(--trace-dir "$out/trace" --git-sha "$sha")

for arg in "$@"; do
  case "$arg" in
    --workload|--workload=*|--list) exec "$bin" "${common[@]}" "$@" ;;
  esac
done

status=0
while read -r workload; do
  echo "== $workload"
  "$bin" "${common[@]}" --workload "$workload" "$@" || status=1
done < <("$bin" --list)
exit "$status"
