#!/usr/bin/env bash
# Reach report: which src/ code do the programs that use the library run?
#
#   scripts/reach.sh                      # build in build-reach/, report
#   PGASNB_REACH_DIR=out scripts/reach.sh # custom build directory
#
# Builds the library, the figure and ablation benches, the examples and the
# repository benchmark (benchmark/) with `--coverage -O1`. The flags go on
# the cmake command line, so no build file is edited. Then it runs the
# benchmark's workloads briefly, every bench under --quick and every example
# (no test runs), and reads the counts back with gcov. It prints each src/
# function that never ran, the never-run lines per file, and the total.
#
# Only instrumented lines count: a template that is never instantiated, or
# a translation unit that no program links, emits no code and so does not
# show up at all. The list is a lower bound on what nothing reaches.
# Report only: the exit status is non-zero only if a build, a run or the
# gcov read-back fails (a read-back that finds no src/ line is a failure).
set -euo pipefail

root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
dir="${PGASNB_REACH_DIR:-$root/build-reach}"
mkdir -p "$dir"
dir="$(cd "$dir" && pwd)"
seconds=0.5
jobs="$(nproc 2>/dev/null || echo 2)"
(( jobs > 4 )) && jobs=4
flags=(-DCMAKE_BUILD_TYPE=Coverage "-DCMAKE_CXX_FLAGS=--coverage -O1")

# --- build -------------------------------------------------------------------
targets=()
for f in "$root"/bench/*.cpp; do
  targets+=(--target "bench_$(basename "$f" .cpp)")
done
for f in "$root"/examples/*.cpp; do
  targets+=(--target "example_$(basename "$f" .cpp)")
done
cmake -S "$root" -B "$dir/main" "${flags[@]}" >/dev/null
cmake --build "$dir/main" -j "$jobs" "${targets[@]}" >/dev/null
cmake -S "$root/benchmark" -B "$dir/benchmark" "${flags[@]}" >/dev/null
cmake --build "$dir/benchmark" -j "$jobs" --target pgasnb_benchmark >/dev/null

# Counts from an earlier run would add up with this one's.
find "$dir" -name '*.gcda' -delete

# --- run ---------------------------------------------------------------------
bin="$dir/benchmark/pgasnb_benchmark"
while read -r workload; do
  echo "run: benchmark --workload $workload" >&2
  "$bin" --workload "$workload" --seed 1 --seconds "$seconds" --trace 0 \
    --trace-dir "$dir/trace" >/dev/null
done < <("$bin" --list)
for f in "$root"/bench/*.cpp; do
  name="bench_$(basename "$f" .cpp)"
  echo "run: $name --quick" >&2
  "$dir/main/$name" --quick >/dev/null
done
for f in "$root"/examples/*.cpp; do
  name="example_$(basename "$f" .cpp)"
  args=()
  # The same arguments ctest gives it (CMakeLists.txt).
  [[ "$name" == example_epoch_list_churn ]] && args=(--seconds=0.5)
  echo "run: $name ${args[*]}" >&2
  "$dir/main/$name" "${args[@]}" >/dev/null
done

# --- report ------------------------------------------------------------------
# One gcov JSON document per object file; a src/ line or function counts as
# reached if any object file ran it.
find "$dir" -name '*.gcda' | while read -r gcda; do
  gcov --json-format --stdout -o "$(dirname "$gcda")" "$gcda"
done | python3 -c '
import json, os, sys
from collections import defaultdict

src = os.path.join(sys.argv[1], "src") + os.sep
lines = defaultdict(int)   # (file, line) -> max count over objects
funcs = defaultdict(int)   # (file, line, name) -> summed count
for doc in sys.stdin:
    doc = doc.strip()
    if not doc:
        continue
    for f in json.loads(doc)["files"]:
        path = os.path.realpath(f["file"])
        if not path.startswith(src):
            continue
        rel = "src/" + path[len(src):]
        for ln in f["lines"]:
            key = (rel, ln["line_number"])
            lines[key] = max(lines[key], ln["count"])
        for fn in f["functions"]:
            funcs[(rel, fn["start_line"], fn["demangled_name"])] += \
                fn["execution_count"]

print("never-run src/ functions:")
for (rel, line, name), count in sorted(funcs.items()):
    if count == 0:
        print(f"  {rel}:{line}  {name[:150]}")
per_file = defaultdict(int)
for (rel, _), count in lines.items():
    if count == 0:
        per_file[rel] += 1
print("never-run src/ lines per file:")
for rel, n in sorted(per_file.items(), key=lambda kv: (-kv[1], kv[0])):
    print(f"  {n:5d}  {rel}")
unreached = sum(per_file.values())
print(f"reach: {len(lines)} instrumented src/ lines, {unreached} never run")
if not lines:
    sys.exit("reach: gcov read back no src/ line; the measurement failed")
' "$root"
