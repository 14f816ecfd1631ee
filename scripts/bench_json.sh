#!/usr/bin/env bash
# Runs figure benches and converts their tables into BENCH_<name>.json so
# the performance trajectory is recorded mechanically (CI uploads them).
#
#   scripts/bench_json.sh                      # default bench set, --quick
#   scripts/bench_json.sh fig8_aggregated_retire fig3_atomics_shared
#   PGASNB_BENCH_ARGS="--bench-scale 2" scripts/bench_json.sh ...
#   PGASNB_BENCH_OUT=out scripts/bench_json.sh # where the .json files land
#
# Each output file holds {"bench", "args", "rows": [...]}, one row object
# per table row (figure/series/x/wall_s/model_s/notes). Exits non-zero if a
# bench fails (fig8 enforces its acceptance criterion itself).
set -euo pipefail

cd "$(dirname "$0")/.."

BUILD_DIR="${PGASNB_BUILD_DIR:-build}"
OUT_DIR="${PGASNB_BENCH_OUT:-.}"
BENCH_ARGS="${PGASNB_BENCH_ARGS:---quick}"

# Reclamation knob: pin the default explicitly so recorded runs are
# reproducible even if the config default moves later. Override it in the
# environment to sweep.
export PGASNB_INTERVAL_ERA_FREQ="${PGASNB_INTERVAL_ERA_FREQ:-128}"

BENCHES=("$@")
if [[ ${#BENCHES[@]} -eq 0 ]]; then
  BENCHES=(fig4_sparse_reclaim fig8_aggregated_retire fig9_async_pop ablation_scatter_list ycsb_like epoch_engine)
fi

mkdir -p "$OUT_DIR"

table_to_json_rows() {
  # Parses TablePrinter output: "cell | cell | ..." rows, first such line is
  # the header; the dashed rule and prose lines have no " | " separator.
  awk -F' \\| ' '
    function trim(s) { gsub(/^[ \t]+|[ \t]+$/, "", s); return s }
    function jesc(s) { gsub(/\\/, "\\\\", s); gsub(/"/, "\\\"", s); return s }
    NF < 2 { next }
    !header_seen { for (i = 1; i <= NF; i++) h[i] = trim($i); header_seen = 1; next }
    {
      row = ""
      for (i = 1; i <= NF && i in h; i++) {
        if (row != "") row = row ", "
        row = row "\"" jesc(h[i]) "\": \"" jesc(trim($i)) "\""
      }
      printf "%s    {%s}", sep, row
      sep = ",\n"
    }
    END { if (sep != "") printf "\n" }
  '
}

status=0
for bench in "${BENCHES[@]}"; do
  bin="$BUILD_DIR/bench_$bench"
  if [[ ! -x "$bin" ]]; then
    echo "bench_json: missing $bin (build with -DPGASNB_BUILD_BENCH=ON)" >&2
    status=1
    continue
  fi
  echo "bench_json: running $bench $BENCH_ARGS"
  out_file="$OUT_DIR/BENCH_${bench}.json"
  bench_status=ok
  # shellcheck disable=SC2086  # BENCH_ARGS is intentionally word-split
  if ! raw=$("$bin" $BENCH_ARGS); then
    echo "bench_json: $bench FAILED" >&2
    bench_status=failed
    status=1
  fi
  # The artifact records the outcome explicitly so a failed run's partial
  # rows can never masquerade as a healthy data point.
  {
    printf '{\n  "bench": "%s",\n  "args": "%s",\n  "status": "%s",\n  "rows": [\n' \
      "$bench" "$BENCH_ARGS" "$bench_status"
    printf '%s' "$raw" | table_to_json_rows
    printf '  ]\n}\n'
  } > "$out_file"
  echo "bench_json: wrote $out_file ($bench_status)"
done
exit "$status"
