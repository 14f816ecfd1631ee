#!/usr/bin/env bash
# Docs verifier: the documentation must not rot.
#
#   scripts/check_docs.sh          # check README.md + docs/*.md
#
# Three checks, all hard failures:
#   1. Every fenced ```cpp block is extracted into a generated TU (one per
#      markdown file; each block becomes the body of its own function,
#      #include lines hoisted to the top) and compiled with
#      `g++ -std=c++20 -fsyntax-only -Isrc`. Snippets are therefore
#      written in *function-body style*: statements and local declarations,
#      no top-level definitions.
#   2. Every intra-repo markdown link target (relative [text](path) links,
#      #anchors stripped) must exist on disk.
#   3. The "Environment variables" table in docs/API.md must list exactly
#      the PGASNB_* variables RuntimeConfig::fromEnv() reads
#      (envOrNull("PGASNB_...") in src/runtime/config.cpp).
#
# CI runs this on every push/PR (the `docs` job); run it locally before
# touching docs/.
set -euo pipefail

cd "$(dirname "$0")/.."

CXX="${CXX:-g++}"
OUT_DIR="${PGASNB_DOCS_BUILD:-build-docs}"
mkdir -p "$OUT_DIR"

DOCS=(README.md docs/*.md)
status=0

# --- 1. snippet compilation --------------------------------------------------

extract_snippets() {
  # stdin: markdown; stdout: a TU with each ```cpp block wrapped in its own
  # function, #include lines hoisted. $1: sanitized doc name for symbols.
  awk -v doc="$1" '
    BEGIN { n = 0; includes = ""; bodies = "" }
    /^```cpp[ \t]*$/ && !in_block { in_block = 1; n += 1; first_line = NR + 1; body = ""; next }
    /^```[ \t]*$/ && in_block {
      in_block = 0
      bodies = bodies sprintf("// snippet %d (line %d)\ninline void %s_snippet_%d() {\n%s}\n\n", n, first_line, doc, n, body)
      next
    }
    in_block {
      if ($0 ~ /^[ \t]*#include/) includes = includes $0 "\n"
      else body = body $0 "\n"
    }
    END {
      printf "// generated by scripts/check_docs.sh -- do not edit\n"
      printf "#include \"pgasnb.hpp\"\n%s\n%s", includes, bodies
    }
  '
}

for md in "${DOCS[@]}"; do
  doc_sym=$(basename "$md" .md | tr -c 'a-zA-Z0-9' '_')
  tu="$OUT_DIR/snippets_${doc_sym}.cpp"
  extract_snippets "doc_${doc_sym}" < "$md" > "$tu"
  if ! grep -q "_snippet_" "$tu"; then
    continue  # no cpp blocks in this doc
  fi
  echo "check_docs: compiling snippets from $md"
  if ! "$CXX" -std=c++20 -fsyntax-only -Isrc "$tu"; then
    echo "check_docs: SNIPPET COMPILE FAILURE in $md (see $tu)" >&2
    status=1
  fi
done

# --- 2. intra-repo link check ------------------------------------------------

strip_fenced_blocks() {
  # Code blocks are full of `](...)`-shaped lambda captures; links only
  # count in prose.
  awk '/^```/ { fence = !fence; next } !fence' "$1"
}

for md in "${DOCS[@]}"; do
  dir=$(dirname "$md")
  while IFS= read -r target; do
    case "$target" in
      http://*|https://*|mailto:*|"#"*) continue ;;
    esac
    path="${target%%#*}"
    [[ -z "$path" ]] && continue
    if [[ ! -e "$dir/$path" ]]; then
      echo "check_docs: BROKEN LINK in $md -> $target" >&2
      status=1
    fi
  done < <(strip_fenced_blocks "$md" | grep -oE '\]\([^)]+\)' | sed -E 's/^\]\(//; s/\)$//')
done

# --- 3. environment-variable table -------------------------------------------

read_vars=$(grep -oE 'envOrNull\("PGASNB_[A-Z0-9_]+"\)' src/runtime/config.cpp |
            grep -oE 'PGASNB_[A-Z0-9_]+' | sort -u)
documented_vars=$(awk '/^## / { in_env = ($0 == "## Environment variables") }
                       in_env && /^\| `PGASNB_/' docs/API.md |
                  grep -oE 'PGASNB_[A-Z0-9_]+' | sort -u)
if [[ -z "$read_vars" || "$read_vars" != "$documented_vars" ]]; then
  echo "check_docs: ENV TABLE MISMATCH between docs/API.md and src/runtime/config.cpp:" >&2
  diff <(echo "$documented_vars") <(echo "$read_vars") | sed 's/^/  /' >&2 || true
  status=1
fi

if [[ "$status" -eq 0 ]]; then
  echo "check_docs: OK (snippets compile, links resolve, env table matches)"
fi
exit "$status"
