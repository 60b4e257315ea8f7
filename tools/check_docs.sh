#!/usr/bin/env bash
# Docs consistency check (run by the CI docs job and tools/ci.sh):
#   1. every telemetry metric / span name used in src/ must be documented
#      in docs/METRICS.md, and every name a docs/METRICS.md table lists
#      must still be used in src/;
#   2. every BENCH_*.json at the repo root must be documented;
#   3. no markdown file may contain a dead relative link;
#   4. the fleet journal's record kinds in src/core/fleet.cpp and the
#      record-kind table in docs/ROBUSTNESS.md must list the same kinds;
#   5. every backticked `PredictiveOptions::x`, `ClusteringAccel::x` or
#      `RpClusteringOptions::x` in README.md, DESIGN.md, EXPERIMENTS.md or
#      docs/*.md must name a member its header declares;
#   6. every backticked src/ module path in those files (`quad/simpson`,
#      `beam/wake_batch.cpp`, `src/core/fleet.{hpp,cpp}`, `simt/*`) must
#      name an existing file or directory under src/;
#   7. every function declared in a src/ header must be called from src/,
#      bench/, examples/ or stepbench/ (tools/check_callers.py: only a call
#      or an address-of counts, tests do not count, and an allow-list with
#      a reason per entry exempts a few).
# Pure grep/sed plus one python3 script — no build needed.
set -euo pipefail
cd "$(dirname "$0")/.."

fail=0

# --- 1. metric & span names ------------------------------------------------
# Telemetry names are literal strings by convention (see util/telemetry.hpp),
# so they can be harvested syntactically. The registry/tracer implementation
# and the tests use placeholder names and are excluded.
sources=$(find src -name '*.cpp' -o -name '*.hpp' | grep -v 'util/telemetry')

names=$(
  for f in $sources; do
    grep -hoE '(counter_add|gauge_set|histogram_record|record_complete)\("[^"]+"' "$f" || true
    grep -hoE 'TraceSpan [A-Za-z_]+\("[^"]+"' "$f" || true
    grep -hoE 'BD_TRACE_SPAN\("[^"]+"' "$f" || true
  done | sed -E 's/.*\("([^"]+)".*/\1/' | sort -u
)

if [ -z "$names" ]; then
  echo "check_docs: no telemetry names found in src/ — extraction broken?" >&2
  fail=1
fi

for name in $names; do
  if ! grep -qF "\`$name\`" docs/METRICS.md; then
    echo "check_docs: '$name' is used in src/ but not documented in docs/METRICS.md" >&2
    fail=1
  fi
done

# The reverse direction: a name in the first column of a METRICS.md table
# that src/ no longer emits is a stale row.
documented=$(sed -nE 's/^\| `([^`]+)` \|.*/\1/p' docs/METRICS.md | sort -u)
for name in $documented; do
  if ! grep -qxF "$name" <<< "$names"; then
    echo "check_docs: '$name' is documented in docs/METRICS.md but no longer used in src/" >&2
    fail=1
  fi
done

# --- 2. root bench artifacts must be documented ----------------------------
# Every BENCH_*.json at the repo root is the output of a bench harness and
# must have a matching schema section in docs/BENCHMARKS.md (the literal
# `BENCH_<name>.json`). An artifact nothing documents is an orphan: either
# document it or delete it (and note why in ROADMAP.md).
for bench in BENCH_*.json; do
  [ -e "$bench" ] || continue
  if ! grep -qF "\`$bench\`" docs/BENCHMARKS.md; then
    echo "check_docs: '$bench' sits at the repo root but docs/BENCHMARKS.md has no \`$bench\` section" >&2
    fail=1
  fi
done

# --- 3. dead relative markdown links ---------------------------------------
# [text](target) where target is not absolute, not a URL and not an anchor
# must resolve to a file relative to the markdown file's directory.
while IFS= read -r md; do
  dir=$(dirname "$md")
  links=$(grep -oE '\]\(([^)#][^)]*)\)' "$md" | sed -E 's/^\]\((.*)\)$/\1/' || true)
  for link in $links; do
    case "$link" in
      http://*|https://*|mailto:*|/*) continue ;;
    esac
    target="${link%%#*}"
    [ -z "$target" ] && continue
    if [ ! -e "$dir/$target" ]; then
      echo "check_docs: dead link '$link' in $md" >&2
      fail=1
    fi
  done
# PAPERS.md / SNIPPETS.md hold verbatim extracted paper text and example
# code whose bracket patterns are not real links.
done < <(find . -name '*.md' -not -path './build*' -not -path './.git/*' \
           -not -path './related/*' -not -name 'PAPERS.md' -not -name 'SNIPPETS.md')

# --- 4. fleet journal record kinds -----------------------------------------
# Each `kFailAttempt = 5,` enumerator of RecordKind needs a
# "| `fail_attempt` | 5 |" row in docs/ROBUSTNESS.md, and each such row an
# enumerator.
kinds=$(sed -n '/^enum class RecordKind/,/^};/p' src/core/fleet.cpp |
  sed -nE 's/^ *k([A-Za-z]+) = ([0-9]+),.*/\1 \2/p' |
  while read -r camel value; do
    echo "$(sed -E 's/([a-z0-9])([A-Z])/\1_\2/g' <<< "$camel" | tr 'A-Z' 'a-z') $value"
  done)
if [ -z "$kinds" ]; then
  echo "check_docs: no RecordKind enumerators found in src/core/fleet.cpp — extraction broken?" >&2
  fail=1
fi
documented_kinds=$(sed -nE 's/^\| `([a-z_]+)` \| ([0-9]+) \|.*/\1 \2/p' docs/ROBUSTNESS.md)
while read -r kind; do
  [ -z "$kind" ] && continue
  if ! grep -qxF "$kind" <<< "$documented_kinds"; then
    echo "check_docs: fleet journal record kind '$kind' (src/core/fleet.cpp) has no row in docs/ROBUSTNESS.md's record-kind table" >&2
    fail=1
  fi
done <<< "$kinds"
while read -r kind; do
  [ -z "$kind" ] && continue
  if ! grep -qxF "$kind" <<< "$kinds"; then
    echo "check_docs: record kind '$kind' in docs/ROBUSTNESS.md is not a RecordKind in src/core/fleet.cpp" >&2
    fail=1
  fi
done <<< "$documented_kinds"

# --- 5. documented option members -------------------------------------------
# The member list of a struct is the declarations between its
# `struct Name {` line and the closing `};`, comments stripped.
option_docs=(README.md DESIGN.md EXPERIMENTS.md docs/*.md)
check_members() {
  local struct="$1" header="$2" body member
  body=$(sed -n "/^struct $struct {/,/^};/p" "$header" | sed 's://.*$::')
  if [ -z "$body" ]; then
    echo "check_docs: no 'struct $struct {' in $header — extraction broken?" >&2
    fail=1
    return
  fi
  for member in $(grep -ohE "\`$struct::[A-Za-z_][A-Za-z0-9_]*" "${option_docs[@]}" |
                  sed -E 's/.*:://' | sort -u); do
    if ! grep -qE "[[:space:]*&]$member[[:space:]]*(=[^;]*)?;" <<< "$body"; then
      echo "check_docs: \`$struct::$member\` is documented but $header does not declare it" >&2
      fail=1
    fi
  done
}
check_members PredictiveOptions src/core/predictive.hpp
check_members ClusteringAccel src/core/clustering.hpp
check_members RpClusteringOptions src/core/clustering.hpp

# --- 6. documented src/ module paths ---------------------------------------
# A path is `<dir>/<name>` with <dir> a top-level directory of src/ and an
# optional `src/` prefix. `name.ext` and `name.{hpp,cpp}` must be files;
# a bare `name` (a module) needs name.hpp, name.cpp or a directory;
# `dir/` and `dir/*` need the directory.
src_dirs=$(find src -mindepth 1 -maxdepth 1 -type d -printf '%f\n' | paste -sd'|')
module_paths=$(grep -oHE "\`(src/)?($src_dirs)/[^\`/ ]*\`" "${option_docs[@]}" |
  tr -d '\`' | sort -u)
while IFS=: read -r doc path; do
  [ -z "$path" ] && continue
  rel="src/${path#src/}"
  if [[ "$rel" =~ ^(.*)\{([^}]*)\}$ ]]; then
    IFS=, read -ra exts <<< "${BASH_REMATCH[2]}"
    targets=()
    for ext in "${exts[@]}"; do targets+=("${BASH_REMATCH[1]}$ext"); done
  else
    targets=("$rel")
  fi
  for target in "${targets[@]}"; do
    case "$target" in
      */|*/\*) [ -d "${target%/*}" ] && continue ;;
      *.*) [ -f "$target" ] && continue ;;
      *) { [ -f "$target.hpp" ] || [ -f "$target.cpp" ] || [ -d "$target" ]; } &&
           continue ;;
    esac
    echo "check_docs: $doc names \`$path\`, but $target does not exist" >&2
    fail=1
  done
done <<< "$module_paths"

# --- 7. src/ functions have callers outside tests ---------------------------
python3 tools/check_callers.py || fail=1

if [ "$fail" -ne 0 ]; then
  echo "check_docs: FAILED" >&2
  exit 1
fi
echo "check_docs: OK ($(echo "$names" | wc -l) telemetry names and $(echo "$kinds" | wc -l) journal record kinds documented, option members declared, $(echo "$module_paths" | wc -l) src/ paths exist, links clean)"
