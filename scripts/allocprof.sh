#!/bin/sh
# Per-experiment allocation profile: runs the bench harness (quick
# configuration, sequential+parallel pass) and turns the per-experiment
# Gc deltas into CSV on stdout:
#
#   experiment,minor_words,major_words,invalidations,forwards,cross_socket_probes,probes,dir_high_water
#
# Usage: scripts/allocprof.sh [EXPERIMENT_IDS] [MINOR_WORDS_BUDGET]
#
#   EXPERIMENT_IDS      comma-separated ids passed to --only
#                       (default: the @perf-smoke set)
#   MINOR_WORDS_BUDGET  optional: also assert the summed sequential-pass
#                       minor words stay at or below this budget (the
#                       same gate @perf-smoke wires in via
#                       --max-minor-words); non-zero exit on breach.
set -eu
cd "$(dirname "$0")/.."

IDS="${1:-fig9,tab1,abl-wins,abl-backoff,abl-socket}"
BUDGET="${2:-0}"

dune build bench/main.exe 2>/dev/null

out=$(mktemp)
json=$(mktemp)
trap 'rm -f "$out" "$json"' EXIT

_build/default/bench/main.exe --quick --only "$IDS" \
  --out "$json" --csv "$(mktemp -d)" > "$out"

echo "experiment,minor_words,major_words,invalidations,forwards,cross_socket_probes,probes,dir_high_water"
# [alloc <id> minor_words=N major_words=N invalidations=N forwards=N
#  cross_socket_probes=N probes=N dir_high_water=N]
sed -n 's/^\[alloc \([^ ]*\) minor_words=\([0-9]*\) major_words=\([0-9]*\) invalidations=\([0-9]*\) forwards=\([0-9]*\) cross_socket_probes=\([0-9]*\) probes=\([0-9]*\) dir_high_water=\([0-9]*\)\]$/\1,\2,\3,\4,\5,\6,\7,\8/p' \
  "$out"

total=$(sed -n 's/^\[alloc [^ ]* minor_words=\([0-9]*\) .*/\1/p' "$out" \
  | awk '{ s += $1 } END { printf "%d", s }')
echo "total,$total,,,,,,"

if [ "$BUDGET" -gt 0 ] 2>/dev/null; then
  if [ "$total" -gt "$BUDGET" ]; then
    echo "allocprof: FAIL: $total minor words > budget $BUDGET" >&2
    exit 1
  fi
  echo "allocprof: ok ($total minor words <= budget $BUDGET)" >&2
fi
