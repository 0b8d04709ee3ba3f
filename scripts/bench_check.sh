#!/usr/bin/env bash
# Gates machine-simulation throughput: compares a freshly measured
# BENCH_machine.json to a baseline and fails if machine_insts_per_sec
# regressed by more than 10%. Only a baseline measured on the same host
# means anything. CI measures one from the merge-base with main in a git
# worktree, then HEAD, and passes the first as the baseline; locally the
# same steps reproduce the gate:
#
#   git worktree add ../bench-base "$(git merge-base HEAD origin/main)"
#   (cd ../bench-base && scripts/bench.sh && cp BENCH_machine.json "$OLDPWD/BENCH_base.json")
#   scripts/bench.sh && scripts/bench_check.sh BENCH_base.json
#
# Without a baseline argument it falls back to the BENCH_machine.json
# committed at HEAD, which is valid only on the host that recorded it.
#
#   scripts/bench_check.sh [baseline.json] [measured.json]
set -euo pipefail
cd "$(dirname "$0")/.."

measured="${2:-BENCH_machine.json}"

extract() {
  awk -F': ' '/"machine_insts_per_sec"/ {gsub(/[,[:space:]]/, "", $2); print $2}' "$1"
}

if [[ -n "${1:-}" ]]; then
  base="$(extract "$1")"
else
  base="$(git show HEAD:BENCH_machine.json | awk -F': ' '/"machine_insts_per_sec"/ {gsub(/[,[:space:]]/, "", $2); print $2}')"
fi
new="$(extract "$measured")"

if [[ -z "$base" || -z "$new" ]]; then
  echo "bench_check: could not extract machine_insts_per_sec (base='$base', new='$new')" >&2
  exit 2
fi

awk -v base="$base" -v new="$new" 'BEGIN {
  floor = base * 0.9
  printf "machine_insts_per_sec: baseline %d, measured %d (floor %d)\n", base, new, floor
  if (new + 0 < floor) {
    printf "bench_check: FAIL — regressed more than 10%% vs baseline\n"
    exit 1
  }
  printf "bench_check: OK\n"
}'
