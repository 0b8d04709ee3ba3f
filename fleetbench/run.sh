#!/usr/bin/env bash
# Builds the fleet-simulator benchmark from source and runs it.
#
#   bash fleetbench/run.sh --workload sweep --seed 1 --seconds 10 --trace 0
#
# Run from the repository root. Everything the build and the run write
# (Go build cache, temp files, the binary, traces and CPU profiles) stays
# under .bench_build/ at the root, or under $CARGO_TARGET_DIR when set.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
out="${CARGO_TARGET_DIR:-.bench_build}"
case "$out" in
/*) ;;
*) out="$root/$out" ;;
esac
mkdir -p "$out/gocache" "$out/gotmp" "$out/gopath" "$out/config"

# XDG_CONFIG_HOME keeps the go command's own files (its env file and
# telemetry counters) inside the checkout too.
export GOCACHE="$out/gocache" GOTMPDIR="$out/gotmp" GOPATH="$out/gopath" XDG_CONFIG_HOME="$out/config"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS=-mod=mod GOWORK=off CGO_ENABLED=0

# Build to a private name, then rename: concurrent runs never exec a
# half-written binary.
bin="$out/fleetbench"
go -C "$here" build -o "$bin.$$" .
mv -f "$bin.$$" "$bin"
exec "$bin" -out "$out/fleetbench-out" "$@"
