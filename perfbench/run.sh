#!/usr/bin/env bash
# Builds the benchmark from the checkout's sources, then runs it with the
# arguments given. Run from the root of the repository:
#
#   bash perfbench/run.sh --workload scan --seed 1 --seconds 10 --trace 0
#
# Everything the build and the run write stays under .bench_build/ in the
# current directory: the Go build cache, and the Go command's user
# configuration (telemetry counters included), too.
set -euo pipefail
out="$(pwd)/.bench_build/perfbench"
mkdir -p "$out/gocache" "$out/gotmp" "$out/modcache" "$out/config"
export GOCACHE="$out/gocache" GOTMPDIR="$out/gotmp" GOMODCACHE="$out/modcache"
export XDG_CONFIG_HOME="$out/config"
export GOTOOLCHAIN=local GOWORK=off GOFLAGS=
go -C perfbench build -o "$out/perfbench" .
exec "$out/perfbench" --workdir "$out" "$@"
