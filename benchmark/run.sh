#!/usr/bin/env bash
# Builds the benchmark harness from this checkout's sources and runs it from
# the repository root, passing every argument through:
#
#   bash benchmark/run.sh -seed 1
#   bash benchmark/run.sh --workload serve-paced --seed 3 --seconds 15 --trace 1
#   bash benchmark/run.sh compare setA/ setB/
#
# The Go build cache, temporary files, the module cache, the go command's
# configuration and telemetry counters (under XDG_CONFIG_HOME) and every build
# product stay under .bench_build/ in the checkout; the toolchain installed is
# used as it is and nothing is fetched from the network.
set -euo pipefail
cd "$(dirname "$0")/.."
out="$PWD/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOMODCACHE="$out/gomodcache" \
	XDG_CONFIG_HOME="$out/config" GOTOOLCHAIN=local GOPROXY=off
(cd benchmark && go build -buildvcs=false -o "$out/wimi-benchmark" .)
exec "$out/wimi-benchmark" "$@"
