#!/usr/bin/env bash
# Builds the benchmark from source and runs it with the given arguments.
# Run from the repository root: bash benchmark/run.sh --workload tiny-suite
# --seed 1 --seconds 20 --trace 0. Everything the build writes (compiled
# binary, Go build cache) stays under .bench_build/ in the working
# directory; nothing is fetched from the network.
set -euo pipefail
root=$PWD
build=$root/.bench_build
if [ ! -f "$root/go.mod" ] || [ ! -f "$root/benchmark/go.mod" ]; then
	echo "benchmark/run.sh: run from the root of a checkout of the repository (go.mod not found)" >&2
	exit 2
fi
mkdir -p "$build/home" "$build/tmp"
# HOME moves too: the go command keeps telemetry counters under it.
export HOME=$build/home GOCACHE=$build/go-cache GOMODCACHE=$build/go-mod GOTMPDIR=$build/tmp
export GOPROXY=off GOTOOLCHAIN=local GOWORK=off
# Stamp the commit when the checkout is a usable git repository; a
# checkout without one (or one git refuses to read) builds unstamped.
go build -C "$root/benchmark" -o "$build/nfbench" . 2>/dev/null ||
	go build -C "$root/benchmark" -buildvcs=false -o "$build/nfbench" .
exec "$build/nfbench" "$@"
