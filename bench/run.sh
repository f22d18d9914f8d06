#!/usr/bin/env bash
# Builds fsperf from this checkout's sources and runs it with the given
# arguments. Run it from the repository root:
#
#   bash bench/run.sh --workload cached-read --seed 1 --seconds 15 --trace 0
#
# Build outputs and the Go build cache stay in .bench_build/ at the root,
# so the benchmark reads and writes nothing outside the checkout. The
# bench module resolves the simulator through `replace repro => ../`, so
# the build fails (and the script exits non-zero) outside a full
# checkout.
set -euo pipefail

root=$(pwd)
build="$root/.bench_build"
mkdir -p "$build/gocache" "$build/gopath" "$build/tmp" "$build/config"
(
	# XDG_CONFIG_HOME keeps the go command's telemetry counters in the
	# checkout too.
	export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOTMPDIR="$build/tmp"
	export XDG_CONFIG_HOME="$build/config"
	export GOFLAGS= GOWORK=off GOTOOLCHAIN=local GOPROXY=off
	cd "$root/bench"
	go build -o "$build/fsperf" ./fsperf
)
exec "$build/fsperf" "$@"
