#!/usr/bin/env bash
# Builds the benchmark from source and runs it, keeping every file the Go
# toolchain writes (build cache, temporary files, telemetry) under
# .bench_build in the checkout. Run it from the root of a checkout:
#
#   bash benchmark/run.sh --workload classic --seed 1 --seconds 20 --trace 0
#
# Arguments go to the benchmark unchanged; see benchmark/README.md.
set -euo pipefail

if [[ ! -f go.mod || ! -d internal || ! -f benchmark/main.go ]]; then
	echo "run.sh: run this from the root of a pchls checkout" >&2
	exit 2
fi

build="$PWD/.bench_build"
mkdir -p "$build/tmp" "$build/config"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" GOPATH="$build/gopath" \
	GOMODCACHE="$build/gopath/pkg/mod" XDG_CONFIG_HOME="$build/config" \
	GOTOOLCHAIN=local GOWORK=off GOENV=off GOFLAGS=

go build -o "$build/pchls-bench" ./benchmark
exec "$build/pchls-bench" "$@"
