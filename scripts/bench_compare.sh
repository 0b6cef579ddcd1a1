#!/usr/bin/env bash
# Benchmark regression gate: re-runs the checked-in benchmark suites and
# diffs ns/op and allocs/op against results/BENCH_*.json via
# scripts/benchcompare. Exits nonzero when any metric regresses more than
# BENCH_TOLERANCE (fractional, default 0.20).
#
# Lanes (BENCH_LANES, space-separated, default all): synth server
# portfolio pareto scaling cluster. The scaling lane gates the n=100/300 tiers of
# BenchmarkScaling by default; with PCHLS_SCALING_FULL=1 it also runs
# the n=1000 tiers — including two ~20-minute legacy passes — and enforces
# the legacy-over-scale speedup floors (make bench-scaling).
#
# Usage: scripts/bench_compare.sh   (or: make bench-compare / bench-scaling)
set -euo pipefail
cd "$(dirname "$0")/.."

TOL="${BENCH_TOLERANCE:-0.20}"
LANES="${BENCH_LANES:-synth server portfolio pareto scaling cluster}"
OUT="$(mktemp -d)"
trap 'rm -rf "$OUT"' EXIT

has_lane() { [[ " $LANES " == *" $1 "* ]]; }
ARGS=(-tolerance "$TOL")

# -count 2: the comparer keeps the last occurrence, so the first pass is
# warmup — the very first sub-benchmark of a fresh process is otherwise
# up to ~2x slower than steady state and trips the ns/op gate spuriously.
if has_lane synth; then
    echo "== BenchmarkSynthesize (-benchtime 20x -benchmem -count 2)"
    go test -run '^$' -bench 'BenchmarkSynthesize$' -benchtime 20x -benchmem -count 2 . | tee "$OUT/synth.txt"
    ARGS+=(-synth results/BENCH_synthesize.json -synthout "$OUT/synth.txt")
fi

if has_lane server; then
    echo "== BenchmarkServerSynthesize (-benchtime 50x -benchmem -count 2)"
    go test -run '^$' -bench 'BenchmarkServerSynthesize' -benchtime 50x -benchmem -count 2 ./internal/server | tee "$OUT/server.txt"
    ARGS+=(-server results/BENCH_server.json -serverout "$OUT/server.txt")
fi

if has_lane portfolio; then
    echo "== BenchmarkAnytimePortfolio (-benchtime 10x -benchmem -count 2)"
    go test -run '^$' -bench 'BenchmarkAnytimePortfolio' -benchtime 10x -benchmem -count 2 . | tee "$OUT/portfolio.txt"
    ARGS+=(-portfolio results/BENCH_portfolio.json -portfolioout "$OUT/portfolio.txt")
fi

if has_lane pareto; then
    echo "== BenchmarkPareto (-benchtime 20x -benchmem -count 2)"
    go test -run '^$' -bench 'BenchmarkPareto$' -benchtime 20x -benchmem -count 2 ./internal/explore | tee "$OUT/pareto.txt"
    ARGS+=(-pareto results/BENCH_pareto.json -paretoout "$OUT/pareto.txt")
fi

if has_lane scaling; then
    # Go's -bench regex matches each /-element as an unanchored substring,
    # so the tier names must be ^...$-anchored ("layered-n100" would
    # otherwise also select layered-n1000).
    echo "== BenchmarkScaling n100/n300 + connected n1000 tiers (-benchtime 1x -benchmem -count 2)"
    go test -run '^$' -bench 'BenchmarkScaling/^(layered-n100|layered-n300|blocks-n300|layered-n1000-connected|mixed-n1000-connected)$' \
        -benchtime 1x -benchmem -count 2 -timeout 30m ./internal/core | tee "$OUT/scaling.txt"
    SCALING_TIERS="layered-n100,layered-n300,blocks-n300,layered-n1000-connected,mixed-n1000-connected"
    if [[ "${PCHLS_SCALING_FULL:-}" == "1" ]]; then
        echo "== BenchmarkScaling n1000 tiers incl. exhaustive legacy (-benchtime 1x; each legacy pass takes ~20 min)"
        PCHLS_SCALING_FULL=1 go test -run '^$' -bench 'BenchmarkScaling/^(layered-n1000|blocks-n1000)$' \
            -benchtime 1x -benchmem -timeout 90m ./internal/core | tee -a "$OUT/scaling.txt"
        SCALING_TIERS="" # empty = gate every tier in the baseline
    fi
    ARGS+=(-scaling results/BENCH_scaling.json -scalingout "$OUT/scaling.txt" -scalingtiers "$SCALING_TIERS")
fi

if has_lane cluster; then
    # Service time is simulated (fixed per-point sleeps), so this lane's
    # ns/op is stable without -benchmem or a large -benchtime.
    echo "== BenchmarkCluster (-benchtime 5x -count 2)"
    go test -run '^$' -bench 'BenchmarkCluster$' -benchtime 5x -count 2 ./internal/server | tee "$OUT/cluster.txt"
    ARGS+=(-cluster results/BENCH_cluster.json -clusterout "$OUT/cluster.txt")
fi

echo "== compare vs results/BENCH_*.json (tolerance ${TOL})"
go run ./scripts/benchcompare "${ARGS[@]}"
