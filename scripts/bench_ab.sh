#!/usr/bin/env bash
# Interleaved A/B run of the benchmark: a base revision against this
# checkout (its working tree, uncommitted changes included), on one or more
# workloads, in pairs that alternate which side runs first, so that drift of
# the machine lands on both sides alike. Run it from anywhere inside a
# pchls checkout:
#
#   scripts/bench_ab.sh <base-rev> <workload[,workload...]> <pairs> [first-seed]
#   scripts/bench_ab.sh HEAD~1 large 10                    # seeds 1..10
#   scripts/bench_ab.sh main classic 5 11                  # seeds 11..15
#   scripts/bench_ab.sh HEAD~1 classic,large,serve,fleet 3 # 3 pairs each
#
# The workloads run one after the other, each for the same seeds: pair i
# runs seed first-seed+i-1 (default first seed 1) on both sides with
# `bash benchmark/run.sh --workload W --seed S --trace 0 -out DIR`. The base
# is a `git archive` of the revision unpacked under .bench_build/ab/ and
# removed again on exit, so the script writes nothing into .git. Records of
# every workload go to
# .bench_build/ab/<workloads>-<time>/{base,head}, logs to log/<workload>/;
# after each pair the end-to-end metrics of both sides are printed side by
# side, and the script ends with one `go run ./benchmark -compare base
# head` over all records, whose exit code it returns.
set -euo pipefail

if [[ $# -lt 3 || $# -gt 4 ]]; then
	echo "usage: scripts/bench_ab.sh <base-rev> <workload[,workload...]> <pairs> [first-seed]" >&2
	exit 2
fi
base_rev=$1 pairs=$3 first=${4:-1}
IFS=, read -ra workloads <<<"$2"

cd "$(git -C "$(dirname "$0")" rev-parse --show-toplevel)"
head="$PWD"
rev=$(git rev-parse --verify "$base_rev^{commit}")
ab="$head/.bench_build/ab"
wt="$ab/base-$rev"
out="$ab/${2//,/+}-$(date -u +%Y%m%dT%H%M%SZ)"
mkdir -p "$ab" "$out/base" "$out/head"

rm -rf "$wt"
mkdir -p "$wt"
trap 'rm -rf "$wt"' EXIT
git archive "$rev" | tar -x -C "$wt"

metrics=(latency_p50_ms latency_tail_ms throughput_ops_s cells_per_s cpu_ms_per_op alloc_mb_per_op rss_mb setup_s)

# log <side> <seed>: the log file of that run of the current workload.
log() {
	echo "$out/log/$workload/$1-seed$2.txt"
}

# run <side> <seed>: one benchmark run of a side, its output kept in the log.
run() {
	local dir=$head
	[[ $1 == base ]] && dir=$wt
	(cd "$dir" && bash benchmark/run.sh --workload "$workload" --seed "$2" --trace 0 \
		-out "$out/$1") >"$(log "$1" "$2")" 2>&1 || {
		echo "bench_ab: $1 run of $workload seed $2 failed; see $(log "$1" "$2")" >&2
		tail -5 "$(log "$1" "$2")" >&2
		return 1
	}
}

# value <side> <seed> <metric>: the metric's value from that run's output.
value() {
	awk -v m="$3" '$1 == m { print $2; exit }' "$(log "$1" "$2")"
}

for workload in "${workloads[@]}"; do
	mkdir -p "$out/log/$workload"
	echo "bench_ab: base $rev vs head $head, workload $workload, $pairs pairs"
	for ((i = 0; i < pairs; i++)); do
		seed=$((first + i))
		if ((i % 2 == 0)); then
			run base "$seed"
			run head "$seed"
		else
			run head "$seed"
			run base "$seed"
		fi
		echo "pair $((i + 1)) (seed $seed)"
		for m in "${metrics[@]}"; do
			printf '  %-18s base %-14s head %s\n' "$m" "$(value base "$seed" "$m")" "$(value head "$seed" "$m")"
		done
	done
done

echo "bench_ab: records in $out"
go run ./benchmark -compare "$out/base" "$out/head"
