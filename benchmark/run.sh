#!/usr/bin/env bash
# The benchmark's one entry point.
#
#   bash benchmark/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
#       builds the program (first call compiles, later calls hit the cache)
#       and runs one workload; this is BENCHMARK.json's command.
#   bash benchmark/run.sh
#       builds once, runs the five workloads one after another, then the
#       traced pass of each, leaves benchmark/out/*.json and prints every
#       metric by name with its unit. SEED and SECONDS_PER_RUN override the
#       defaults (1 and BENCHMARK.json's run_seconds).
#   bash benchmark/run.sh -compare a.json b.json
#       compares two result sets (see README.md).
#
# Everything the build writes stays inside the checkout, under .bench_build.
set -euo pipefail
cd "$(dirname "$0")/.."

build="$PWD/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" GOPATH="$build/gopath" GOTOOLCHAIN=local
# The commit is stamped by hand: a checkout that is not a git repository
# (or one git refuses to read) must still build.
commit=$(git rev-parse HEAD 2>/dev/null || echo unknown)
go build -buildvcs=false -ldflags "-X main.gitCommit=$commit" -o "$build/benchmark" ./benchmark

if [ $# -gt 0 ]; then
	exec "$build/benchmark" "$@"
fi

seed=${SEED:-1}
seconds=${SECONDS_PER_RUN:-$(sed -n 's/.*"run_seconds": *\([0-9]*\).*/\1/p' BENCHMARK.json)}
workloads=$(sed -n '/"workloads"/,/\]/s/.*"name": *"\([^"]*\)".*/\1/p' BENCHMARK.json)
mkdir -p benchmark/out
for trace in 0 1; do
	for w in $workloads; do
		echo "== $w (trace $trace)"
		"$build/benchmark" -workload "$w" -seed "$seed" -seconds "$seconds" -trace "$trace" | sed '$d'
	done
done
