#!/usr/bin/env bash
# collect.sh <set.json> [seeds] [first-seed]
#
# Builds a result set for -compare: every workload of BENCHMARK.json once
# per seed (default: seeds 1..10), end-to-end metrics only, each run a
# fresh process as the driver runs them. This is how results/seed-a.json
# and results/seed-b.json were made.
set -euo pipefail
cd "$(dirname "$0")/.."
set_file=${1:?usage: collect.sh <set.json> [seeds] [first-seed]}
seeds=${2:-10}
first=${3:-1}
seconds=$(sed -n 's/.*"run_seconds": *\([0-9]*\).*/\1/p' BENCHMARK.json)
workloads=$(sed -n '/"workloads"/,/\]/s/.*"name": *"\([^"]*\)".*/\1/p' BENCHMARK.json)
rm -f "$set_file"
for w in $workloads; do
	for seed in $(seq "$first" $((first + seeds - 1))); do
		bash benchmark/run.sh -workload "$w" -seed "$seed" -seconds "$seconds" -trace 0 -record "$set_file" | tail -n 1 | cut -c1-60
	done
done
