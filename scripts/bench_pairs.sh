#!/usr/bin/env bash
# bench_pairs.sh <rev> <n> [workload...]
# bench_pairs.sh --report <runs.tsv>
#
# Alternating parent/change pairs of the repo's benchmark (ROADMAP item
# 1(c)): <rev> is archived into .bench_build/pairs/<sha>/ (git archive, so
# it works in a checkout without worktree support), both sides run
# `benchmark/run.sh --workload w --seed s --seconds <run_seconds>
# --trace $TRACE` exactly as the driver does - each run a fresh process
# that builds from its own tree - with the same seed on both sides of a
# pair and the side that runs first alternating. Default workloads: all
# of BENCHMARK.json. TRACE=1 runs the traced pass (per-layer metrics)
# instead of the end-to-end one; SEED sets the first seed (default 1).
#
# Prints, per workload and metric: each side's median and quartiles, the
# ratio of the medians (change / parent), how many pairs the change won
# (ties count for neither), with the manifest's direction deciding what
# a win is, and a verdict - the acceptance rule in one column:
#
#   claim       the change won >= ceil(0.9 * pairs) and its median beats
#               the parent's by more than the parent's interquartile range
#   worse       the change's median is worse than the parent's by more
#               than the metric's bound in BENCHMARK.json
#   unresolved  either side's interquartile range, relative to its median,
#               is wider than the bound, and not every change run beats
#               every parent run
#   flat        anything else
#
# Metrics without a bound (the per-layer rows) are only ever claim or
# flat. Raw runs are kept in .bench_build/pairs/runs-<workload>-<time>.tsv
# (pair, side, metric, value per line); --report prints the table of
# such a file again.
set -euo pipefail
cd "$(dirname "$0")/.."

# report <runs.tsv>: the per-metric table of a runs file.
report() {
	awk -F'\t' '
		# direction and bound of every metric, from the manifest
		FNR == NR {
			if (match($0, /"name": *"[^"]*"/)) { name = substr($0, RSTART, RLENGTH); gsub(/"name": *"|"/, "", name) }
			if (match($0, /"better": *"[^"]*"/)) { b = substr($0, RSTART, RLENGTH); gsub(/"better": *"|"/, "", b); better[name] = b }
			if (match($0, /"bound": *[-+.eE0-9]+/)) { b = substr($0, RSTART, RLENGTH); gsub(/"bound": */, "", b); bound[name] = b + 0 }
			next
		}
		{ v[$2, $3, $1] = $4; seen[$3] = 1; if ($1 + 1 > n) n = $1 + 1 }
		function quart(side, m, q,    k, i, j, t, xs, c, pos, lo) {
			c = 0
			for (k = 0; k < n; k++) if ((side, m, k) in v) xs[c++] = v[side, m, k] + 0
			if (c == 0) return 0
			for (i = 1; i < c; i++) { t = xs[i]; for (j = i - 1; j >= 0 && xs[j] > t; j--) xs[j + 1] = xs[j]; xs[j + 1] = t }
			pos = q * (c - 1); lo = int(pos)
			if (lo + 1 >= c) return xs[c - 1]
			return xs[lo] + (pos - lo) * (xs[lo + 1] - xs[lo])
		}
		# gain(p, c): how much better c is than p, in the metric direction
		function gain(m, p, c) { return better[m] == "higher" ? c - p : p - c }
		# rel(x, base): x relative to |base|; any positive x beyond a zero base
		function rel(x, base) { if (base < 0) base = -base; return base != 0 ? x / base : (x > 0 ? 1e9 : 0) }
		function verdict(m, wins, pm, cm, piqr, ciqr,    need, all, k, l) {
			need = int(0.9 * n); if (need < 0.9 * n) need++
			if (wins >= need && gain(m, pm, cm) > piqr) return "claim"
			if (!(m in bound)) return "flat"
			if (rel(-gain(m, pm, cm), pm) > bound[m]) return "worse"
			all = 1
			for (k = 0; k < n; k++) for (l = 0; l < n; l++)
				if ((("change", m, k) in v) && (("parent", m, l) in v) && gain(m, v["parent", m, l], v["change", m, k]) <= 0) all = 0
			if ((rel(piqr, pm) > bound[m] || rel(ciqr, cm) > bound[m]) && !all) return "unresolved"
			return "flat"
		}
		END {
			cnt = 0
			for (m in seen) names[cnt++] = m
			for (i = 1; i < cnt; i++) { t = names[i]; for (j = i - 1; j >= 0 && names[j] > t; j--) names[j + 1] = names[j]; names[j + 1] = t }
			for (i = 0; i < cnt; i++) {
				m = names[i]; wins = 0; losses = 0
				for (k = 0; k < n; k++) {
					if (!((("parent", m, k) in v) && (("change", m, k) in v))) continue
					d = gain(m, v["parent", m, k], v["change", m, k])
					if (d > 0) wins++; else if (d < 0) losses++
				}
				pm = quart("parent", m, 0.5); cm = quart("change", m, 0.5)
				pq1 = quart("parent", m, 0.25); pq3 = quart("parent", m, 0.75)
				cq1 = quart("change", m, 0.25); cq3 = quart("change", m, 0.75)
				ratio = (pm != 0) ? sprintf("x%.3f", cm / pm) : "-"
				printf "%-34s parent %10.4g [%10.4g %10.4g]  change %10.4g [%10.4g %10.4g]  %-7s won %d/%d (%s)  %s\n",
					m, pm, pq1, pq3, cm, cq1, cq3, ratio, wins, wins + losses, better[m],
					verdict(m, wins, pm, cm, pq3 - pq1, cq3 - cq1)
			}
		}' BENCHMARK.json "$1"
}

if [ "${1:-}" = --report ]; then
	report "${2:?usage: bench_pairs.sh --report <runs.tsv>}"
	exit 0
fi

rev=${1:?usage: bench_pairs.sh <rev> <n> [workload...]}
pairs=${2:?usage: bench_pairs.sh <rev> <n> [workload...]}
shift 2
trace=${TRACE:-0}
first=${SEED:-1}
seconds=$(sed -n 's/.*"run_seconds": *\([0-9]*\).*/\1/p' BENCHMARK.json)
workloads=${*:-$(sed -n '/"workloads"/,/\]/s/.*"name": *"\([^"]*\)".*/\1/p' BENCHMARK.json)}

sha=$(git rev-parse --verify "$rev^{commit}")
root="$PWD/.bench_build/pairs"
parent="$root/$sha"
if [ ! -f "$parent/benchmark/run.sh" ]; then
	mkdir -p "$parent"
	git archive "$sha" | tar -x -C "$parent"
fi

# one_run <tree> <workload> <seed>: the run's metrics as "name value" lines.
one_run() {
	bash "$1/benchmark/run.sh" --workload "$2" --seed "$3" --seconds "$seconds" --trace "$trace" |
		tail -n 1 | grep -o '"[A-Za-z0-9_.]*":{"value":[-+.eE0-9]*' |
		sed 's/^"\([^"]*\)":{"value":/\1 /'
}

for w in $workloads; do
	runs="$root/runs-$w-$(date +%s).tsv"
	: >"$runs"
	for i in $(seq 0 $((pairs - 1))); do
		seed=$((first + i))
		order="parent change"
		if [ $((i % 2)) -eq 1 ]; then order="change parent"; fi
		for side in $order; do
			tree=$PWD
			if [ "$side" = parent ]; then tree=$parent; fi
			one_run "$tree" "$w" "$seed" | while read -r name value; do
				printf '%s\t%s\t%s\t%s\n' "$i" "$side" "$name" "$value"
			done >>"$runs"
		done
		echo "  $w pair $((i + 1))/$pairs done" >&2
	done
	echo "== $w: $pairs pairs against $(git rev-parse --short "$sha"), trace $trace (change/parent; median [q1 q3])"
	report "$runs"
done
