# Developer entry points; CI (.github/workflows/ci.yml) runs the same
# targets.

GO ?= go

.PHONY: all build test race lint loc check-run-names reachable bench-smoke bench-compare bench-pairs bench-pairs-check serve-smoke cluster-smoke adapt-soak clean

all: build test

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# The morsel-parallel layer's acceptance gate: everything race-clean.
race:
	$(GO) test -race ./...

lint:
	$(GO) vet ./...
	@out=$$(gofmt -l .); if [ -n "$$out" ]; then \
		echo "gofmt needs to run on:" >&2; echo "$$out" >&2; exit 1; fi

# Non-test Go lines per package, then their total. go list's GoFiles
# holds no _test.go file, and ./... skips dot directories such as the
# parent checkouts scripts/bench_pairs.sh leaves under .bench_build/.
loc:
	@$(GO) list -f '{{.Dir}} {{.GoFiles}}' ./... | while read -r dir files; do \
		files=$${files#[}; files=$${files%]}; n=0; \
		for f in $$files; do n=$$((n + $$(wc -l < "$$dir/$$f"))); done; \
		rel=$${dir#$(CURDIR)}; rel=$${rel#/}; echo "$$n $${rel:-.}"; \
	done | awk '{ print; total += $$1 } END { print total, "total" }'

# Every -run and -fuzz pattern in CI, this Makefile and scripts/ must
# name an existing test: go test runs nothing - and passes - for a
# pattern that matches no test, so a renamed test would drop out of the
# steps that run it by name unnoticed.
check-run-names:
	bash scripts/check_run_names.sh

# Every internal package must be imported by at least one non-test file
# outside itself: code no binary, benchmark or other package reaches is
# code no ledger row measures (internal/vat sat unseen for ten PRs).
# .Imports lists non-test imports only, so a package kept alive by a
# _test.go file alone fails here.
reachable:
	@imports=$$($(GO) list -f '{{.ImportPath}}: {{.Imports}}' ./...); status=0; \
	for pkg in $$($(GO) list ./internal/...); do \
		if ! echo "$$imports" | grep -v "^$$pkg: " | grep -Eq "[[ ]$$pkg[] ]"; then \
			echo "unreachable: $$pkg is imported by no non-test file outside itself" >&2; status=1; fi; \
	done; exit $$status

# One iteration of every benchmark, plus the serial-vs-parallel SSB
# comparison that asserts bit-identical results and error logs.
bench-smoke:
	$(GO) test -bench=. -benchtime=1x -run='^$$' ./...
	$(GO) run ./cmd/ahead-ssb -sf 0.01 -runs 1 -compare -parallel 0 \
		-json ssb-timings.json

# The benchmark-regression gate: collect a three-seed result set of the
# repo's benchmark (benchmark/README.md) and compare it against the
# committed seed baseline; -compare exits 1 when any workload x
# end-to-end metric is worse than the baseline by more than its
# BENCHMARK.json bound.
bench-compare:
	bash benchmark/collect.sh benchmark/out/ci-set.json 3
	bash benchmark/run.sh -compare benchmark/results/seed-a.json benchmark/out/ci-set.json

# The sign test behind any "better" or "leans the wrong way" claim:
# N alternating parent/change pairs of the repo's benchmark against
# revision REV (scripts/bench_pairs.sh: per metric each side's median and
# quartiles, the ratio, the pairs won and the verdict). WORKLOADS narrows the set,
# TRACE=1 runs the traced pass for the per-layer rows.
REV ?= HEAD
N ?= 10
bench-pairs:
	bash scripts/bench_pairs.sh $(REV) $(N) $(WORKLOADS)

# The pairs script's verdict column (claim / worse / unresolved / flat)
# on a checked-in runs file, against the verdicts it must print.
bench-pairs-check:
	bash scripts/bench_pairs.sh --report scripts/testdata/pairs_runs.tsv | \
		awk '{print $$1, $$NF}' | diff scripts/testdata/pairs_verdicts.txt -

# The serving layer's acceptance gate: boot ahead-serve at SF 0.01
# with fault injection, drive it with ahead-loadgen, check /metrics
# (zero failures, balanced scratch arena, detections observed), verify
# a SIGTERM drain, then prove overload sheds with 429s.
serve-smoke:
	bash scripts/serve_smoke.sh

# The distributed layer's acceptance gate: boot 3 hash-partitioned
# shards, a scatter-gather router, and a single-node reference; prove
# merged results match the reference byte for byte, injected faults are
# detected at the merge point, and a killed shard is quarantined with
# explicit degraded (2/3) service instead of errors.
cluster-smoke:
	bash scripts/cluster_smoke.sh

# The adaptive-hardening layer's acceptance gate: boot ahead-serve
# -adapt (columns at the weakest published code), run clean traffic, a
# concentrated fault-rate step, and a recovery phase; require zero
# failed queries, at least one observed background re-harden, the
# hazard bound held at the end, and a clean drain.
adapt-soak:
	bash scripts/adapt_soak.sh

clean:
	rm -f ssb-timings.json
	rm -rf bin
