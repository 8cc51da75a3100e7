#!/usr/bin/env bash
# Fails when a test pattern in CI, the Makefile or a script names no test.
#
# `go test -run P` (and `-fuzz P`) runs nothing - and passes - when no
# Test, Fuzz or Benchmark function matches P, so a renamed test silently
# drops out of every step that runs it by name. This collects each -run
# and -fuzz pattern in .github/workflows/ci.yml, Makefile and
# scripts/*.sh, splits it into its |-alternatives (the part before a /
# selects the top-level test) and fails on any alternative that matches
# no such function in the repository's _test.go files. Comment lines are
# skipped, and the empty pattern ^$ (run no tests) is exempt.
#
# Usage: bash scripts/check_run_names.sh   (make check-run-names)
set -euo pipefail
cd "$(dirname "$0")/.."

names=$(git ls-files --cached --others --exclude-standard -- '*_test.go' |
	xargs grep -hoE '^func (Test|Fuzz|Benchmark)[A-Za-z0-9_]*' | awk '{print $2}' | sort -u)

status=0
checked=0
for f in .github/workflows/ci.yml Makefile scripts/*.sh; do
	[ "$f" = scripts/check_run_names.sh ] && continue
	while IFS= read -r pat; do
		pat=${pat//\$\$/\$} # Makefile escapes $ as $$
		pat=${pat#[\'\"]}
		pat=${pat%[\'\"]}
		IFS='|' read -ra alts <<<"$pat"
		for alt in "${alts[@]}"; do
			alt=${alt%%/*}
			if [ -z "$alt" ] || [ "$alt" = '^$' ]; then
				continue
			fi
			checked=$((checked + 1))
			if ! grep -qE -- "$alt" <<<"$names"; then
				echo "$f: test pattern alternative '$alt' matches no Test, Fuzz or Benchmark function" >&2
				status=1
			fi
		done
	done < <(grep -vE '^[[:space:]]*#' "$f" |
		grep -oE -- "-(run|fuzz)[= ]+('[^']*'|\"[^\"]*\"|[^ '\"]+)" | sed -E 's/^-(run|fuzz)[= ]+//')
done
echo "check_run_names: $checked pattern alternatives checked"
exit $status
