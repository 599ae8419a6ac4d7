#!/usr/bin/env bash
# Counts the statements of internal/ that no entry point's tests run: the
# tests of cmd/paperfigs, cmd/armsim, cmd/armnode and the root package are
# run once with coverage over every internal/ package, the per-binary
# profiles are merged (a block counts as reached when any binary ran it),
# and the per-package unreached/total table and every function at 0 % are
# printed. With a ceiling given it exits 1 when the unreached total
# exceeds it.
#
#   scripts/reach.sh [ceiling]
#
# Coverage sees only code run in-process: armnode's UDP path is reached in
# production but not here.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
ceiling=${1:-}
work="$(mktemp -d)"
trap 'rm -rf "$work"' EXIT

if ! (cd "$root" && go test -count=1 -coverpkg=./internal/... -coverprofile="$work/raw.out" \
	./cmd/paperfigs ./cmd/armsim ./cmd/armnode .) >"$work/test.log" 2>&1; then
	cat "$work/test.log" >&2
	exit 1
fi

# One line per block, "file:start,end numstmt count", reached if any
# binary's count is non-zero; first-seen order keeps the profile valid.
awk 'NR == 1 { print; next }
	{ key = $1 " " $2; if (!(key in hit)) { order[++n] = key; hit[key] = 0 } if ($3 > 0) hit[key] = 1 }
	END { for (i = 1; i <= n; i++) print order[i], hit[order[i]] }' "$work/raw.out" >"$work/merged.out"

# Per package: unreached/total statements, most unreached first.
awk -v countf="$work/count" 'NR > 1 {
		pkg = $1; sub(/\/[^\/]*$/, "", pkg); sub(/^armnet\/internal\//, "", pkg)
		total[pkg] += $2; all += $2
		if ($3 == 0) { miss[pkg] += $2; unreached += $2 }
	}
	END {
		for (p in total) print miss[p] + 0, total[p], p
		print unreached, all > countf
	}' "$work/merged.out" | sort -k1,1nr -k3,3 | awk '{ printf "%-10s %5d/%d\n", $3, $1, $2 }'
read -r count all <"$work/count"
awk -v u="$count" -v a="$all" 'BEGIN { printf "%-10s %5d/%d (%.1f %%)\n", "total", u, a, 100 * u / a }'

echo
echo "functions at 0 %:"
(cd "$root" && go tool cover -func="$work/merged.out") | awk '$NF == "0.0%" { sub(/^armnet\/internal\//, "", $1); print "  " $1, $2 }'

if [ -n "$ceiling" ] && [ "$count" -gt "$ceiling" ]; then
	echo "reach: $count unreached statements exceed the ceiling of $ceiling" >&2
	exit 1
fi
