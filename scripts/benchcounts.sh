#!/usr/bin/env bash
# Proves a change left behaviour alone: runs one traced pass of each
# deterministic bench workload named on a parent revision and on the
# working tree and diffs the exact rows of the two result lines — every
# per-layer metric BENCHMARK.json gives the unit count, ratio or bit/s.
# Those are functions of (workload, seed, one pass), so any difference is
# a behaviour change and the script exits non-zero. The allocation probes
# (*_allocs, wire.allocs_per_frame) are measured, not counted: they are
# printed side by side and not compared, as is failed/attempted, which
# grows with the number of probe passes the box fits into the run.
#
#   scripts/benchcounts.sh <parent-rev> "<workload> [<workload>...]" [seed=0]
#
# The parent is exported once (git archive) into .bench_build/, shared
# with scripts/benchpairs.sh; every run's full output is kept under
# .bench_build/counts-*/. One table is printed per workload, and the exit
# status is 1 when any of them differs. live-udp-paced runs on the wall
# clock and has no exact rows: it is refused.
set -euo pipefail
if [ $# -lt 2 ]; then
	sed -n '2,19p' "${BASH_SOURCE[0]}" >&2
	exit 2
fi
rev=$1 workloads=$2 seed=${3:-0}
for workload in $workloads; do
	if [ "$workload" = live-udp-paced ]; then
		echo "benchcounts: live-udp-paced runs on the wall clock; its rows are not exact" >&2
		exit 2
	fi
done
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
sha="$(git -C "$root" rev-parse --short "$rev^{commit}")"
parent="$root/.bench_build/parent-$sha"
if [ ! -d "$parent" ]; then
	mkdir -p "$parent"
	git -C "$root" archive "$sha" | tar -x -C "$parent"
fi

# One line per metric: name value unit, attempted and failed first.
rows() { # side tree
	if ! (cd "$2" && bash bench/run.sh --workload "$workload" --seed "$seed" --seconds 8 --trace 1) >"$out/$1.log" 2>&1; then
		echo "benchcounts: $1 run exited non-zero, see $out/$1.log" >&2
		exit 1
	fi
	json="$(grep '^{"correct":true' "$out/$1.log" | tail -n 1 || true)"
	if [ -z "$json" ]; then
		echo "benchcounts: $1 run printed no \"correct\":true result, see $out/$1.log" >&2
		exit 1
	fi
	echo "$json" | sed -E 's/.*"attempted":([0-9]+),"failed":([0-9]+).*/attempted \1 count\nfailed \2 count/'
	echo "$json" | grep -oE '"[a-z0-9_.-]+":\{"value":[^,]+,"unit":"[^"]*"' |
		sed -E 's/"([a-z0-9_.-]+)":\{"value":([^,]+),"unit":"([^"]*)"/\1 \2 \3/'
}

# One workload's table; fails when an exact row differs.
compare() {
	awk -v bench="$root/BENCHMARK.json" -v parentRows="$out/parent.rows" '
BEGIN {
	while ((getline line < bench) > 0) # a per-layer name is layer.metric; the end-to-end names have no dot
		if (match(line, /"name": "[a-z]+\.[a-z0-9_.-]+", "unit": "(count|ratio|bit\/s)", "better"/)) {
			split(line, f, "\""); order[++n] = f[4]
		}
	while ((getline line < parentRows) > 0) { split(line, f, " "); parent[f[1]] = f[2] }
}
{ change[$1] = $2 }
END {
	for (i = 1; i <= n; i++) {
		name = order[i]
		if (name ~ /_allocs$/ || name == "wire.allocs_per_frame") { probes[++np] = name; continue }
		compared++
		if (!(name in parent) || !(name in change) || parent[name] != change[name]) {
			differ[++nd] = name
		} else if (parent[name] + 0 == 0) {
			zero = zero " " name
		} else {
			same = same " " name "=" parent[name]
		}
	}
	printf "exact rows compared: %d, differing: %d\n", compared, nd
	for (i = 1; i <= nd; i++)
		printf "  DIFFERS %-32s parent %-16s change %s\n", differ[i], parent[differ[i]], change[differ[i]]
	print "identical:" same
	print "zero on both sides:" zero
	printf "%-30s %12s %12s\n", "probe rows (not compared)", "parent", "change"
	for (i = 1; i <= np; i++) printf "  %-28s %12.6g %12.6g\n", probes[i], parent[probes[i]], change[probes[i]]
	printf "  %-28s %12s %12s\n", "failed/attempted", parent["failed"] "/" parent["attempted"], change["failed"] "/" change["attempted"]
	exit (nd > 0)
}' "$out/change.rows" | fold -s -w 110
}

differs=0
for workload in $workloads; do
	out="$root/.bench_build/counts-$sha-$workload-seed$seed"
	rm -rf "$out"
	mkdir -p "$out"
	rows parent "$parent" >"$out/parent.rows"
	rows change "$root" >"$out/change.rows"
	echo "$workload seed $seed: parent $sha vs working tree, one traced pass a side (--seconds 8 --trace 1)"
	compare || differs=1
done
exit $differs
