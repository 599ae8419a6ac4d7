#!/usr/bin/env bash
# Runs a benchmark workload on a parent revision and on the working tree
# in alternating pairs — the ROADMAP's rule for every performance claim —
# and prints, per side, the median and quartiles of every end-to-end
# metric, how many pairs each side won, the summed failed/attempted and
# the number of "open loop did not hold" repeats.
#
#   scripts/benchpairs.sh <parent-rev> <workload> [pairs=10] [seed=0] [seconds=20]
#
# The parent is exported once (git archive) into .bench_build/, which
# bench/run.sh already uses and .gitignore already covers; each side
# builds from its own tree. Every run's full output is kept under
# .bench_build/pairs-*/ so a surprising row can be traced to its run.
# Keep the machine idle: live-udp-paced runs on the wall clock.
set -euo pipefail
if [ $# -lt 2 ]; then
	sed -n '2,15p' "${BASH_SOURCE[0]}" >&2
	exit 2
fi
rev=$1 workload=$2 pairs=${3:-10} seed=${4:-0} seconds=${5:-20}
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
sha="$(git -C "$root" rev-parse --short "$rev^{commit}")"
parent="$root/.bench_build/parent-$sha"
out="$root/.bench_build/pairs-$sha-$workload-seed$seed"
if [ ! -d "$parent" ]; then
	mkdir -p "$parent"
	git -C "$root" archive "$sha" | tar -x -C "$parent"
fi
rm -rf "$out"
mkdir -p "$out"

run() { # side tree pair
	if ! (cd "$2" && bash bench/run.sh --workload "$workload" --seed "$seed" --seconds "$seconds") >"$out/$1-$3.log" 2>&1; then
		echo "benchpairs: $1 run $3 exited non-zero, see $out/$1-$3.log" >&2
	fi
}
for i in $(seq 1 "$pairs"); do
	if ((i % 2)); then
		run parent "$parent" "$i"
		run change "$root" "$i"
	else
		run change "$root" "$i"
		run parent "$parent" "$i"
	fi
	echo "benchpairs: pair $i/$pairs done" >&2
done

# One line per run: side pair attempted failed name=value...
for side in parent change; do
	for i in $(seq 1 "$pairs"); do
		json="$(grep '^{"correct"' "$out/$side-$i.log" | tail -n 1 || true)"
		[ -n "$json" ] || continue
		echo "$side $i $(echo "$json" | sed -E 's/.*"attempted":([0-9]+),"failed":([0-9]+).*/\1 \2/')" \
			"$(echo "$json" | grep -oE '"[a-z0-9_]+":\{"value":[^,]+' | sed -E 's/"([a-z0-9_]+)":\{"value":/\1=/' | tr '\n' ' ')"
	done
done >"$out/runs.txt"

echo "$workload: $pairs alternating pairs, parent $sha vs working tree, --seed $seed --seconds $seconds"
awk -v bench="$root/BENCHMARK.json" '
function quart(side, name, i,   n, k, pos, j, frac, s) { # exclusive method, as bench/stats.go
	n = 0
	for (k = 1; k <= pairs; k++) if ((side, k, name) in v) s[++n] = v[side, k, name]
	if (n == 0) return "-"
	for (k = 2; k <= n; k++) for (j = k; j > 1 && s[j] < s[j-1]; j--) { frac = s[j]; s[j] = s[j-1]; s[j-1] = frac }
	if (n == 1) return s[1]
	pos = i * (n + 1) / 4; j = int(pos); if (j < 1) j = 1; if (j > n - 1) j = n - 1
	return s[j] + (pos - j) * (s[j+1] - s[j])
}
BEGIN {
	while ((getline line < bench) > 0)
		if (match(line, /"name": "[a-z0-9_]+", "unit": "[^"]*", "better": "[a-z]+", "bound"/)) {
			split(line, f, "\""); order[++nm] = f[4]; better[f[4]] = f[12]
		}
}
{
	side = $1; k = $2; if (k > pairs) pairs = k
	attempted[side] += $3; failed[side] += $4; runs[side]++
	for (i = 5; i <= NF; i++) { split($i, kv, "="); v[side, k, kv[1]] = kv[2] }
}
END {
	printf "%-20s %-6s %38s   %38s   %s\n", "metric", "better", "parent  median (q1 .. q3)", "change  median (q1 .. q3)", "pairs won parent/change/tied"
	for (m = 1; m <= nm; m++) {
		name = order[m]; wp = wc = tie = 0
		for (k = 1; k <= pairs; k++) {
			if (!(("parent", k, name) in v) || !(("change", k, name) in v)) continue
			d = v["change", k, name] - v["parent", k, name]; if (better[name] == "lower") d = -d
			if (d > 0) wc++; else if (d < 0) wp++; else tie++
		}
		printf "%-20s %-6s %14.6g (%.6g .. %.6g)   %14.6g (%.6g .. %.6g)   %d/%d/%d\n", name, better[name],
			quart("parent", name, 2), quart("parent", name, 1), quart("parent", name, 3),
			quart("change", name, 2), quart("change", name, 1), quart("change", name, 3), wp, wc, tie
	}
	printf "failed/attempted: parent %d/%d over %d runs, change %d/%d over %d runs\n",
		failed["parent"], attempted["parent"], runs["parent"], failed["change"], attempted["change"], runs["change"]
}' "$out/runs.txt"
for side in parent change; do
	echo "\"open loop did not hold\": $side $(cat "$out/$side"-*.log | grep -c 'open loop did not hold' || true)"
done
