#!/usr/bin/env bash
# Prints where the linker put the benchmarks' hot functions: the entry
# address mod 64 of each in the benchmark binary of the working tree and
# of a parent revision. Moving a hot function's entry between 32 and 0
# mod 64 has changed a workload's speed by a few percent with identical
# counts; this is how a perf PR tells a layout move from a code move.
# The list: maxmin's μ kernel and session (office-churn), the admission
# ledger's writes and Table 2 (campus-walk, office-churn), and the
# loopback node's frame and trace path (live-loopback-churn), where
# AppendLine[go.shape.*uint8] is the instantiation Node.Trace renders
# its frame log with.
#
#   scripts/hotalign.sh <parent-rev>
#
# It reads the binaries bench/run.sh leaves: .bench_build/armbench for the
# working tree and .bench_build/parent-<sha>/.bench_build/armbench for the
# parent, as `make perf-pairs` and `make perf-counts` build them. Run one
# of those first; a binary older than the tree's last edit is stale.
set -euo pipefail
if [ $# -lt 1 ]; then
	sed -n '2,22p' "${BASH_SOURCE[0]}" >&2
	exit 2
fi
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
sha="$(git -C "$root" rev-parse --short "$1^{commit}")"
change="$root/.bench_build/armbench"
parent="$root/.bench_build/parent-$sha/.bench_build/armbench"
for bin in "$change" "$parent"; do
	if [ ! -x "$bin" ]; then
		echo "hotalign: no $bin; run make perf-counts PARENT=$1 WORKLOAD=campus-walk first" >&2
		exit 1
	fi
done

pkg=armnet/internal
funcs=(
	"$pkg/maxmin.advertiseRestricted"
	"$pkg/maxmin.(*Protocol).runRound"
	"$pkg/maxmin.(*Protocol).start"
	"$pkg/maxmin.(*protoConn).offer"
	"$pkg/maxmin.(*Protocol).post"
	"$pkg/maxmin.(*step).run"
	"$pkg/stats.(*Sum).Add"
	"$pkg/admission.(*LinkState).book"
	"$pkg/admission.(*LinkState).release"
	"$pkg/admission.(*LinkState).drop"
	"$pkg/admission.(*Holder).Release"
	"$pkg/admission.(*Controller).admit"
	"$pkg/testnet.(*Node).Trace"
	"$pkg/testnet.(*Node).HandleFrame"
	"$pkg/eventbus.AppendLine[go.shape.*uint8]"
	"$pkg/eventbus.LineLen"
	"$pkg/wire.DecodeFrame"
)
offsets() { # binary: "name offset" per hot function, "-" when inlined away
	local syms
	syms="$(go tool nm "$1")"
	for f in "${funcs[@]}"; do
		addr="$(awk -v f="$f" '$2 == "T" && $3 == f { print $1; exit }' <<<"$syms")"
		if [ -n "$addr" ]; then
			echo "$f $((16#$addr % 64))"
		else
			echo "$f -"
		fi
	done
}
printf '%-45s %8s %8s\n' "function (entry mod 64)" parent change
paste -d ' ' <(offsets "$parent") <(offsets "$change") | while read -r f p _ c; do
	mark=""
	[ "$p" = "$c" ] || mark="  moved"
	printf '%-45s %8s %8s%s\n' "${f#"$pkg/"}" "$p" "$c" "$mark"
done
