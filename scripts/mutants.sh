#!/usr/bin/env bash
# Re-runs every checked-in mutant: each testdata/mutants/<pkg>-<name>.patch
# is applied with `git apply` to a fresh `git archive` export of a
# revision, the test its header names is run there, and that test must
# fail. Before any mutant, each named test must pass on the unmutated
# export, so a kill means the mutation, not a broken baseline. Prints a
# kill table and exits 1 when a mutant survives, its patch no longer
# applies (the code it mutates moved: re-cut the patch against the new
# code), or a baseline fails.
#
#   scripts/mutants.sh [rev=HEAD]
#
# A patch starts with a header, then the diff:
#
#   Mutant: <what the mutation breaks, one line>
#   Test: <package> <TestName>
#
# The exports live under .bench_build/mutants/ (git-ignored) and are
# rebuilt on every run; git apply is kept from finding the enclosing
# repository, so a patch only ever touches its own export.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
rev=${1:-HEAD}
sha="$(git -C "$root" rev-parse --short "$rev^{commit}")"
work="$root/.bench_build/mutants"
shopt -s nullglob
patches=("$root"/testdata/mutants/*.patch)
if [ ${#patches[@]} -eq 0 ]; then
	echo "mutants: no patches under testdata/mutants/" >&2
	exit 2
fi

export_tree() { # dir
	rm -rf "$1"
	mkdir -p "$1"
	git -C "$root" archive "$sha" | tar -x -C "$1"
}
header() { # patch field
	sed -n "s/^$2: *//p" "$1" | head -n 1
}

# Baselines: every named test passes on the unmutated revision.
export_tree "$work/baseline"
status=0
for p in "${patches[@]}"; do
	header "$p" Test
done | sort -u | while read -r pkg test; do
	if ! (cd "$work/baseline" && go test -count=1 -run "^${test}\$" "$pkg") >"$work/baseline-$test.log" 2>&1; then
		echo "mutants: baseline $pkg $test fails at $sha, see $work/baseline-$test.log" >&2
		exit 1
	fi
done || status=1

printf '%-40s %-46s %s\n' mutant test verdict
for p in "${patches[@]}"; do
	name="$(basename "$p" .patch)"
	read -r pkg test <<<"$(header "$p" Test)"
	dir="$work/$name"
	export_tree "$dir"
	if [ -z "$test" ]; then
		verdict="NO TEST HEADER"
		status=1
	elif ! (cd "$dir" && GIT_CEILING_DIRECTORIES="$work" git apply "$p") >"$work/$name.log" 2>&1; then
		verdict="DOES NOT APPLY"
		status=1
	elif (cd "$dir" && go test -count=1 -run "^${test}\$" "$pkg") >>"$work/$name.log" 2>&1; then
		verdict="SURVIVED"
		status=1
	else
		verdict="killed"
	fi
	printf '%-40s %-46s %s\n' "$name" "$pkg $test" "$verdict"
	echo "    $(header "$p" Mutant)"
done
echo "mutants: $sha, logs under .bench_build/mutants/"
exit $status
