#!/usr/bin/env bash
# Alternating A/B runs of the end-to-end benchmark (perfbench/run.sh):
# a base revision against a change, pair by pair, with the same seed on
# both sides of a pair and the order of the two sides swapped every pair,
# so that slow phases of the host fall on both sides alike. Run from
# anywhere inside a checkout:
#
#   bash scripts/perfab.sh [--base REV] [--change REV|worktree] [--pairs N]
#                          [--seconds S] [--seed FIRST] [--workloads "W1 W2"]
#                          [--out DIR]
#
# Defaults: --base HEAD^, --change HEAD, 10 pairs, 25 s runs, seeds
# 101.., every workload in BENCHMARK.json. A revision is exported with
# `git archive` into DIR (default: a new temporary directory), so only
# committed files are measured, nothing is fetched, and the checkout's
# git state is not touched. `--change worktree` measures the checkout's
# files as they are instead (with `--base HEAD` before committing). Each
# side builds and runs its own perfbench/ from its own sources, as the
# benchmark is defined.
#
# Output: one raw file per run under DIR/raw, then a markdown table per
# workload with, for every end-to-end metric, the median [Q1, Q3] of each
# side, how many pairs the change won (by the metric's "better"
# direction), the median gap (positive: the change is better) against
# the base's interquartile range, and the change of the median; then each
# metric per pair, every run's sim-digest per side, and the failed op
# counts. The exported trees are deleted at the end; the raw files are
# kept.
set -euo pipefail

base=HEAD^
change=HEAD
pairs=10
seconds=25
seed0=101
workloads=
out=
while [ $# -gt 0 ]; do
	case "$1" in
	--base) base=$2 ;;
	--change) change=$2 ;;
	--pairs) pairs=$2 ;;
	--seconds) seconds=$2 ;;
	--seed) seed0=$2 ;;
	--workloads) workloads=$2 ;;
	--out) out=$2 ;;
	*)
		sed -n '2,28p' "$0" >&2
		exit 2
		;;
	esac
	shift 2
done

root=$(git rev-parse --show-toplevel)
[ -n "$out" ] || out=$(mktemp -d "${TMPDIR:-/tmp}/perfab.XXXXXX")
mkdir -p "$out/raw"
out=$(cd "$out" && pwd)
if [ -z "$workloads" ]; then
	workloads=$(sed -n '/"workloads"/,/]/p' "$root/BENCHMARK.json" |
		sed -n 's/.*"name": *"\([^"]*\)".*/\1/p' | tr '\n' ' ')
fi
# end_to_end metrics as "name better" lines, in BENCHMARK.json order.
metrics=$(sed -n '/"end_to_end"/,/]/p' "$root/BENCHMARK.json" |
	sed -n 's/.*"name": *"\([^"]*\)".*"better": *"\([^"]*\)".*/\1 \2/p')

# tree REV DIR exports REV's committed files into DIR.
tree() {
	mkdir -p "$2"
	git -C "$root" archive --format=tar "$1" | tar -x -C "$2"
}
cleanup() { rm -rf "$out/base" "$out/change"; }
trap cleanup EXIT

base_sha=$(git -C "$root" rev-parse --short "$base")
tree "$base" "$out/base"
base_dir=$out/base
if [ "$change" = worktree ]; then
	change_dir=$root
	change_name="worktree ($(git -C "$root" rev-parse --short HEAD)$(git -C "$root" diff --quiet HEAD || echo '+changes'))"
else
	tree "$change" "$out/change"
	change_dir=$out/change
	change_name=$(git -C "$root" rev-parse --short "$change")
fi
echo "perfab: base $base_sha, change $change_name, $pairs pairs x ${seconds}s, raw runs in $out/raw" >&2

# run SIDE DIR WORKLOAD PAIR SEED
run() {
	local f="$out/raw/$3-$4-$1.txt"
	echo "perfab: $3 pair $4 seed $5 $1" >&2
	(cd "$2" && bash perfbench/run.sh --workload "$3" --seed "$5" --seconds "$seconds" --trace 0) >"$f"
}

for w in $workloads; do
	for i in $(seq 1 "$pairs"); do
		seed=$((seed0 + i - 1))
		if [ $((i % 2)) -eq 1 ]; then
			run base "$base_dir" "$w" "$i" "$seed"
			run change "$change_dir" "$w" "$i" "$seed"
		else
			run change "$change_dir" "$w" "$i" "$seed"
			run base "$base_dir" "$w" "$i" "$seed"
		fi
	done
done

# value FILE METRIC prints the metric's value from a run's result line.
value() {
	tail -n 1 "$1" | sed -n "s/.*\"$2\":{\"value\":\([^,}]*\).*/\1/p"
}

# fmt prints a value to four significant digits, whole from 1000 up.
fmt='function fmt(v) { return (v >= 1000 || v <= -1000) ? sprintf("%.0f", v) : sprintf("%.4g", v) }'
num() { awk -v v="$1" "$fmt"' BEGIN { print fmt(v) }'; }

echo "base $base_sha → change $change_name; $pairs pairs per workload, ${seconds}s runs, seeds $seed0..$((seed0 + pairs - 1)); median [Q1, Q3], change-better pairs"
for w in $workloads; do
	echo
	echo "| workload | metric | base | change | better | median gap / base IQR (median change) |"
	echo "|---|---|---|---|---|---|"
	while read -r m better; do
		for i in $(seq 1 "$pairs"); do
			echo "$(value "$out/raw/$w-$i-base.txt" "$m") $(value "$out/raw/$w-$i-change.txt" "$m")"
		done | awk -v w="$w" -v m="$m" -v better="$better" "$fmt"'
			function sortv(a, n,   i, j, t) {
				for (i = 2; i <= n; i++)
					for (j = i; j > 1 && a[j-1] > a[j]; j--) { t = a[j]; a[j] = a[j-1]; a[j-1] = t }
			}
			# q: quantile by linear interpolation between order statistics.
			function q(a, n, p,   h, lo) {
				h = (n - 1) * p + 1; lo = int(h)
				return lo >= n ? a[n] : a[lo] + (h - lo) * (a[lo+1] - a[lo])
			}
			{ n++; b[n] = $1; c[n] = $2; if ((better == "lower") ? $2 < $1 : $2 > $1) wins++ }
			END {
				sortv(b, n); sortv(c, n)
				mb = q(b, n, .5); mc = q(c, n, .5); iqr = q(b, n, .75) - q(b, n, .25)
				gap = (better == "lower") ? mb - mc : mc - mb
				printf "| %s | %s | %s [%s, %s] | %s [%s, %s] | %d/%d | %s / %s (%+.1f%%) |\n", w, m,
					fmt(mb), fmt(q(b, n, .25)), fmt(q(b, n, .75)),
					fmt(mc), fmt(q(c, n, .25)), fmt(q(c, n, .75)),
					wins, n, fmt(gap), fmt(iqr), mb ? 100 * (mc - mb) / mb : 0
			}'
	done <<<"$metrics"
	echo
	while read -r m _; do
		printf '%s %s per pair, base→change:' "$w" "$m"
		for i in $(seq 1 "$pairs"); do
			printf ' %s→%s' "$(num "$(value "$out/raw/$w-$i-base.txt" "$m")")" "$(num "$(value "$out/raw/$w-$i-change.txt" "$m")")"
		done
		echo
	done <<<"$metrics"
	for side in base change; do
		digests=$(cat "$out"/raw/"$w"-*-"$side".txt | sed -n 's/^sim-digest [^ ]* \(cells=[0-9]*\) \([0-9a-f]*\)$/\1 \2/p' | sort | uniq -c | sed 's/^ *//' | paste -sd ';')
		failed=$(for f in "$out"/raw/"$w"-*-"$side".txt; do tail -n 1 "$f" | sed -n 's/.*"failed":\([0-9]*\).*/\1/p'; done | awk '{s += $1} END {print s + 0}')
		echo "$w $side: sim-digest [runs cells digest] $digests; failed ops $failed"
	done
done
