#!/usr/bin/env sh
# Judge a benchmark run against the most recent committed
# BENCH_<date>.json baseline with `fbtrend diff`, and with -l also
# against a run ledger's rolling baseline (trailing-window median + MAD
# of the last 5 ledgered runs) with `fbtrend gate`, which catches slow
# drift a single-baseline diff cannot.
#
# fbtrend is the one judge, and internal/obs/regress holds its rules:
# only the allocation footprint (B/op, allocs/op) of the hot-path
# benchmarks regress lists gates, because it is deterministic; every
# other figure, wall-clock and CPU time above all, and the intra-run
# overhead and shard-scaling ratios are advisory rows, marked WARN when
# past their thresholds or limits. A partial run fails closed: a gated
# figure the baseline holds and the run lacks is a regressed "missing"
# row, so judge every gated benchmark in one run (CI merges its runs
# with `jq -s add` first). The exit status is fbtrend's: 0 clean, 1 a
# gated figure regressed or missing, 2 a document that cannot be read
# (a truncated one included).
#
# Usage:
#   scripts/bench-compare.sh                 # run suite, compare vs latest BENCH_*.json
#   scripts/bench-compare.sh -n new.json     # compare an existing run instead of re-running
#   scripts/bench-compare.sh -o old.json     # explicit baseline
#   scripts/bench-compare.sh -t 10x          # -benchtime when re-running (default 5x)
#   scripts/bench-compare.sh -l ledger.jsonl # also gate vs this ledger's rolling baseline
set -eu

cd "$(dirname "$0")/.."

old=""
new=""
benchtime='5x'
ledger=""
while getopts 'o:n:t:l:' opt; do
	case "$opt" in
	o) old=$OPTARG ;;
	n) new=$OPTARG ;;
	t) benchtime=$OPTARG ;;
	l) ledger=$OPTARG ;;
	*) echo "usage: scripts/bench-compare.sh [-o old.json] [-n new.json] [-t benchtime] [-l ledger.jsonl]" >&2; exit 2 ;;
	esac
done

if [ -z "$old" ]; then
	old=$(ls BENCH_*.json 2>/dev/null | sort | tail -1 || true)
	[ -n "$old" ] || { echo "bench-compare: no BENCH_*.json baseline committed" >&2; exit 2; }
fi

# fbtrend is built, not run with `go run`, which would fold its exit
# status 2 into 1.
tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT
go build -o "$tmp/fbtrend" ./cmd/fbtrend

if [ -z "$new" ]; then
	new=$tmp/new.json
	# A compare run is a probe, not a record: disable bench.sh's ledger
	# append so throwaway runs never pollute the rolling baseline.
	scripts/bench.sh -o "$new" -t "$benchtime" -L none
fi

echo "judging $new against baseline $old"
"$tmp/fbtrend" diff "$old" "$new"
if [ -n "$ledger" ]; then
	echo "gating $new against the rolling baseline in $ledger"
	"$tmp/fbtrend" gate -ledger "$ledger" -candidate "$new"
fi
