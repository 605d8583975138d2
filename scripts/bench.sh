#!/usr/bin/env sh
# Run the repository's benchmark suite and record per-benchmark ns/op
# as a dated JSON document (BENCH_<YYYY-MM-DD>.json by default), so
# performance regressions between PRs can be diffed with jq instead of
# eyeballing `go test -bench` output.
#
# Usage:
#   scripts/bench.sh                # full suite -> BENCH_<date>.json
#   scripts/bench.sh -o out.json    # explicit output file
#   scripts/bench.sh -b 'Cache|Bus' # only benchmarks matching the regex
#   scripts/bench.sh -t 10x         # -benchtime per benchmark (default 5x)
#   scripts/bench.sh -c 5           # -count repetitions; keeps the best
#                                   # (minimum-ns/op) run per benchmark,
#                                   # the noise-robust choice for gating
#   scripts/bench.sh -L ledger.jsonl# append the run to this run ledger
#                                   # (default BENCH_LEDGER.jsonl; 'none'
#                                   # disables) — see cmd/fbtrend
#
# The JSON is an object keyed by benchmark name (GOMAXPROCS suffix
# stripped): {"BenchmarkCacheReadHit": {"ns_per_op": 123.4, "runs": 5}},
# plus a "_meta" entry recording the machine and toolchain the numbers
# were taken on (git SHA, go version, GOMAXPROCS, CPU count, UTC date)
# so a diff across baselines can tell a code regression from a
# hardware change.
set -eu

cd "$(dirname "$0")/.."

out=""
bench='.'
benchtime='5x'
count=1
ledger='BENCH_LEDGER.jsonl'
while getopts 'o:b:t:c:L:' opt; do
	case "$opt" in
	o) out=$OPTARG ;;
	b) bench=$OPTARG ;;
	t) benchtime=$OPTARG ;;
	c) count=$OPTARG ;;
	L) ledger=$OPTARG ;;
	*) echo "usage: scripts/bench.sh [-o out.json] [-b regex] [-t benchtime] [-c count] [-L ledger|none]" >&2; exit 2 ;;
	esac
done
[ -n "$out" ] || out="BENCH_$(date +%Y-%m-%d).json"

git_sha=$(git rev-parse --short HEAD 2>/dev/null || echo unknown)
go_ver=$(go version | awk '{print $3}')
cpus=$(getconf _NPROCESSORS_ONLN 2>/dev/null || echo 0)
gomaxprocs=${GOMAXPROCS:-$cpus} # go's default GOMAXPROCS is the CPU count
date_utc=$(date -u +%Y-%m-%dT%H:%M:%SZ)

raw=$(mktemp)
status=$(mktemp)
trap 'rm -f "$raw" "$status"' EXIT

echo "running benchmarks (-bench '$bench' -benchtime $benchtime -count $count)..." >&2
# sh has no pipefail: the pipeline's status is tee's, so go test's goes
# through a file. A benchmark that fails (b.Fatal, a panic) fails the
# run, and nothing is written or ledgered.
{
	rc=0
	go test -run '^$' -bench "$bench" -benchtime "$benchtime" -count "$count" ./... || rc=$?
	echo "$rc" >"$status"
} | tee "$raw" >&2
rc=$(cat "$status")
if [ "$rc" != 0 ]; then
	echo "bench.sh: go test exited ${rc:-abnormally}; no results written" >&2
	exit "${rc:-1}"
fi

# `go test -bench` lines look like:
#   BenchmarkCacheReadHit-8   5   123.4 ns/op
# possibly followed by custom metric pairs reported via b.ReportMetric:
#   BenchmarkShardedFabric/shards4-8   5   1234 ns/op   56.7 refs/simms
# Normalise them into a JSON object, keeping every metric (the custom
# ones carry e.g. the shard-scaling points); awk keeps this
# dependency-free. Units are sanitised into JSON keys ("ns/op" ->
# "ns_per_op", "refs/simms" -> "refs_per_simms").
awk -v sha="$git_sha" -v gover="$go_ver" -v gmp="$gomaxprocs" \
	-v cpus="$cpus" -v dateutc="$date_utc" '
/^Benchmark/ && /ns\/op/ {
	name = $1
	sub(/-[0-9]+$/, "", name)
	entry = "{\"runs\": " $2
	for (i = 3; i + 1 <= NF; i += 2) {
		unit = $(i + 1)
		gsub(/\//, "_per_", unit)
		gsub(/[^A-Za-z0-9_]/, "_", unit)
		entry = entry ", \"" unit "\": " $i
	}
	entry = entry "}"
	# With -count > 1 a benchmark appears once per repetition; keep the
	# minimum-ns/op run (least scheduler/GC interference) for the record.
	if (!(name in best)) order[++m] = name
	if (!(name in best) || $3 + 0 < bestns[name]) {
		best[name] = entry
		bestns[name] = $3 + 0
	}
}
END {
	printf "{\n"
	printf "  \"_meta\": {\"git_sha\": \"%s\", \"go\": \"%s\", ", sha, gover
	printf "\"gomaxprocs\": %d, \"cpus\": %d, \"date_utc\": \"%s\"}", gmp, cpus, dateutc
	for (i = 1; i <= m; i++) {
		n = order[i]
		printf ",\n  \"%s\": %s", n, best[n]
	}
	printf "\n}\n"
}
' "$raw" >"$out"

count=$(grep -c 'ns_per_op' "$out" || true)
echo "wrote $count benchmark results to $out" >&2

# Append the run to the longitudinal run ledger so fbtrend can judge
# future runs against a rolling baseline instead of one fixed file.
if [ "$ledger" != "none" ]; then
	go run ./cmd/fbtrend ingest -ledger "$ledger" "$out" >&2
fi
