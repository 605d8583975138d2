#!/usr/bin/env sh
# Compare a fresh benchmark run against the most recent committed
# BENCH_<date>.json baseline and warn (exit 0 either way — timing on
# shared CI hardware is advisory) about per-benchmark ns/op regressions
# past a threshold. Also reports the observability recording-overhead
# ratio (BenchmarkObsRecordingOverhead fbt vs off) and the analysis
# stack's (serve vs off, advisory), the runtime
# verification ratio (BenchmarkWatchSinkOverhead record+watch vs
# record, gated at 10%), and the saturation-telemetry ratio
# (BenchmarkPerfSinkOverhead record+perf vs record, gated at 10%).
# Each overhead line shows the ratio of process CPU time (cpu-ns/op,
# the drain goroutine included) beside the wall-clock one; the gates
# judge wall-clock only.
# One check is NON-advisory: the allocation footprint of the hot paths
# must stay within 5% of the committed baseline, and a breach exits 1.
# The gated benchmarks are the atomic-mode bus fast path
# (BenchmarkBusLockedRMW — grant → address → data → release through the
# arbiter with no split machinery, which the tenure/discipline
# indirection must not tax when unused), a whole deterministic
# simulation (BenchmarkP1/moesi — the engine's per-reference path and
# the bus's per-transaction path, which allocate nothing once warm;
# ROADMAP item 1), the same with §3.4 random-choice boards
# (BenchmarkP4), the random chooser itself
# (BenchmarkRandomPolicyChoice — the class choice lists are built once,
# so a choice allocates nothing), the engine, snoop and arbiter rungs
# of the layer ladder (BenchmarkLayer/engine,
# BenchmarkLayer/snoop/held-N, BenchmarkLayer/arbiter/{uncontended,
# contended} — nothing is allocated per deferral, per address cycle or
# per grant, contended or not), and its sink rungs
# (BenchmarkLayer/obs/{record,coherence,watch,perf}, each sink of
# simbench's ab-observed set folding one run's event stream, and
# BenchmarkLayer/obs/causal, the fourth analyzer -serve runs). The obs
# emit rung is not gated: its footprint is the Go runtime's, which now
# and then makes a thread while the recorder hands a batch to its drain
# goroutine (0 or about 1,100 B/op at -benchtime 5x);
# internal/obs/recorder_test.go pins that a warm Emit allocates
# nothing. The gated
# statistic is the per-op allocation
# footprint (B/op, allocs/op): it is deterministic, so 5% means a real
# change, whereas wall-clock ns/op on shared hardware has >5%
# irreducible run-to-run noise — the ns/op delta is printed on the same
# line but stays advisory. A baseline that predates a benchmark's
# allocation figures is noted and not gated.
# The "_meta" entry bench.sh embeds (host/toolchain provenance) is not
# a benchmark and is skipped.
#
# With -l the new run is additionally judged against a run ledger's
# rolling baseline (`fbtrend gate`): trailing-window median + MAD over
# the last 5 ledgered runs, which catches slow drift a single-baseline
# diff cannot. The ledger gate's verdict decides the exit code (exit 1
# on regression).
#
# Usage:
#   scripts/bench-compare.sh                 # run suite, compare vs latest BENCH_*.json
#   scripts/bench-compare.sh -n new.json     # compare an existing run instead of re-running
#   scripts/bench-compare.sh -o old.json     # explicit baseline
#   scripts/bench-compare.sh -p 25           # regression threshold in percent (default 10)
#   scripts/bench-compare.sh -t 10x          # -benchtime when re-running (default 5x)
#   scripts/bench-compare.sh -l ledger.jsonl # also gate vs this ledger's rolling baseline
set -eu

cd "$(dirname "$0")/.."

old=""
new=""
pct=10
benchtime='5x'
ledger=""
while getopts 'o:n:p:t:l:' opt; do
	case "$opt" in
	o) old=$OPTARG ;;
	n) new=$OPTARG ;;
	p) pct=$OPTARG ;;
	t) benchtime=$OPTARG ;;
	l) ledger=$OPTARG ;;
	*) echo "usage: scripts/bench-compare.sh [-o old.json] [-n new.json] [-p pct] [-t benchtime] [-l ledger.jsonl]" >&2; exit 2 ;;
	esac
done

if [ -z "$old" ]; then
	old=$(ls BENCH_*.json 2>/dev/null | sort | tail -1 || true)
	[ -n "$old" ] || { echo "bench-compare: no BENCH_*.json baseline committed" >&2; exit 2; }
fi

cleanup=""
if [ -z "$new" ]; then
	new=$(mktemp)
	cleanup=$new
	trap 'rm -f "$cleanup"' EXIT
	# A compare run is a probe, not a record: disable bench.sh's ledger
	# append so throwaway runs never pollute the rolling baseline.
	scripts/bench.sh -o "$new" -t "$benchtime" -L none
fi

echo "comparing $new against baseline $old (warn past ${pct}% ns/op growth)"

# Both files are flat {"name": {"ns_per_op": N, ...}} objects; a
# line-oriented awk join keeps this dependency-free.
awk -v pct="$pct" '
function val(line) {
	if (match(line, /"ns_per_op": *[0-9.eE+-]+/) == 0) return -1
	v = substr(line, RSTART, RLENGTH)
	sub(/.*: */, "", v)
	return v + 0
}
function name(line) {
	if (match(line, /"Benchmark[^"]*"/) == 0) return ""
	return substr(line, RSTART + 1, RLENGTH - 2)
}
function simms(line) {
	if (match(line, /"refs_per_simms": *[0-9.eE+-]+/) == 0) return -1
	v = substr(line, RSTART, RLENGTH)
	sub(/.*: */, "", v)
	return v + 0
}
function bval(line) {
	if (match(line, /"B_per_op": *[0-9.eE+-]+/) == 0) return -1
	v = substr(line, RSTART, RLENGTH)
	sub(/.*: */, "", v)
	return v + 0
}
function cval(line) {
	if (match(line, /"cpu_ns_per_op": *[0-9.eE+-]+/) == 0) return -1
	v = substr(line, RSTART, RLENGTH)
	sub(/.*: */, "", v)
	return v + 0
}
# cpuratio formats the CPU-time ratio of benchmark a over b for an
# overhead line, or "" when the run predates cpu-ns/op.
function cpuratio(a, b) {
	if (curc[a] <= 0 || curc[b] <= 0) return ""
	return sprintf(", %.2fx (%+.1f%% cpu)", curc[a] / curc[b], (curc[a] / curc[b] - 1) * 100)
}
function aval(line) {
	if (match(line, /"allocs_per_op": *[0-9.eE+-]+/) == 0) return -1
	v = substr(line, RSTART, RLENGTH)
	sub(/.*: */, "", v)
	return v + 0
}
# The _meta provenance entry is not a benchmark; drop it before the
# join (name() would skip it anyway, but be explicit).
/"_meta"/ { next }
FNR == NR {
	if ((n = name($0)) != "") {
		base[n] = val($0); baseb[n] = bval($0); basea[n] = aval($0)
	}
	next
}
{
	n = name($0)
	if (n != "") {
		thru[n] = simms($0); cur[n] = val($0); curc[n] = cval($0)
		curb[n] = bval($0); cura[n] = aval($0)
	}
	if (n == "" || !(n in base)) next
	nv = val($0); ov = base[n]
	seen[n] = 1
	if (ov > 0 && nv > ov * (1 + pct / 100)) {
		warned++
		printf "WARN  %-45s %12.0f -> %12.0f ns/op (%+.1f%%)\n", n, ov, nv, (nv / ov - 1) * 100
	}
}
END {
	for (n in base) if (!(n in seen)) missing++
	off = cur["BenchmarkObsRecordingOverhead/off"]
	fbt = cur["BenchmarkObsRecordingOverhead/fbt"]
	if (off > 0 && fbt > 0) {
		printf "recording overhead: fbt/off = %.2fx (+%.1f%% wall-clock)%s\n", fbt / off, (fbt / off - 1) * 100, \
			cpuratio("BenchmarkObsRecordingOverhead/fbt", "BenchmarkObsRecordingOverhead/off")
		if (fbt > off * 1.05)
			printf "WARN  .fbt recording costs more than 5%% over an unobserved run\n"
	}
	# The whole analysis stack of fbsim -serve -watch -record-out, not
	# gated yet: advisory, like the fbt/off line above.
	srv = cur["BenchmarkObsRecordingOverhead/serve"]
	if (off > 0 && srv > 0)
		printf "analysis overhead: serve/off = %.2fx (+%.1f%% wall-clock)%s\n", srv / off, (srv / off - 1) * 100, \
			cpuratio("BenchmarkObsRecordingOverhead/serve", "BenchmarkObsRecordingOverhead/off")
	rec = cur["BenchmarkWatchSinkOverhead/record"]
	mon = cur["BenchmarkWatchSinkOverhead/record+watch"]
	if (rec > 0 && mon > 0) {
		printf "watch overhead: record+watch/record = %.2fx (%+.1f%% wall-clock)%s\n", mon / rec, (mon / rec - 1) * 100, \
			cpuratio("BenchmarkWatchSinkOverhead/record+watch", "BenchmarkWatchSinkOverhead/record")
		if (mon > rec * 1.10)
			printf "WARN  live invariant monitoring costs more than 10%% over a record-only run\n"
	}
	prec = cur["BenchmarkPerfSinkOverhead/record"]
	perf = cur["BenchmarkPerfSinkOverhead/record+perf"]
	if (prec > 0 && perf > 0) {
		printf "perf overhead: record+perf/record = %.2fx (%+.1f%% wall-clock)%s\n", perf / prec, (perf / prec - 1) * 100, \
			cpuratio("BenchmarkPerfSinkOverhead/record+perf", "BenchmarkPerfSinkOverhead/record")
		if (perf > prec * 1.10)
			printf "WARN  saturation telemetry costs more than 10%% over a record-only run\n"
	}
	s1 = thru["BenchmarkShardedFabric/shards1"]
	s8 = thru["BenchmarkShardedFabric/shards8"]
	if (s1 > 0 && s8 > 0) {
		printf "shard scaling: 8-shard/1-shard simulated throughput = %.2fx\n", s8 / s1
		if (s8 < s1 * 2)
			printf "WARN  interleaved backplane no longer scales (8 shards < 2x one bus)\n"
	}
	# Non-advisory gate: the hot paths must not regain allocations.
	# Gated on the deterministic allocation footprint; ns/op shown as
	# advisory.
	split("BenchmarkBusLockedRMW BenchmarkP1/moesi BenchmarkP4 BenchmarkRandomPolicyChoice " \
		"BenchmarkLayer/engine BenchmarkLayer/snoop/held-0 BenchmarkLayer/snoop/held-1 BenchmarkLayer/snoop/held-7 " \
		"BenchmarkLayer/arbiter/uncontended BenchmarkLayer/arbiter/contended " \
		"BenchmarkLayer/obs/record BenchmarkLayer/obs/coherence BenchmarkLayer/obs/watch " \
		"BenchmarkLayer/obs/perf BenchmarkLayer/obs/causal", gated, " ")
	label["BenchmarkBusLockedRMW"] = "atomic fast path"
	label["BenchmarkP1/moesi"] = "simulation hot path"
	label["BenchmarkP4"] = "random-choice simulation"
	label["BenchmarkRandomPolicyChoice"] = "class choice"
	label["BenchmarkLayer/engine"] = "engine rung"
	label["BenchmarkLayer/snoop/held-0"] = "snoop rung, no holder"
	label["BenchmarkLayer/snoop/held-1"] = "snoop rung, one holder"
	label["BenchmarkLayer/snoop/held-7"] = "snoop rung, seven holders"
	label["BenchmarkLayer/arbiter/uncontended"] = "arbiter rung, uncontended"
	label["BenchmarkLayer/arbiter/contended"] = "arbiter rung, contended"
	label["BenchmarkLayer/obs/record"] = "record sink rung"
	label["BenchmarkLayer/obs/coherence"] = "coherence sink rung"
	label["BenchmarkLayer/obs/watch"] = "watch sink rung"
	label["BenchmarkLayer/obs/perf"] = "perf sink rung"
	label["BenchmarkLayer/obs/causal"] = "causal sink rung"
	for (g = 1; g in gated; g++) {
		fp = gated[g]
		if (!(fp in base && fp in cur)) continue
		if (baseb[fp] < 0 || basea[fp] < 0) {
			printf "note: baseline has no allocation figures for %s; not gated\n", fp
			continue
		}
		printf "%s (%s): %.0f -> %.0f ns/op (%+.1f%%, advisory); ", \
			label[fp], fp, base[fp], cur[fp], (cur[fp] / base[fp] - 1) * 100
		printf "%.0f -> %.0f B/op, %.0f -> %.0f allocs/op (gate 5%%)\n", \
			baseb[fp], curb[fp], basea[fp], cura[fp]
		if (curb[fp] > baseb[fp] * 1.05 || cura[fp] > basea[fp] * 1.05 + 0.5) {
			printf "FAIL  %s allocation footprint regressed past 5%% vs the committed baseline\n", label[fp]
			fail = 1
		}
	}
	if (missing) printf "note: %d baseline benchmark(s) absent from the new run\n", missing
	if (warned) printf "%d benchmark(s) regressed past %s%% (advisory: shared CI hardware)\n", warned, pct
	else printf "no ns/op regressions past %s%%\n", pct
	exit fail
}
' "$old" "$new"

# Rolling-baseline gate: judge the new run against the trailing-window
# median of the ledgered history (see cmd/fbtrend). Exits 1 on a
# regression verdict, which set -e propagates.
if [ -n "$ledger" ]; then
	echo "gating $new against the rolling baseline in $ledger"
	go run ./cmd/fbtrend gate -ledger "$ledger" -candidate "$new"
fi
