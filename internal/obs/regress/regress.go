// Package regress is the one regression-decision layer of the
// observability stack. Every verdict in the tree — fbt causal diff, fbt
// lens diff, fbtrend diff, fbtrend gate (and so scripts/bench-compare.sh,
// which calls them) and the obshttp /trend endpoint — comes from
// ledger.Gate, which asks this package one question per metric: did it
// move in its bad direction by enough to matter? A pairwise diff is the
// gate over a one-run history.
//
// Three layers:
//
//   - Advisory says which keys may gate at all. Host-time metrics never
//     do, and of a bench record's keys only the allocation footprint of
//     the benchmarks gatedBenchmarks lists does. BenchRatios are the
//     advisory intra-run ratios a bench report shows beside them.
//
//   - Thresholds is the rel+abs double gate: a move only counts when it
//     exceeds BOTH the relative threshold (so large baselines need a
//     proportionally large move) and the absolute floor (so tiny
//     baselines can't scream over noise-sized wobble). ThresholdsFor
//     picks both from the metric key.
//
//   - Baseline is the rolling-window statistic: a trailing-window
//     median locates the series and the MAD (median absolute
//     deviation) scales its noise. A candidate is a step (changepoint)
//     when it deviates from the rolling median by more than K·MAD AND
//     breaches the rel+abs floors — same-seed repeats of a flat series
//     gate clean, ±noise jitter stays flat, a real 20% step is flagged.
//     Over one run the MAD is zero, so the step reduces exactly to the
//     double gate.
package regress

import (
	"math"
	"path"
	"sort"
	"strings"
)

// Thresholds is the rel+abs double gate. Both conditions must trip:
// the bad-direction move must exceed Abs absolutely AND Rel relative
// to the baseline value. A zero baseline has no meaningful relative
// change, so only the absolute floor applies there.
type Thresholds struct {
	Rel float64 `json:"rel"` // e.g. 0.10 = 10%
	Abs float64 `json:"abs"` // same unit as the metric
}

// Breached reports whether a bad-direction move of size delta from
// baseline old trips both gates. delta is oriented so that positive
// means "worse" — callers flip the sign for better-up metrics before
// asking.
func (t Thresholds) Breached(old, delta float64) bool {
	if delta <= t.Abs {
		return false
	}
	if old == 0 {
		return true
	}
	return delta > old*t.Rel
}

// Direction classifies a candidate value against a baseline.
type Direction int

const (
	// Flat: inside the noise envelope — no verdict.
	Flat Direction = iota
	// Regressed: a bad-direction step past every gate.
	Regressed
	// Improved: a good-direction step past every gate.
	Improved
)

// String names the direction for reports.
func (d Direction) String() string {
	switch d {
	case Regressed:
		return "regressed"
	case Improved:
		return "improved"
	default:
		return "flat"
	}
}

// DefaultWindow is the trailing-run count of a rolling baseline and
// DefaultK the MAD multiplier of its noise envelope. K·MAD ≈ 4.4σ for
// Gaussian noise at K=3 (MAD ≈ 0.6745σ), comfortably outside run-to-run
// jitter while a genuine 20% step on a stable series clears it easily.
const (
	DefaultWindow = 5
	DefaultK      = 3.0
)

// Baseline is the robust trailing-window statistic of one metric.
type Baseline struct {
	// N is the number of runs the baseline was computed over.
	N int `json:"n"`
	// Median locates the trailing window; MAD (median absolute
	// deviation from that median) scales its run-to-run noise. A
	// dead-flat window has MAD 0 — the rel+abs floors then decide alone.
	Median float64 `json:"median"`
	MAD    float64 `json:"mad"`
}

// NewBaseline digests a trailing window of values (any order).
func NewBaseline(window []float64) Baseline {
	b := Baseline{N: len(window)}
	if len(window) == 0 {
		return b
	}
	b.Median = median(window)
	dev := make([]float64, len(window))
	for i, v := range window {
		dev[i] = math.Abs(v - b.Median)
	}
	b.MAD = median(dev)
	return b
}

// median returns the middle value (mean of the middle two for even
// counts) without mutating the input.
func median(values []float64) float64 {
	s := append([]float64(nil), values...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// Step reports whether v is a changepoint against the baseline: it
// must deviate from the rolling median by more than k·MAD AND breach
// the rel+abs floors (either direction).
func (b Baseline) Step(v, k float64, t Thresholds) bool {
	if b.N == 0 {
		return false
	}
	dev := math.Abs(v - b.Median)
	return dev > k*b.MAD && t.Breached(math.Abs(b.Median), dev)
}

// Classify labels candidate v against the baseline: a bad-direction
// step is Regressed, a good-direction step Improved, anything inside
// the noise envelope Flat. worseUp says an increase is the bad
// direction (latencies, allocations, queue depths); false flips it
// (throughput, fairness, cache-sourced share).
func (b Baseline) Classify(v, k float64, t Thresholds, worseUp bool) Direction {
	if !b.Step(v, k, t) {
		return Flat
	}
	up := v > b.Median
	if up == worseUp {
		return Regressed
	}
	return Improved
}

// Changepoints scans a series (oldest first) with a trailing window of
// win values and returns the indices where the value steps away from
// its rolling baseline. The first win values seed the window and are
// never flagged. After a flagged step the window keeps sliding, so the
// runs that follow a step are judged against a window that gradually
// adopts the new level — a single step flags once, not forever.
func Changepoints(series []float64, win int, k float64, t Thresholds) []int {
	if win <= 0 {
		win = DefaultWindow
	}
	var steps []int
	for i := win; i < len(series); i++ {
		b := NewBaseline(series[i-win : i])
		if b.Step(series[i], k, t) {
			steps = append(steps, i)
		}
	}
	return steps
}

// Slope returns the least-squares slope of the series in units per
// run — the long-run drift fbtrend prints alongside changepoints.
func Slope(series []float64) float64 {
	n := float64(len(series))
	if n < 2 {
		return 0
	}
	// x = 0..n-1: mean x = (n-1)/2, Σ(x-mx)² = n(n²-1)/12.
	mx := (n - 1) / 2
	var my float64
	for _, v := range series {
		my += v
	}
	my /= n
	var num float64
	for i, v := range series {
		num += (float64(i) - mx) * (v - my)
	}
	den := n * (n*n - 1) / 12
	if den == 0 {
		return 0
	}
	return num / den
}

// Metric-key heuristics. The ledger flattens every report into
// "family.metric.unit" keys; the gates need to know, per key, which
// direction is bad, whether the metric is wall-clock noise that must
// never gate, and what absolute floor fits its unit. Substring rules
// keep this a single table instead of a per-ingester schema (the keys
// are listed in the OBSERVABILITY.md glossary).

// betterUpMarks are key substrings whose metrics improve when they
// increase: throughput, fairness indices and cache-sourced read share.
var betterUpMarks = []string{
	"refs_per", "fairness", "cache_sourced", "throughput", "hit_rate",
}

// BetterUp reports whether an increase in the named metric is an
// improvement (so a DECREASE is the regression direction).
func BetterUp(key string) bool {
	for _, m := range betterUpMarks {
		if strings.Contains(key, m) {
			return true
		}
	}
	return false
}

// advisoryMarks are key substrings whose metrics depend on host load —
// wall clock, GC pauses, host-side throughput. They are reported but
// never gate; allocation counts are deterministic and do. A bench
// record's keys are judged by gatedBenchmarks instead.
var advisoryMarks = []string{"wall_ns", "gc_pause", "refs_per_sec"}

// gatedBenchmarks are the benchmarks whose allocation footprint, a
// bench record's B_per_op and allocs_per_op, gates. Both are
// deterministic and these paths allocate nothing per reference,
// transaction, grant or event once warm, so a move past ThresholdsFor's
// 5% is a code change. Every other key of a bench record is advisory:
// wall-clock and CPU time, host-time units such as ns_per_grant,
// simulated figures, and the footprint of benchmarks not listed, such
// as BenchmarkLayer/obs/emit, whose footprint is the Go runtime's (now
// and then it makes a thread while the recorder hands a batch to its
// drain goroutine).
var gatedBenchmarks = map[string]bool{
	// The atomic-mode bus fast path, a whole deterministic simulation
	// (preferred and §3.4 random-choice boards) and one class choice.
	"BenchmarkBusLockedRMW":       true,
	"BenchmarkP1/moesi":           true,
	"BenchmarkP4":                 true,
	"BenchmarkRandomPolicyChoice": true,
	// The layer ladder's engine, snoop and arbiter rungs.
	"BenchmarkLayer/engine":              true,
	"BenchmarkLayer/snoop/held-0":        true,
	"BenchmarkLayer/snoop/held-1":        true,
	"BenchmarkLayer/snoop/held-7":        true,
	"BenchmarkLayer/arbiter/uncontended": true,
	"BenchmarkLayer/arbiter/contended":   true,
	// Its sink rungs: each analyzer folding one run's event stream.
	"BenchmarkLayer/obs/record":    true,
	"BenchmarkLayer/obs/coherence": true,
	"BenchmarkLayer/obs/watch":     true,
	"BenchmarkLayer/obs/perf":      true,
	"BenchmarkLayer/obs/causal":    true,
}

// Advisory reports whether the named metric must never flip a gate:
// host-load noise, or a bench record's key other than the allocation
// footprint of a gated benchmark.
func Advisory(key string) bool {
	if name, ok := strings.CutPrefix(key, "bench."); ok {
		for _, unit := range []string{".B_per_op", ".allocs_per_op"} {
			if name, ok := strings.CutSuffix(name, unit); ok {
				return !gatedBenchmarks[name]
			}
		}
		return true
	}
	for _, m := range advisoryMarks {
		if strings.Contains(key, m) {
			return true
		}
	}
	return false
}

// BenchRatio is an advisory ratio of one unit between two benchmarks of
// the same bench run: what a monitored run costs over a bare one, or
// how far a fabric scales. A nonzero Limit bounds the ratio in the
// unit's bad direction: a ceiling for time, a floor for throughput
// (BetterUp).
type BenchRatio struct {
	Num, Den string
	Unit     string
	Limit    float64
}

// BenchRatios are the ratios a bench report shows. The overhead limits
// judge wall-clock time; the CPU-time ratios beside them, which count
// the drain goroutine's work on another core, have none.
var BenchRatios = []BenchRatio{
	{"BenchmarkObsRecordingOverhead/fbt", "BenchmarkObsRecordingOverhead/off", "ns_per_op", 1.05},
	{"BenchmarkObsRecordingOverhead/fbt", "BenchmarkObsRecordingOverhead/off", "cpu_ns_per_op", 0},
	{"BenchmarkObsRecordingOverhead/serve", "BenchmarkObsRecordingOverhead/off", "ns_per_op", 0},
	{"BenchmarkObsRecordingOverhead/serve", "BenchmarkObsRecordingOverhead/off", "cpu_ns_per_op", 0},
	{"BenchmarkWatchSinkOverhead/record+watch", "BenchmarkWatchSinkOverhead/record", "ns_per_op", 1.10},
	{"BenchmarkWatchSinkOverhead/record+watch", "BenchmarkWatchSinkOverhead/record", "cpu_ns_per_op", 0},
	{"BenchmarkPerfSinkOverhead/record+perf", "BenchmarkPerfSinkOverhead/record", "ns_per_op", 1.10},
	{"BenchmarkPerfSinkOverhead/record+perf", "BenchmarkPerfSinkOverhead/record", "cpu_ns_per_op", 0},
	{"BenchmarkShardedFabric/shards8", "BenchmarkShardedFabric/shards1", "refs_per_simms", 2},
}

// Key names the ratio's report row after the last segment of each
// benchmark's name: "ratio.fbt/off.ns_per_op".
func (r BenchRatio) Key() string {
	return "ratio." + path.Base(r.Num) + "/" + path.Base(r.Den) + "." + r.Unit
}

// Of computes the ratio from a bench record's metrics; false when
// either figure is missing or not positive.
func (r BenchRatio) Of(metrics map[string]float64) (float64, bool) {
	num, den := metrics["bench."+r.Num+"."+r.Unit], metrics["bench."+r.Den+"."+r.Unit]
	if num <= 0 || den <= 0 {
		return 0, false
	}
	return num / den, true
}

// Past reports whether ratio v lies beyond the limit.
func (r BenchRatio) Past(v float64) bool {
	switch {
	case r.Limit == 0:
		return false
	case BetterUp(r.Unit):
		return v < r.Limit
	default:
		return v > r.Limit
	}
}

// ThresholdsFor is the one threshold table: the double gate for the
// named metric. A positive rel overrides the relative default, which is
// 5% for the lens rates and for a benchmark's allocation footprint and
// 10% for everything else; the absolute floor is AbsFloor's.
func ThresholdsFor(key string, rel float64) Thresholds {
	if rel <= 0 {
		rel = 0.10
		if strings.HasPrefix(key, "lens.") || benchAlloc(key, "allocs_per_op") || benchAlloc(key, "B_per_op") {
			rel = 0.05
		}
	}
	return Thresholds{Rel: rel, Abs: AbsFloor(key)}
}

// benchAlloc reports whether key is a benchmark record's figure of the
// given allocation unit ("bench.<benchmark>.<unit>").
func benchAlloc(key, unit string) bool {
	return strings.HasPrefix(key, "bench.") && strings.HasSuffix(key, "."+unit)
}

// AbsFloor picks the absolute threshold matching a metric key's unit:
// 1µs for nanosecond metrics, half an object for allocation counts (8
// bytes for allocated bytes, none for a benchmark's B/op, which gates
// on the relative threshold alone), two slots for queue depths and
// 0.001 for dimensionless rates. Unknown units get a vanishing floor so
// the relative gate decides alone.
func AbsFloor(key string) float64 {
	switch {
	case strings.Contains(key, "_ns") || strings.Contains(key, "ns_per_op"):
		return 1000
	case benchAlloc(key, "B_per_op"):
		return 0
	case strings.Contains(key, "alloc_bytes") || strings.Contains(key, "B_per_op"):
		return 8
	case strings.Contains(key, "alloc") || strings.Contains(key, "bytes_per"):
		return 0.5
	case strings.Contains(key, "depth") || strings.Contains(key, "peak"):
		return 2
	case strings.Contains(key, "share") || strings.Contains(key, "per_transition") ||
		strings.Contains(key, "fanout") || strings.Contains(key, "fairness") ||
		strings.Contains(key, "per_ref"):
		return 0.001
	default:
		return 1e-9
	}
}
