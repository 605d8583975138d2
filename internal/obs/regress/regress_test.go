package regress

import (
	"math/rand"
	"testing"
)

// TestBreachedParity pins the double-gate semantics the pairwise diffs
// (fbt causal, fbt lens, fbperf) relied on before the logic moved here:
// both conditions must trip, a zero baseline gates on the absolute
// floor alone, and boundary values do not trip strict comparisons.
func TestBreachedParity(t *testing.T) {
	th := Thresholds{Rel: 0.10, Abs: 1000}
	cases := []struct {
		name       string
		old, delta float64
		want       bool
	}{
		{"both exceeded", 100000, 20000, true},
		{"rel only (abs floor holds)", 5000, 900, false},
		{"abs only (rel holds)", 1e9, 2000, false},
		{"exactly abs", 100000, 1000, false},
		{"exactly rel", 100000, 10000, false},
		{"just past both", 100000, 10001, true},
		{"zero baseline, past abs", 0, 1001, true},
		{"zero baseline, at abs", 0, 1000, false},
		{"improvement", 100000, -20000, false},
	}
	for _, c := range cases {
		if got := th.Breached(c.old, c.delta); got != c.want {
			t.Errorf("%s: Breached(%v, %v) = %v, want %v", c.name, c.old, c.delta, got, c.want)
		}
	}
}

func TestBaselineMedianMAD(t *testing.T) {
	b := NewBaseline([]float64{10, 12, 11, 100, 9})
	if b.Median != 11 {
		t.Errorf("median = %v, want 11", b.Median)
	}
	// deviations: 1, 1, 0, 89, 2 → median 1. The outlier barely moves
	// the scale — the point of MAD over stddev.
	if b.MAD != 1 {
		t.Errorf("MAD = %v, want 1", b.MAD)
	}
	if flat := NewBaseline([]float64{7, 7, 7, 7}); flat.MAD != 0 || flat.Median != 7 {
		t.Errorf("flat series: got median %v MAD %v", flat.Median, flat.MAD)
	}
}

// TestClassifyDirections: a bad-direction step regresses, a
// good-direction step improves, and worseUp=false flips which is which.
func TestClassifyDirections(t *testing.T) {
	b := NewBaseline([]float64{100, 101, 99, 100, 100})
	th := Thresholds{Rel: 0.10, Abs: 1}
	if d := b.Classify(130, DefaultK, th, true); d != Regressed {
		t.Errorf("worse-up increase: %v, want regressed", d)
	}
	if d := b.Classify(70, DefaultK, th, true); d != Improved {
		t.Errorf("worse-up decrease: %v, want improved", d)
	}
	if d := b.Classify(130, DefaultK, th, false); d != Improved {
		t.Errorf("better-up increase: %v, want improved", d)
	}
	if d := b.Classify(70, DefaultK, th, false); d != Regressed {
		t.Errorf("better-up decrease: %v, want regressed", d)
	}
	if d := b.Classify(101, DefaultK, th, true); d != Flat {
		t.Errorf("inside envelope: %v, want flat", d)
	}
}

// TestIdenticalRunsGateClean: the acceptance contract — a candidate
// identical to a dead-flat baseline (same-seed repeat) must never flag,
// even though MAD is 0.
func TestIdenticalRunsGateClean(t *testing.T) {
	b := NewBaseline([]float64{4242, 4242, 4242, 4242, 4242})
	th := Thresholds{Rel: 0.10, Abs: 0}
	if b.Step(4242, DefaultK, th) {
		t.Error("identical candidate flagged as a step")
	}
	if d := b.Classify(4242, DefaultK, th, true); d != Flat {
		t.Errorf("identical candidate classified %v, want flat", d)
	}
}

// TestChangepointInjectedStep is the property the ISSUE names: an
// injected step of ≥20% on an otherwise stable series must be flagged,
// across many random series shapes.
func TestChangepointInjectedStep(t *testing.T) {
	rng := rand.New(rand.NewSource(1986))
	th := Thresholds{Rel: 0.10, Abs: 0}
	for trial := 0; trial < 200; trial++ {
		base := 1000 + rng.Float64()*1e6
		series := make([]float64, 12)
		for i := range series {
			// ±2% run-to-run noise around the level.
			series[i] = base * (1 + (rng.Float64()-0.5)*0.04)
		}
		stepAt := 6 + rng.Intn(5)
		factor := 1.20 + rng.Float64()*0.8 // +20%..+100%
		for i := stepAt; i < len(series); i++ {
			series[i] *= factor
		}
		steps := Changepoints(series, DefaultWindow, DefaultK, th)
		found := false
		for _, s := range steps {
			if s == stepAt {
				found = true
			}
		}
		if !found {
			t.Fatalf("trial %d: %.0f%% step at %d not flagged (steps %v, series %v)",
				trial, (factor-1)*100, stepAt, steps, series)
		}
	}
}

// TestChangepointJitterQuiet is the other half: ±5% jitter around a
// flat level must not flag (the rel floor is 10%, the MAD envelope
// absorbs the rest).
func TestChangepointJitterQuiet(t *testing.T) {
	rng := rand.New(rand.NewSource(824))
	th := Thresholds{Rel: 0.10, Abs: 0}
	for trial := 0; trial < 200; trial++ {
		base := 1000 + rng.Float64()*1e6
		series := make([]float64, 20)
		for i := range series {
			series[i] = base * (1 + (rng.Float64()-0.5)*0.10) // ±5%
		}
		if steps := Changepoints(series, DefaultWindow, DefaultK, th); len(steps) > 0 {
			t.Fatalf("trial %d: jitter-only series flagged at %v (series %v)", trial, steps, series)
		}
	}
}

func TestSlope(t *testing.T) {
	if s := Slope([]float64{1, 2, 3, 4, 5}); s < 0.999 || s > 1.001 {
		t.Errorf("linear series slope = %v, want 1", s)
	}
	if s := Slope([]float64{5, 5, 5, 5}); s != 0 {
		t.Errorf("flat series slope = %v, want 0", s)
	}
	if s := Slope([]float64{3}); s != 0 {
		t.Errorf("single point slope = %v, want 0", s)
	}
}

func TestMetricKeyHeuristics(t *testing.T) {
	if !BetterUp("bench.BenchmarkShardedFabric/shards8.refs_per_simms") {
		t.Error("refs_per_simms should be better-up")
	}
	if BetterUp("perf.arb_wait_ns.p99") {
		t.Error("arb wait should be worse-up")
	}
	if !Advisory("host.wall_ns") || !Advisory("host.gc_pause_total_ns") {
		t.Error("wall-clock metrics should be advisory")
	}
	if Advisory("host.alloc_objects_per_ref") {
		t.Error("allocation counts are deterministic, not advisory")
	}
	if f := AbsFloor("perf.arb_wait_ns.p99"); f != 1000 {
		t.Errorf("ns floor = %v, want 1000", f)
	}
	if f := AbsFloor("host.alloc_objects_per_ref"); f != 0.5 {
		t.Errorf("allocs floor = %v, want 0.5", f)
	}
	if f := AbsFloor("lens.moesi.mem_sourced_share"); f != 0.001 {
		t.Errorf("rate floor = %v, want 0.001", f)
	}
}

// TestHostTimeAdvisory: BENCH files' host-time columns (wall-clock and
// CPU ns/op, host ns per simulated reference, ns per grant) drift with
// host load on untouched code, so they never gate; a gated benchmark's
// allocation columns are deterministic and still do, as do the
// deterministic keys of other report kinds.
func TestHostTimeAdvisory(t *testing.T) {
	for _, key := range []string{
		"bench.BenchmarkBroadcastUpdate.ns_per_op",
		"bench.BenchmarkLayer/engine.cpu_ns_per_op",
		"bench.BenchmarkP1/moesi.hostns_per_ref",
		"bench.BenchmarkLayer/arbiter/contended.ns_per_grant",
	} {
		if !Advisory(key) {
			t.Errorf("%s should be advisory", key)
		}
	}
	for _, key := range []string{
		"bench.BenchmarkP1/moesi.B_per_op",
		"bench.BenchmarkP1/moesi.allocs_per_op",
		"host.alloc_objects_per_ref",
		"perf.arb_wait_ns.p99",
	} {
		if Advisory(key) {
			t.Errorf("%s is deterministic and must gate", key)
		}
	}
}

// TestBenchAdvisoryUnlessListed: of a bench record's keys only the
// B/op and allocs/op of a listed benchmark gate. The obs emit rung's
// footprint is the Go runtime's, an unlisted benchmark's allocations
// and a listed one's other figures, simulated ones included, are shown
// but never gate.
func TestBenchAdvisoryUnlessListed(t *testing.T) {
	for key, advisory := range map[string]bool{
		"bench.BenchmarkLayer/obs/emit.B_per_op":              true,
		"bench.BenchmarkLayer/obs/emit.allocs_per_op":         true,
		"bench.BenchmarkTable2.allocs_per_op":                 true,
		"bench.BenchmarkTable2.B_per_op":                      true,
		"bench.BenchmarkLayer/arbiter/contended.ns_per_grant": true,
		"bench.BenchmarkP1/moesi.allocs_per_ref":              true,
		"bench.BenchmarkP1/moesi.p99arb_ns":                   true,
		"bench.BenchmarkLayer/arbiter/contended.B_per_op":     false,
		"bench.BenchmarkLayer/obs/causal.allocs_per_op":       false,
		"bench.BenchmarkRandomPolicyChoice.B_per_op":          false,
	} {
		if Advisory(key) != advisory {
			t.Errorf("Advisory(%q) = %v, want %v", key, !advisory, advisory)
		}
	}
}

// TestBenchRatioPast: a time ratio is past its limit above it, a
// throughput ratio below it, and a ratio with no limit never is.
func TestBenchRatioPast(t *testing.T) {
	slow := BenchRatio{Num: "BenchmarkA/x", Den: "BenchmarkA/y", Unit: "ns_per_op", Limit: 1.05}
	scale := BenchRatio{Num: "BenchmarkS/8", Den: "BenchmarkS/1", Unit: "refs_per_simms", Limit: 2}
	free := BenchRatio{Num: "BenchmarkA/x", Den: "BenchmarkA/y", Unit: "ns_per_op"}
	if !slow.Past(1.06) || slow.Past(1.05) || !scale.Past(1.9) || scale.Past(2) || free.Past(100) {
		t.Error("Past misjudges a limit")
	}
	if k := slow.Key(); k != "ratio.x/y.ns_per_op" {
		t.Errorf("key %q", k)
	}
	m := map[string]float64{"bench.BenchmarkA/x.ns_per_op": 30, "bench.BenchmarkA/y.ns_per_op": 20}
	if v, ok := slow.Of(m); !ok || v != 1.5 {
		t.Errorf("Of = %v, %v; want 1.5, true", v, ok)
	}
	if _, ok := scale.Of(m); ok {
		t.Error("a ratio of missing figures")
	}
}

// TestThresholdsFor: the lens rates and a benchmark's allocation
// footprint default to 5% (B/op with no floor), everything else to
// 10%, a nonzero rel overrides both, and the floor is AbsFloor's.
func TestThresholdsFor(t *testing.T) {
	cases := []struct {
		key  string
		rel  float64
		want Thresholds
	}{
		{"lens.moesi.inv_per_transition", 0, Thresholds{Rel: 0.05, Abs: 0.001}},
		{"causal.by_cause.data_ns", 0, Thresholds{Rel: 0.10, Abs: 1000}},
		{"perf.arb_wait_ns.p99", 0.2, Thresholds{Rel: 0.2, Abs: 1000}},
		{"lens.moesi.transitions", 0.2, Thresholds{Rel: 0.2, Abs: 1e-9}},
		{"bench.BenchmarkP1/moesi.allocs_per_op", 0, Thresholds{Rel: 0.05, Abs: 0.5}},
		{"bench.BenchmarkBusLockedRMW.B_per_op", 0, Thresholds{Rel: 0.05, Abs: 0}},
		{"bench.BenchmarkP1/moesi.allocs_per_ref", 0, Thresholds{Rel: 0.10, Abs: 0.5}},
		{"host.alloc_bytes_per_ref", 0, Thresholds{Rel: 0.10, Abs: 8}},
	}
	for _, c := range cases {
		if got := ThresholdsFor(c.key, c.rel); got != c.want {
			t.Errorf("ThresholdsFor(%q, %v) = %+v, want %+v", c.key, c.rel, got, c.want)
		}
	}
}
