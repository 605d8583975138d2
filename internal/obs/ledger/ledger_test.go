package ledger

import (
	"encoding/json"
	"fmt"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
)

func sampleRecord(label string, metrics map[string]float64) Record {
	return Record{
		Schema: Schema,
		Kind:   KindPerf,
		Label:  label,
		Source: "test.json",
		Meta: Meta{
			GitSHA:     "abc1234",
			Go:         "go1.22.0",
			GOMAXPROCS: 8,
			CPUs:       8,
			DateUTC:    "2026-08-08T00:00:00Z",
		},
		Metrics: metrics,
	}
}

// TestLedgerSchemaAppendOnly pins the JSON field names of the ledger
// record, mirroring TestFbtSchemaAppendOnly: the ledger is an
// append-only file format read across many commits, so renaming or
// removing a field silently orphans every existing ledger line. If
// this test fails, the only acceptable fix is restoring the old names
// and ADDING new fields (bumping Schema if a field genuinely must
// change meaning).
func TestLedgerSchemaAppendOnly(t *testing.T) {
	rec := sampleRecord("battery/atomic/p8", map[string]float64{"perf.arb_wait_ns.p99": 4200})
	b, err := json.Marshal(rec)
	if err != nil {
		t.Fatal(err)
	}
	var got map[string]json.RawMessage
	if err := json.Unmarshal(b, &got); err != nil {
		t.Fatal(err)
	}
	for _, field := range []string{"schema", "kind", "label", "source", "_meta", "metrics"} {
		if _, ok := got[field]; !ok {
			t.Errorf("record is missing field %q — ledger field names are append-only", field)
		}
	}
	var meta map[string]json.RawMessage
	if err := json.Unmarshal(got["_meta"], &meta); err != nil {
		t.Fatal(err)
	}
	for _, field := range []string{"git_sha", "go", "gomaxprocs", "cpus", "date_utc"} {
		if _, ok := meta[field]; !ok {
			t.Errorf("_meta is missing field %q — ledger field names are append-only", field)
		}
	}
	if Schema != 1 {
		t.Errorf("Schema = %d, want 1 — bump only when an existing field changes meaning", Schema)
	}
	for name, kind := range map[string]string{
		"KindBench": KindBench, "KindPerf": KindPerf, "KindCausal": KindCausal,
		"KindLens": KindLens, "KindSweep": KindSweep,
	} {
		want := map[string]string{
			"KindBench": "bench", "KindPerf": "fbperf", "KindCausal": "fbcausal",
			"KindLens": "fblens", "KindSweep": "fbsweep",
		}[name]
		if kind != want {
			t.Errorf("%s = %q, want %q — kind strings are part of the on-disk format", name, kind, want)
		}
	}
}

// TestAppendReadRoundTrip: records survive Append/Read bit-exact, and
// appending again extends the file instead of rewriting it.
func TestAppendReadRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "ledger.jsonl")
	r1 := sampleRecord("a", map[string]float64{"perf.arb_wait_ns.p99": 4200, "queue.peak_depth": 3})
	r2 := sampleRecord("a", map[string]float64{"perf.arb_wait_ns.p99": 4300, "queue.peak_depth": 3})
	if err := Append(path, r1); err != nil {
		t.Fatal(err)
	}
	if err := Append(path, r2); err != nil {
		t.Fatal(err)
	}
	recs, dropped, err := Read(path)
	if err != nil {
		t.Fatal(err)
	}
	if dropped != 0 {
		t.Errorf("dropped = %d, want 0", dropped)
	}
	if len(recs) != 2 {
		t.Fatalf("read %d records, want 2", len(recs))
	}
	if !reflect.DeepEqual(recs[0], r1) || !reflect.DeepEqual(recs[1], r2) {
		t.Errorf("round-trip mismatch:\n got %+v\n     %+v\nwant %+v\n     %+v", recs[0], recs[1], r1, r2)
	}
}

// TestTruncatedTrailingRecordTolerated: a crashed writer leaves a
// partial last line; the reader must keep everything before it and
// report exactly one dropped record.
func TestTruncatedTrailingRecordTolerated(t *testing.T) {
	r1 := sampleRecord("a", map[string]float64{"m": 1})
	full, err := json.Marshal(r1)
	if err != nil {
		t.Fatal(err)
	}
	line := string(full)
	input := line + "\n" + line[:len(line)/2]
	recs, dropped, err := Decode(strings.NewReader(input))
	if err != nil {
		t.Fatalf("truncated tail must be tolerated, got %v", err)
	}
	if dropped != 1 {
		t.Errorf("dropped = %d, want 1", dropped)
	}
	if len(recs) != 1 || !reflect.DeepEqual(recs[0], r1) {
		t.Errorf("history before the truncation lost: got %d records", len(recs))
	}
}

// TestMidFileCorruptionIsAnError: a bad line FOLLOWED by more records
// is damage, not an interrupted append — refusing to guess beats
// silently skipping history.
func TestMidFileCorruptionIsAnError(t *testing.T) {
	r1 := sampleRecord("a", map[string]float64{"m": 1})
	full, err := json.Marshal(r1)
	if err != nil {
		t.Fatal(err)
	}
	line := string(full)
	for _, input := range []string{
		line + "\n{garbage\n" + line + "\n",               // bad then valid
		line + "\n{garbage\n{more garbage\n",              // bad then bad
		line + "\n" + `{"schema":1}` + "\n" + line + "\n", // kind-less then valid
	} {
		if _, _, err := Decode(strings.NewReader(input)); err == nil {
			t.Errorf("mid-file corruption not rejected for input %q", input)
		}
	}
}

// TestBlankLinesIgnored: blank separator lines (hand-edited ledgers)
// are not records and not corruption.
func TestBlankLinesIgnored(t *testing.T) {
	r1 := sampleRecord("a", map[string]float64{"m": 1})
	full, _ := json.Marshal(r1)
	recs, dropped, err := Decode(strings.NewReader("\n" + string(full) + "\n\n" + string(full) + "\n\n"))
	if err != nil || dropped != 0 || len(recs) != 2 {
		t.Errorf("blank lines mishandled: recs=%d dropped=%d err=%v", len(recs), dropped, err)
	}
}

func TestFilterAndKeys(t *testing.T) {
	recs := []Record{
		sampleRecord("a", map[string]float64{"x": 1, "y": 2}),
		sampleRecord("b", map[string]float64{"y": 3, "z": 4}),
		{Schema: Schema, Kind: KindBench, Metrics: map[string]float64{"w": 5}},
	}
	if got := Filter(recs, KindPerf, ""); len(got) != 2 {
		t.Errorf("Filter(kind=fbperf) = %d records, want 2", len(got))
	}
	if got := Filter(recs, KindPerf, "b"); len(got) != 1 || got[0].Label != "b" {
		t.Errorf("Filter(kind=fbperf,label=b) wrong: %+v", got)
	}
	if got := Filter(recs, "", ""); len(got) != 3 {
		t.Errorf("Filter(all) = %d records, want 3", len(got))
	}
	if got := Keys(recs); !reflect.DeepEqual(got, []string{"w", "x", "y", "z"}) {
		t.Errorf("Keys = %v, want [w x y z]", got)
	}
}

func TestSeries(t *testing.T) {
	recs := []Record{
		sampleRecord("a", map[string]float64{"m": 1}),
		sampleRecord("a", map[string]float64{"other": 9}),
		sampleRecord("a", map[string]float64{"m": 2}),
		sampleRecord("a", map[string]float64{"m": 3}),
	}
	if got := Series(recs, "m"); !reflect.DeepEqual(got, []float64{1, 2, 3}) {
		t.Errorf("Series = %v, want [1 2 3]", got)
	}
}

// gateHistory builds n history records of one flat metric value. The
// p99 level is chosen well above the 1µs absolute ns floor so a 20%
// step is a genuine move, not floor-sized wobble.
func gateHistory(n int, v float64) []Record {
	recs := make([]Record, n)
	for i := range recs {
		recs[i] = sampleRecord("a", map[string]float64{
			"perf.arb_wait_ns.p99":     v,
			"host.alloc_bytes_per_ref": 100,
			"host.wall_ns":             1e9 * float64(1+i%3), // noisy advisory
		})
	}
	return recs
}

// TestGateCleanOnRepeat is the acceptance contract's clean half: a
// candidate identical to a 5-run flat baseline gates ok — including
// wildly noisy advisory metrics, which must never flip the verdict.
func TestGateCleanOnRepeat(t *testing.T) {
	hist := gateHistory(5, 42000)
	cand := sampleRecord("a", map[string]float64{
		"perf.arb_wait_ns.p99":     42000,
		"host.alloc_bytes_per_ref": 100,
		"host.wall_ns":             9e9, // 3-9x the history: advisory, must not gate
	})
	rep := Gate(hist, cand, GateOpts{})
	if rep.Verdict != "ok" {
		t.Fatalf("verdict = %q, want ok (report %+v)", rep.Verdict, rep)
	}
	if rep.Regressions != 0 {
		t.Errorf("regressions = %d, want 0", rep.Regressions)
	}
}

// TestGateCatchesInjectedRegression is the acceptance contract's other
// half: a ≥20% p99 step against a 5-run rolling baseline exits the
// gate regressed, and an allocation step is caught the same way.
func TestGateCatchesInjectedRegression(t *testing.T) {
	hist := gateHistory(5, 42000)
	cand := sampleRecord("a", map[string]float64{
		"perf.arb_wait_ns.p99":     42000 * 1.20,
		"host.alloc_bytes_per_ref": 100 * 1.25,
	})
	rep := Gate(hist, cand, GateOpts{})
	if rep.Verdict != "regressed" {
		t.Fatalf("verdict = %q, want regressed (report %+v)", rep.Verdict, rep)
	}
	if rep.Regressions != 2 {
		t.Errorf("regressions = %d, want 2 (p99 and alloc_bytes)", rep.Regressions)
	}
	for _, row := range rep.Rows {
		if row.Key == "perf.arb_wait_ns.p99" && row.Direction != "regressed" {
			t.Errorf("p99 row direction = %q, want regressed", row.Direction)
		}
	}
}

// TestGateBetterUpMetricImprovement: a big jump in a better-up metric
// (fairness) classifies improved, not regressed.
func TestGateBetterUpMetricImprovement(t *testing.T) {
	hist := make([]Record, 5)
	for i := range hist {
		hist[i] = sampleRecord("a", map[string]float64{"queue.arb_fairness": 0.5})
	}
	cand := sampleRecord("a", map[string]float64{"queue.arb_fairness": 0.9})
	rep := Gate(hist, cand, GateOpts{})
	if rep.Verdict != "ok" || rep.Improvements != 1 {
		t.Errorf("fairness jump: verdict=%q improvements=%d, want ok/1 (%+v)", rep.Verdict, rep.Improvements, rep.Rows)
	}
	// And the bad direction still trips.
	worse := sampleRecord("a", map[string]float64{"queue.arb_fairness": 0.2})
	if rep := Gate(hist, worse, GateOpts{}); rep.Verdict != "regressed" {
		t.Errorf("fairness drop: verdict=%q, want regressed", rep.Verdict)
	}
}

// TestGateNoBaseline: a single prior run is a pairwise diff, not a
// baseline — the gate must refuse a verdict rather than invent one.
func TestGateNoBaseline(t *testing.T) {
	hist := gateHistory(1, 42000)
	cand := sampleRecord("a", map[string]float64{"perf.arb_wait_ns.p99": 9000})
	rep := Gate(hist, cand, GateOpts{})
	if rep.Verdict != "no-baseline" {
		t.Errorf("verdict = %q, want no-baseline", rep.Verdict)
	}
	if rep := Gate(nil, cand, GateOpts{}); rep.Verdict != "no-baseline" {
		t.Errorf("empty history verdict = %q, want no-baseline", rep.Verdict)
	}
}

// TestGateWindowSlides: only the trailing Window runs form the
// baseline, so an old bad era scrolls out of judgment.
func TestGateWindowSlides(t *testing.T) {
	hist := append(gateHistory(10, 90000), gateHistory(5, 42000)...)
	cand := sampleRecord("a", map[string]float64{"perf.arb_wait_ns.p99": 42000})
	rep := Gate(hist, cand, GateOpts{Window: 5})
	if rep.Verdict != "ok" {
		t.Fatalf("verdict = %q, want ok — the 90000ns era must have scrolled out", rep.Verdict)
	}
	for _, row := range rep.Rows {
		if row.Key == "perf.arb_wait_ns.p99" && row.Baseline.Median != 42000 {
			t.Errorf("baseline median = %v, want 42000 (window did not slide)", row.Baseline.Median)
		}
	}
}

// regressedKeys lists the rows of rep that regressed.
func regressedKeys(rep GateReport) []string {
	var keys []string
	for _, row := range rep.Rows {
		if row.Direction == "regressed" {
			keys = append(keys, row.Key)
		}
	}
	return keys
}

// TestDiffZeroFill: in causal and lens records a key only one side
// carries counts as 0 on the other, so a blame category that appears
// and a protocol that vanishes are judged like any other move.
func TestDiffZeroFill(t *testing.T) {
	rec := func(kind string, m map[string]float64) Record {
		return Record{Schema: Schema, Kind: kind, Metrics: m}
	}
	cases := []struct {
		name       string
		base, cand Record
		want       []string
	}{
		{"bs-retry appears above 1µs",
			rec(KindCausal, map[string]float64{"causal.total_cost_ns": 1e6}),
			rec(KindCausal, map[string]float64{"causal.total_cost_ns": 1e6, "causal.by_cause.bs-retry_ns": 1500}),
			[]string{"causal.by_cause.bs-retry_ns"}},
		{"bs-retry appears under 1µs",
			rec(KindCausal, map[string]float64{"causal.total_cost_ns": 1e6}),
			rec(KindCausal, map[string]float64{"causal.total_cost_ns": 1e6, "causal.by_cause.bs-retry_ns": 900}),
			nil},
		{"protocol only in the baseline",
			rec(KindLens, map[string]float64{"lens.moesi.cache_sourced_share": 0.75, "lens.dragon.cache_sourced_share": 0.5}),
			rec(KindLens, map[string]float64{"lens.moesi.cache_sourced_share": 0.75}),
			[]string{"lens.dragon.cache_sourced_share"}},
	}
	for _, c := range cases {
		rep := Diff(c.base, c.cand, 0)
		if got := regressedKeys(rep); !reflect.DeepEqual(got, c.want) {
			t.Errorf("%s: regressed %v, want %v (rows %+v)", c.name, got, c.want, rep.Rows)
		}
	}
}

// TestDiffBenchAddedBenchmark: in a bench record a missing key means
// the benchmark was not run, not that it measured 0, so a benchmark new
// in the candidate is a "(no baseline)" row and one the candidate
// dropped is not judged; the diff stays clean.
func TestDiffBenchAddedBenchmark(t *testing.T) {
	base := Record{Schema: Schema, Kind: KindBench, Metrics: map[string]float64{
		"bench.BenchmarkP4.allocs_per_op":       230,
		"bench.BenchmarkP1/moesi.allocs_per_op": 40,
	}}
	cand := Record{Schema: Schema, Kind: KindBench, Metrics: map[string]float64{
		"bench.BenchmarkP1/moesi.allocs_per_op":     40,
		"bench.BenchmarkLayer/engine.allocs_per_op": 500,
		"bench.BenchmarkLayer/engine.B_per_op":      12_000,
	}}
	rep := Diff(base, cand, 0)
	if rep.Verdict != "ok" || rep.Regressions != 0 || len(rep.Rows) != 3 {
		t.Fatalf("verdict %q, %d regressed, %d rows; want ok, 0, 3 (rows %+v)", rep.Verdict, rep.Regressions, len(rep.Rows), rep.Rows)
	}
	for _, row := range rep.Rows {
		if skipped := strings.HasPrefix(row.Key, "bench.BenchmarkLayer/engine."); row.Skipped != skipped {
			t.Errorf("%s: skipped %v, want %v", row.Key, row.Skipped, skipped)
		}
	}
	var sb strings.Builder
	rep.Render(&sb)
	if out := sb.String(); !strings.Contains(out, "(no baseline)") || strings.Contains(out, "BenchmarkP4") {
		t.Errorf("render: want the new benchmark's rows marked (no baseline) and no row for the dropped one:\n%s", out)
	}
}

// gatedBench are the benchmarks whose B/op and allocs/op CI's
// allocation gate has judged since the layer ladder's sink rungs joined
// it. None may drop out of the gate.
var gatedBench = []string{
	"BenchmarkBusLockedRMW", "BenchmarkP1/moesi", "BenchmarkP4", "BenchmarkRandomPolicyChoice",
	"BenchmarkLayer/engine", "BenchmarkLayer/snoop/held-0", "BenchmarkLayer/snoop/held-1",
	"BenchmarkLayer/snoop/held-7", "BenchmarkLayer/arbiter/uncontended",
	"BenchmarkLayer/arbiter/contended", "BenchmarkLayer/obs/record",
	"BenchmarkLayer/obs/coherence", "BenchmarkLayer/obs/watch", "BenchmarkLayer/obs/perf",
	"BenchmarkLayer/obs/causal",
}

// gatedRegressions returns the keys of the rows that flip the verdict.
func gatedRegressions(rep GateReport) []string {
	var keys []string
	for _, row := range rep.Rows {
		if row.Direction == "regressed" && !row.Advisory {
			keys = append(keys, row.Key)
		}
	}
	return keys
}

// TestDiffBenchGatedPairs: every (gated benchmark, unit) pair regresses
// one unit past the limit the allocation gate has always applied
// (B/op past base×1.05, allocs/op past base×1.05 + 0.5), whatever the
// baseline, and it is the only key that does: the same benchmark's
// ns/op, allocs per reference and ns per grant, doubled beside it, stay
// advisory.
func TestDiffBenchGatedPairs(t *testing.T) {
	limit := map[string]func(float64) float64{
		"B_per_op":      func(b float64) float64 { return b * 1.05 },
		"allocs_per_op": func(b float64) float64 { return b*1.05 + 0.5 },
	}
	for _, name := range gatedBench {
		for unit, lim := range limit {
			for _, b := range []float64{0, 1, 86, 67792} {
				base := Record{Schema: Schema, Kind: KindBench, Metrics: map[string]float64{}}
				cand := Record{Schema: Schema, Kind: KindBench, Metrics: map[string]float64{}}
				for _, u := range []string{"B_per_op", "allocs_per_op", "ns_per_op", "allocs_per_ref", "ns_per_grant"} {
					base.Metrics["bench."+name+"."+u] = b + 100
					cand.Metrics["bench."+name+"."+u] = 2 * (b + 100)
				}
				key := "bench." + name + "." + unit
				base.Metrics[key] = b
				cand.Metrics[key] = lim(b) + 1
				other := "bench." + name + ".B_per_op"
				if unit == "B_per_op" {
					other = "bench." + name + ".allocs_per_op"
				}
				cand.Metrics[other] = base.Metrics[other]
				rep := Diff(base, cand, 0)
				if got := gatedRegressions(rep); !reflect.DeepEqual(got, []string{key}) || rep.Verdict != "regressed" {
					t.Errorf("%s %v -> %v: regressed %v (verdict %s), want only %s", key, b, cand.Metrics[key], got, rep.Verdict, key)
				}
			}
		}
	}
}

// TestDiffBenchRatioRows: a bench report shows the intra-run overhead
// and scaling ratios as advisory rows, each marked WARN past its limit
// and none flipping the verdict.
func TestDiffBenchRatioRows(t *testing.T) {
	doc := func(fbt, serve, watch, perf, shards8 float64) Record {
		m := map[string]float64{"bench.BenchmarkP4.allocs_per_op": 100}
		for name, v := range map[string]float64{
			"BenchmarkObsRecordingOverhead/off":       1000,
			"BenchmarkObsRecordingOverhead/fbt":       1000 * fbt,
			"BenchmarkObsRecordingOverhead/serve":     1000 * serve,
			"BenchmarkWatchSinkOverhead/record":       2000,
			"BenchmarkWatchSinkOverhead/record+watch": 2000 * watch,
			"BenchmarkPerfSinkOverhead/record":        4000,
			"BenchmarkPerfSinkOverhead/record+perf":   4000 * perf,
		} {
			m["bench."+name+".ns_per_op"] = v
			m["bench."+name+".cpu_ns_per_op"] = 2 * v
		}
		m["bench.BenchmarkShardedFabric/shards1.refs_per_simms"] = 10_000
		m["bench.BenchmarkShardedFabric/shards8.refs_per_simms"] = 10_000 * shards8
		return Record{Schema: Schema, Kind: KindBench, Metrics: m}
	}
	want := []struct {
		key   string
		limit float64
	}{
		{"ratio.fbt/off.ns_per_op", 1.05},
		{"ratio.fbt/off.cpu_ns_per_op", 0},
		{"ratio.serve/off.ns_per_op", 0},
		{"ratio.serve/off.cpu_ns_per_op", 0},
		{"ratio.record+watch/record.ns_per_op", 1.10},
		{"ratio.record+watch/record.cpu_ns_per_op", 0},
		{"ratio.record+perf/record.ns_per_op", 1.10},
		{"ratio.record+perf/record.cpu_ns_per_op", 0},
		{"ratio.shards8/shards1.refs_per_simms", 2},
	}
	base := doc(1.02, 3.1, 1.05, 1.05, 4.4)
	for _, c := range []struct {
		name string
		cand Record
		past bool
	}{
		{"within limits", doc(1.04, 9, 1.09, 1.09, 2.1), false},
		{"past limits", doc(1.06, 9, 1.11, 1.11, 1.9), true},
	} {
		rep := Diff(base, c.cand, 0)
		rows := map[string]GateRow{}
		for _, row := range rep.Rows {
			rows[row.Key] = row
		}
		for _, w := range want {
			row, ok := rows[w.key]
			if !ok {
				t.Errorf("%s: no %s row", c.name, w.key)
				continue
			}
			wantDir := "flat"
			if c.past && w.limit != 0 {
				wantDir = "regressed"
			}
			if !row.Advisory || row.Limit != w.limit || row.Direction != wantDir {
				t.Errorf("%s: %s advisory %v, limit %v, %s; want advisory, limit %v, %s", c.name, w.key, row.Advisory, row.Limit, row.Direction, w.limit, wantDir)
			}
		}
		if rep.Verdict != "ok" {
			t.Errorf("%s: verdict %s, want ok (ratios are advisory)", c.name, rep.Verdict)
		}
		var sb strings.Builder
		rep.Render(&sb)
		if warned := strings.Contains(sb.String(), "(advisory, limit 2) WARN"); warned != c.past {
			t.Errorf("%s: shard-scaling row marked WARN %v, want %v:\n%s", c.name, warned, c.past, sb.String())
		}
	}
	perf := doc(2, 2, 2, 2, 1)
	perf.Kind = KindPerf
	if rows := Diff(perf, perf, 0).Rows; len(rows) != len(perf.Metrics) {
		t.Errorf("a non-bench record got %d rows for %d metrics", len(rows), len(perf.Metrics))
	}
}

// TestDiffBenchAllocationFootprint: a bench diff judges a gated
// benchmark's allocations on 5% of the baseline: P1/moesi going
// from 224 to 240 allocs/op (+7.1%) and the atomic fast path from 0 to
// 8 B/op both regress, while wall-clock ns/op stays advisory.
func TestDiffBenchAllocationFootprint(t *testing.T) {
	doc := func(p1Allocs, rmwBytes, rmwNs int) Record {
		t.Helper()
		recs, err := Ingest([]byte(fmt.Sprintf(`{
  "BenchmarkP1/moesi": {"runs": 5, "ns_per_op": 2137872, "B_per_op": 78452, "allocs_per_op": %d},
  "BenchmarkBusLockedRMW": {"runs": 5, "ns_per_op": %d, "B_per_op": %d, "allocs_per_op": 0}
}`, p1Allocs, rmwNs, rmwBytes)), "bench.json")
		if err != nil || len(recs) != 1 {
			t.Fatalf("ingest: %v (%d records)", err, len(recs))
		}
		return recs[0]
	}
	base := doc(224, 0, 338)
	rep := Diff(base, doc(240, 8, 600), 0)
	want := []string{"bench.BenchmarkBusLockedRMW.B_per_op", "bench.BenchmarkP1/moesi.allocs_per_op"}
	if got := regressedKeys(rep); !reflect.DeepEqual(got, want) {
		t.Errorf("regressed %v, want %v (rows %+v)", got, want, rep.Rows)
	}
	if rep := Diff(base, doc(235, 0, 338), 0); rep.Regressions != 0 {
		t.Errorf("224 -> 235 allocs/op is within 5%%, yet %v regressed", regressedKeys(rep))
	}
}

// TestDiffIsOneRunGate: Diff is Gate over a one-run history, so the
// lens rates get the 5% relative default, everything else 10%, and a
// nonzero rel overrides both; labels are noted, never filtered.
func TestDiffIsOneRunGate(t *testing.T) {
	base := sampleRecord("a", map[string]float64{"lens.moesi.inv_per_transition": 0.100, "perf.arb_wait_ns.p99": 100_000})
	cand := sampleRecord("b", map[string]float64{"lens.moesi.inv_per_transition": 0.107, "perf.arb_wait_ns.p99": 107_000})
	rep := Diff(base, cand, 0)
	if got := regressedKeys(rep); !reflect.DeepEqual(got, []string{"lens.moesi.inv_per_transition"}) {
		t.Errorf("default thresholds: regressed %v, want only the lens rate (7%% > 5%%, 7%% < 10%%)", got)
	}
	if rep.Runs != 1 || rep.Note == "" || rep.Label != "b" {
		t.Errorf("runs %d, note %q, label %q: want 1, a configs note, the candidate's label", rep.Runs, rep.Note, rep.Label)
	}
	if got := regressedKeys(Diff(base, cand, 0.06)); len(got) != 2 {
		t.Errorf("-rel 0.06: regressed %v, want both", got)
	}
	if got := regressedKeys(Diff(cand, base, 0)); len(got) != 0 {
		t.Errorf("reverse diff regressed %v, want none (both improved)", got)
	}
}

// TestRenderMarksVerdicts: one row per metric with its verdict, then the
// verdict line and the regression count CI greps for.
func TestRenderMarksVerdicts(t *testing.T) {
	base := sampleRecord("a", map[string]float64{"perf.arb_wait_ns.p99": 42_000, "host.wall_ns": 1e9})
	cand := sampleRecord("a", map[string]float64{"perf.arb_wait_ns.p99": 84_000, "host.wall_ns": 9e9})
	var sb strings.Builder
	Diff(base, cand, 0).Render(&sb)
	out := sb.String()
	for _, want := range []string{
		"perf.arb_wait_ns.p99", "+100.0%  REGRESSED", "(advisory)",
		"verdict: regressed (1 regressed, 0 improved)\n1 regression(s)\n",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("render lacks %q:\n%s", want, out)
		}
	}
	sb.Reset()
	Diff(base, base, 0).Render(&sb)
	if !strings.HasSuffix(sb.String(), "verdict: ok (0 regressed, 0 improved)\nno regressions\n") {
		t.Errorf("self-diff render:\n%s", sb.String())
	}
}
