package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"futurebus/internal/obs"
	"futurebus/internal/obs/ledger"
	"futurebus/internal/obs/perf"
)

// report is a minimal fbperf run report: two latency digests, two
// arbitration queues and the host-cost block.
func report() *ledger.PerfReport {
	return &ledger.PerfReport{
		Battery: "fixture", Engine: "det", Procs: 4, Refs: 1000, Seed: 1986,
		Host: perf.HostReport{
			WallNS: 1_000_000, Refs: 1000,
			AllocBytesPerRef: 128, AllocObjectsPerRef: 2,
			RefsPerSec: 1e6, GCPauseTotalNS: 50,
		},
		Sim: &perf.Snapshot{
			Events: 5000,
			Latency: map[string]obs.Summary{
				perf.MetricArbWait: {Count: 900, P50: 1200, P99: 42_000, P999: 51_000},
				perf.MetricTenure:  {Count: 900, P50: 650, P99: 1200, P999: 1300},
			},
			Queue:       []perf.QueueStats{{Bus: 0, Peak: 3}, {Bus: 1, Peak: 5}},
			ArbFairness: 0.93,
		},
	}
}

// record ingests rep as fbtrend does: encoded to JSON, then read back
// by ledger.Ingest.
func record(t *testing.T, rep *ledger.PerfReport) ledger.Record {
	t.Helper()
	data, err := json.Marshal(rep)
	if err != nil {
		t.Fatal(err)
	}
	recs, err := ledger.Ingest(data, "perf.json")
	if err != nil || len(recs) != 1 {
		t.Fatalf("Ingest = %d records, %v", len(recs), err)
	}
	return recs[0]
}

func regressed(rep ledger.GateReport) []string {
	var keys []string
	for _, row := range rep.Rows {
		if row.Direction == "regressed" && !row.Advisory {
			keys = append(keys, row.Key)
		}
	}
	return keys
}

// A report diffed against itself must never regress — the CI self-diff
// gate depends on this being exactly zero.
func TestCompareSelfDiffClean(t *testing.T) {
	rec := record(t, report())
	if rep := ledger.Diff(rec, rec, 0); rep.Verdict != "ok" || rep.Regressions != 0 {
		t.Fatalf("self-diff verdict %q, regressed %v", rep.Verdict, regressed(rep))
	}
}

// CI's injected regression doubles the arb-wait p99 and triples the
// objects allocated per reference; exactly those two rows must flag.
func TestCompareInjectedRegression(t *testing.T) {
	bad := report()
	arb := bad.Sim.Latency[perf.MetricArbWait]
	arb.P99 = arb.P99*2 + 100_000
	bad.Sim.Latency[perf.MetricArbWait] = arb
	bad.Host.AllocObjectsPerRef = bad.Host.AllocObjectsPerRef*3 + 10
	rep := ledger.Diff(record(t, report()), record(t, bad), 0)
	want := []string{"host.alloc_objects_per_ref", "perf.arb_wait_ns.p99"}
	if got := regressed(rep); !slices.Equal(got, want) || rep.Verdict != "regressed" {
		t.Errorf("regressed rows %v (verdict %q), want %v", got, rep.Verdict, want)
	}
}

// The gate requires BOTH the relative and the absolute threshold to be
// exceeded: a large relative jump on a tiny baseline (under the
// absolute floor) and a small relative drift on a large baseline must
// both pass, and a zero baseline gates on the absolute floor alone.
func TestDeltaDoubleCondition(t *testing.T) {
	cases := []struct {
		name     string
		key      string
		old, new float64
		want     bool
	}{
		{"tiny-baseline-big-rel", "perf.arb_wait_ns.p99", 10, 100, false},
		{"big-baseline-small-rel", "perf.arb_wait_ns.p99", 1_000_000, 1_040_000, false},
		{"both-exceeded", "perf.arb_wait_ns.p99", 10_000, 20_000, true},
		{"advisory-never-gates", "host.wall_ns", 10_000, 90_000, false},
		{"zero-baseline-above-abs", "perf.arb_wait_ns.p99", 0, 5_000, true},
		{"zero-baseline-under-abs", "perf.arb_wait_ns.p99", 0, 900, false},
		{"alloc-objects-past-half", "host.alloc_objects_per_ref", 2, 2.6, true},
		{"queue-depth-under-two", "queue.peak_depth", 5, 7, false},
	}
	for _, c := range cases {
		rec := func(v float64) ledger.Record {
			return ledger.Record{Kind: ledger.KindPerf, Metrics: map[string]float64{c.key: v}}
		}
		if got := ledger.Diff(rec(c.old), rec(c.new), 0).Regressions > 0; got != c.want {
			t.Errorf("%s: %s %v → %v regressed = %v, want %v", c.name, c.key, c.old, c.new, got, c.want)
		}
	}
}

// Host-time metrics must be present but advisory: they never gate.
func TestCompareWallClockAdvisory(t *testing.T) {
	slow := report()
	slow.Host.WallNS *= 10
	slow.Host.GCPauseTotalNS *= 10
	slow.Host.RefsPerSec /= 10
	rep := ledger.Diff(record(t, report()), record(t, slow), 0)
	seen := 0
	for _, row := range rep.Rows {
		switch row.Key {
		case "host.wall_ns", "host.gc_pause_total_ns", "host.refs_per_sec":
			seen++
			if !row.Advisory {
				t.Errorf("%s must be advisory", row.Key)
			}
		}
	}
	if seen != 3 || rep.Verdict != "ok" {
		t.Errorf("saw %d host-time rows, verdict %q; want 3 advisory rows and ok", seen, rep.Verdict)
	}
}

// A report without sim telemetry is not an fbperf run report.
func TestReadReportRejectsMissingSim(t *testing.T) {
	rep := report()
	rep.Sim = nil
	data, err := json.Marshal(rep)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ledger.Ingest(data, "perf.json"); err == nil {
		t.Error("fbperf report with \"sim\": null: want an Ingest error")
	}
	if _, err := ledger.Ingest([]byte(`{"battery": "ab", "engine": "det"}`), "perf.json"); err == nil {
		t.Error("fbperf report without \"sim\": want an Ingest error")
	}
}

// TestRunExitStatuses drives run through each status: 0 for a clean run
// (and on -h), 2 for every usage, input and I/O error.
func TestRunExitStatuses(t *testing.T) {
	dir := t.TempDir()
	out := filepath.Join(dir, "perf.json")
	small := []string{"-refs", "50", "-procs", "2"}
	for _, c := range []struct {
		args []string
		code int
	}{
		{append([]string{"run", "-out", out}, small...), 0},
		{append([]string{"run", "-engine", "conc", "-out", "-"}, small...), 0},
		{[]string{"run", "-h"}, 0},
		{[]string{"-h"}, 0},
		{[]string{"-help"}, 0},
		{[]string{"--help"}, 0},
		{[]string{"help"}, 0},
		{nil, 2},
		{[]string{"compare", "a.json", "b.json"}, 2},
		{[]string{"run", "-no-such-flag"}, 2},
		{[]string{"run", "extra"}, 2},
		{[]string{"run", "-battery", "no-such-battery"}, 2},
		{[]string{"run", "-engine", "no-such-engine"}, 2},
		{append([]string{"run", "-shards", "3"}, small...), 2},
		{append([]string{"run", "-out", filepath.Join(dir, "no-dir", "perf.json")}, small...), 2},
		{[]string{"run", "-procs", "-3"}, 2},
		{[]string{"run", "-procs", "0"}, 2},
		{[]string{"run", "-sample", "0"}, 2},
		{[]string{"run", "-sample", "-1s"}, 2},
		{[]string{"run", "-refs", "0"}, 2},
		{[]string{"run", "-refs", "-1"}, 2},
	} {
		var stdout, stderr strings.Builder
		code := run(c.args, &stdout, &stderr)
		if code != c.code || strings.Contains(stderr.String(), "panic") {
			t.Errorf("fbperf %s: exit %d, want %d\nstderr:\n%s", strings.Join(c.args, " "), code, c.code, stderr.String())
		}
	}
	data, err := os.ReadFile(out)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ledger.Ingest(data, out); err != nil {
		t.Errorf("the clean run's report does not ingest: %v", err)
	}
}
