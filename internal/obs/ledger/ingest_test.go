package ledger

import (
	"math"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
)

const benchFixture = `{
  "_meta": {"git_sha": "71f4e93", "go": "go1.24.0", "gomaxprocs": 1, "cpus": 1, "date_utc": "2026-08-08T12:25:21Z"},
  "BenchmarkTable1": {"runs": 5, "ns_per_op": 30540, "B_per_op": 14248, "allocs_per_op": 304},
  "BenchmarkP1/moesi": {"runs": 5, "ns_per_op": 4464077, "bytes_per_ref": 5.058}
}`

func TestIngestBench(t *testing.T) {
	recs, err := Ingest([]byte(benchFixture), "BENCH_2026-08-08.json")
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 1 {
		t.Fatalf("got %d records, want 1", len(recs))
	}
	rec := recs[0]
	if rec.Kind != KindBench {
		t.Errorf("kind = %q, want %q", rec.Kind, KindBench)
	}
	if rec.Meta.GitSHA != "71f4e93" || rec.Meta.Go != "go1.24.0" {
		t.Errorf("meta not copied: %+v", rec.Meta)
	}
	if rec.Source != "BENCH_2026-08-08.json" {
		t.Errorf("source = %q", rec.Source)
	}
	if v := rec.Metrics["bench.BenchmarkTable1.ns_per_op"]; v != 30540 {
		t.Errorf("Table1 ns_per_op = %v, want 30540", v)
	}
	if v := rec.Metrics["bench.BenchmarkP1/moesi.bytes_per_ref"]; v != 5.058 {
		t.Errorf("P1/moesi bytes_per_ref = %v, want 5.058", v)
	}
	if _, ok := rec.Metrics["bench.BenchmarkTable1.runs"]; ok {
		t.Error("'runs' is bookkeeping, not a metric")
	}
}

const perfFixture = `{
  "_meta": {"git_sha": "abc", "go": "fixture", "gomaxprocs": 1, "cpus": 1, "date_utc": "2026-08-08T00:00:00Z"},
  "battery": "fixture", "engine": "det", "procs": 4, "refs": 1000, "seed": 1986,
  "host": {
    "wall_ns": 1000000, "refs": 1000,
    "alloc_bytes_per_ref": 128, "alloc_objects_per_ref": 2,
    "refs_per_sec": 1000000, "gc_pause_total_ns": 50
  },
  "sim": {
    "events": 5000,
    "latency": {
      "perf.arb_wait_ns": {"count": 900, "mean": 1500, "min": 100, "p50": 1200, "p90": 2500, "p95": 3000, "p99": 4200, "p999": 5100, "max": 6000},
      "perf.bus_tenure_ns": {"count": 900, "mean": 700, "min": 200, "p50": 650, "p90": 900, "p95": 1000, "p99": 1200, "p999": 1300, "max": 1400}
    },
    "queue": [{"bus": 0, "waits": 10, "peak": 3, "depth": {}}, {"bus": 1, "waits": 2, "peak": 5, "depth": {}}],
    "arb_fairness": 0.93
  }
}`

func TestIngestPerf(t *testing.T) {
	recs, err := Ingest([]byte(perfFixture), "perf.json")
	if err != nil {
		t.Fatal(err)
	}
	rec := recs[0]
	if rec.Kind != KindPerf {
		t.Errorf("kind = %q, want %q", rec.Kind, KindPerf)
	}
	if rec.Label != "fixture/det/p4" {
		t.Errorf("label = %q, want fixture/det/p4", rec.Label)
	}
	want := map[string]float64{
		"perf.arb_wait_ns.p50":       1200,
		"perf.arb_wait_ns.p99":       4200,
		"perf.arb_wait_ns.p999":      5100,
		"perf.bus_tenure_ns.p99":     1200,
		"queue.peak_depth":           5, // max across buses
		"queue.arb_fairness":         0.93,
		"host.alloc_bytes_per_ref":   128,
		"host.alloc_objects_per_ref": 2,
		"host.wall_ns":               1000000,
	}
	for k, v := range want {
		if got := rec.Metrics[k]; got != v {
			t.Errorf("%s = %v, want %v", k, got, v)
		}
	}
}

const causalFixture = `{
  "fingerprint": "procs=4 protocol=moesi",
  "txs": 900, "elapsed_ns": 2000000, "total_cost_ns": 1500000,
  "total_wait_ns": 400000, "aborts": 3,
  "by_cause": {"arb-wait": 400000, "addr": 90000, "data": 700000, "memory": 310000},
  "by_phase": {"addr": 90000},
  "path_cost_ns": 1900000,
  "boards": []
}`

func TestIngestCausal(t *testing.T) {
	recs, err := Ingest([]byte(causalFixture), "run.json")
	if err != nil {
		t.Fatal(err)
	}
	rec := recs[0]
	if rec.Kind != KindCausal {
		t.Errorf("kind = %q, want %q", rec.Kind, KindCausal)
	}
	if rec.Label != "procs=4 protocol=moesi" {
		t.Errorf("label = %q", rec.Label)
	}
	if v := rec.Metrics["causal.total_wait_ns"]; v != 400000 {
		t.Errorf("total_wait_ns = %v", v)
	}
	if v := rec.Metrics["causal.by_cause.arb-wait_ns"]; v != 400000 {
		t.Errorf("by_cause arb-wait = %v (keys %v)", v, Keys(recs))
	}
	if v := rec.Metrics["causal.path_cost_ns"]; v != 1900000 {
		t.Errorf("path_cost_ns = %v", v)
	}
}

const lensFixture = `{
  "fingerprint": "procs=4 protocol=moesi",
  "events": 6000, "state_events": 4000, "lines": 64, "span_ns": 2000000,
  "protocols": {
    "moesi": {
      "transitions": 4000, "invalidations": 400,
      "inv_fanout": {"1": 300, "2": 50},
      "upd_fanout": {},
      "cache_sourced": 600, "mem_sourced": 200,
      "ownership_moves": 150
    }
  }
}`

func TestIngestLens(t *testing.T) {
	recs, err := Ingest([]byte(lensFixture), "lens.json")
	if err != nil {
		t.Fatal(err)
	}
	rec := recs[0]
	if rec.Kind != KindLens {
		t.Errorf("kind = %q, want %q", rec.Kind, KindLens)
	}
	if v := rec.Metrics["lens.moesi.inv_per_transition"]; v != 0.1 {
		t.Errorf("inv_per_transition = %v, want 0.1", v)
	}
	if v := rec.Metrics["lens.moesi.cache_sourced_share"]; v != 0.75 {
		t.Errorf("cache_sourced_share = %v, want 0.75", v)
	}
	if v := rec.Metrics["lens.moesi.mem_sourced_share"]; v != 0.25 {
		t.Errorf("mem_sourced_share = %v, want 0.25", v)
	}
	// fan-out mean: (1*300 + 2*50) / 350 = 400/350
	if v := rec.Metrics["lens.moesi.inv_fanout_mean"]; math.Abs(v-400.0/350.0) > 1e-12 {
		t.Errorf("inv_fanout_mean = %v, want %v", v, 400.0/350.0)
	}
	if v := rec.Metrics["lens.moesi.transitions"]; v != 4000 {
		t.Errorf("transitions = %v", v)
	}
}

const sweepFixture = `{
  "fbsweep": {"exp": "P1,P11", "refs": 2000, "seed": 1986, "shards": 1},
  "_meta": {"git_sha": "def", "go": "go1.24.0", "gomaxprocs": 8, "cpus": 8, "date_utc": "2026-08-08T00:00:00Z"},
  "reports": [
    {
      "id": "P1", "title": "Protocol comparison",
      "columns": ["protocol", "procs", "miss", "trans/ref", "bytes/ref"],
      "rows": [
        ["moesi", "8", "0.051", "0.18", "5.1"],
        ["write-once", "8", "0.062", "0.25", "7.9"]
      ]
    },
    {
      "id": "P11", "title": "Tenure x discipline",
      "columns": ["tenure", "discipline", "p50arb", "p99arb", "fairness"],
      "rows": [
        ["atomic", "fcfs", "1200", "4100", "0.91"]
      ]
    }
  ]
}`

func TestIngestSweep(t *testing.T) {
	recs, err := Ingest([]byte(sweepFixture), "sweep.json")
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 2 {
		t.Fatalf("got %d records, want 2 (one per report)", len(recs))
	}
	p1 := recs[0]
	if p1.Kind != KindSweep || p1.Label != "P1" {
		t.Errorf("P1 record kind/label = %q/%q", p1.Kind, p1.Label)
	}
	if p1.Meta.GitSHA != "def" {
		t.Errorf("sweep _meta not copied: %+v", p1.Meta)
	}
	// "8" parses as a number, so the row key is the protocol name alone;
	// "trans/ref" sanitizes to trans_per_ref.
	if v := p1.Metrics["sweep.moesi.trans_per_ref"]; v != 0.18 {
		t.Errorf("moesi trans/ref = %v, want 0.18 (keys %v)", v, Keys([]Record{p1}))
	}
	if v := p1.Metrics["sweep.write-once.bytes_per_ref"]; v != 7.9 {
		t.Errorf("write-once bytes/ref = %v, want 7.9", v)
	}
	p11 := recs[1]
	if v := p11.Metrics["sweep.atomic/fcfs.p99arb"]; v != 4100 {
		t.Errorf("atomic/fcfs p99arb = %v, want 4100 (keys %v)", v, Keys([]Record{p11}))
	}
	if v := p11.Metrics["sweep.atomic/fcfs.fairness"]; v != 0.91 {
		t.Errorf("fairness = %v, want 0.91", v)
	}
}

func TestIngestRejectsUnknown(t *testing.T) {
	for _, bad := range []string{
		"", "not json", "[]", `{"random": 1}`, `{"_meta": {}}`,
	} {
		if _, err := Ingest([]byte(bad), "x"); err == nil {
			t.Errorf("Ingest(%q) should fail", bad)
		}
	}
}

// TestIngestGateEndToEnd strings the pieces together the way fbtrend
// does: ingest N fbperf fixtures into a ledger, then gate a clean
// candidate (ok) and a regressed candidate (regressed).
func TestIngestGateEndToEnd(t *testing.T) {
	var history []Record
	for i := 0; i < 5; i++ {
		recs, err := Ingest([]byte(perfFixture), "perf.json")
		if err != nil {
			t.Fatal(err)
		}
		history = append(history, recs...)
	}
	clean, err := Ingest([]byte(perfFixture), "perf.json")
	if err != nil {
		t.Fatal(err)
	}
	if rep := Gate(Filter(history, KindPerf, clean[0].Label), clean[0], GateOpts{}); rep.Verdict != "ok" {
		t.Fatalf("same-fixture candidate verdict = %q, want ok (%+v)", rep.Verdict, rep)
	}
	// 4200 → 8400: past the 10% rel floor and the 1µs ns floor both.
	regressed := []byte(strings.Replace(perfFixture, `"p99": 4200`, `"p99": 8400`, 1))
	bad, err := Ingest(regressed, "perf.json")
	if err != nil {
		t.Fatal(err)
	}
	if rep := Gate(Filter(history, KindPerf, bad[0].Label), bad[0], GateOpts{}); rep.Verdict != "regressed" {
		t.Fatalf("injected +100%% p99 verdict = %q, want regressed", rep.Verdict)
	}
}

// TestIngestSkipsNonFiniteCells: strconv.ParseFloat accepts "NaN" and
// "Inf", which JSON cannot encode; such a cell is neither a metric nor
// part of the row key, so the record still appends.
func TestIngestSkipsNonFiniteCells(t *testing.T) {
	doc := `{"reports": [{"id": "P1", "columns": ["protocol", "miss", "eff"],
	  "rows": [["moesi", "NaN", "0.5"], ["dragon", "-Inf", "+Inf"]]}]}`
	recs, err := Ingest([]byte(doc), "sweep.json")
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]float64{"sweep.moesi.eff": 0.5}
	if !reflect.DeepEqual(recs[0].Metrics, want) {
		t.Errorf("metrics = %v, want %v", recs[0].Metrics, want)
	}
	path := filepath.Join(t.TempDir(), "ledger.jsonl")
	if err := Append(path, recs...); err != nil {
		t.Fatal(err)
	}
}

// TestAppendEncodesBeforeCreating: a record JSON cannot encode is an
// error that leaves no ledger file behind.
func TestAppendEncodesBeforeCreating(t *testing.T) {
	path := filepath.Join(t.TempDir(), "ledger.jsonl")
	bad := sampleRecord("a", map[string]float64{"m": math.NaN()})
	if err := Append(path, sampleRecord("a", map[string]float64{"m": 1}), bad); err == nil {
		t.Fatal("Append of a NaN metric: want an error")
	}
	if _, err := os.Stat(path); !os.IsNotExist(err) {
		t.Errorf("failed Append left a ledger file behind (stat err %v)", err)
	}
}

// FuzzIngest: Ingest never panics, and every record it returns survives
// Append → Read unchanged. The seed corpus in testdata/fuzz/FuzzIngest
// holds one small document per format and a sweep doc with a "NaN"
// cell, which once failed to append.
func FuzzIngest(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		recs, err := Ingest(data, "fuzz.json")
		if err != nil {
			return
		}
		path := filepath.Join(t.TempDir(), "ledger.jsonl")
		if err := Append(path, recs...); err != nil {
			t.Fatalf("Append of ingested records: %v", err)
		}
		got, dropped, err := Read(path)
		if err != nil || dropped != 0 || !reflect.DeepEqual(got, recs) {
			t.Fatalf("Append → Read: dropped %d, err %v\ngot  %+v\nwant %+v", dropped, err, got, recs)
		}
	})
}
