package sim

import (
	"bytes"
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"sync/atomic"
	"testing"

	"futurebus/internal/bus"
	"futurebus/internal/obs"
)

var updateGolden = flag.Bool("update", false, "rewrite golden files")

// TestMetricsUnclamped: BusUtilization and Efficiency above 1.0 are
// reported as-is (the accounting is inconsistent and must be visible).
func TestMetricsUnclamped(t *testing.T) {
	m := Metrics{
		Refs: 1000, Procs: 1, HitLatency: 50,
		ElapsedNanos: 10000, // refs×hit = 50000 > elapsed
	}
	m.Bus.BusyNanos = 25000
	if got := m.BusUtilization(); got != 2.5 {
		t.Errorf("utilization = %f, want 2.5 (unclamped)", got)
	}
	if got := m.Efficiency(); got != 5.0 {
		t.Errorf("efficiency = %f, want 5.0 (unclamped)", got)
	}
}

// TestDetEngineHistograms: a deterministic run with a histogram sink
// fills Metrics.Hist with latency/stall/retry summaries.
func TestDetEngineHistograms(t *testing.T) {
	rec := obs.New(obs.NewHistogramSink())
	defer rec.Close()
	cfg := Homogeneous("moesi", 4)
	cfg.Obs = rec
	sys, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	eng := Engine{Sys: sys, Gens: abGens(sys, 0.3, 0.3, 99)}
	m, err := eng.Run(2000)
	if err != nil {
		t.Fatal(err)
	}
	lat, ok := m.Hist[obs.MetricTxLatency]
	if !ok {
		t.Fatalf("no %s summary in Metrics.Hist: %v", obs.MetricTxLatency, m.Hist)
	}
	if lat.Count != m.Bus.Transactions {
		t.Errorf("latency samples = %d, bus transactions = %d", lat.Count, m.Bus.Transactions)
	}
	if lat.P50 <= 0 || lat.P95 < lat.P50 || lat.P99 < lat.P95 || lat.Max < lat.P99 {
		t.Errorf("quantiles not monotone: %+v", lat)
	}
	if _, ok := m.Hist[obs.MetricStall]; !ok {
		t.Errorf("no %s summary: %v", obs.MetricStall, m.Hist)
	}
}

// TestConcurrentEngineWithSinks: the goroutine-per-board engine emits
// into the recorder from many goroutines at once; run with -race this
// validates the recorder's batch hand-off, and the event count must
// match the bus's own transaction counter exactly (no drops, no
// duplicates).
func TestConcurrentEngineWithSinks(t *testing.T) {
	var txEvents atomic.Int64
	hist := obs.NewHistogramSink()
	counter := obs.SinkFunc(func(e *obs.Event) {
		if e.Kind == obs.KindTx {
			txEvents.Add(1)
		}
	})
	rec := obs.New(hist, counter)
	defer rec.Close()

	cfg := Homogeneous("moesi", 4)
	cfg.Shadow = true
	cfg.Obs = rec
	sys, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}

	// Satellite check: the bus trace callback runs under the arbiter,
	// so a plain (non-atomic) counter must not race.
	var traced int
	sys.Bus.SetTrace(func(tx *bus.Transaction, r *bus.Result) { traced++ })

	m, err := RunConcurrent(sys, abGens(sys, 0.4, 0.4, 7), 1500)
	if err != nil {
		t.Fatal(err)
	}
	if err := sys.Check(); err != nil {
		t.Fatal(err)
	}
	rec.Flush()
	if got := txEvents.Load(); got != m.Bus.Transactions {
		t.Errorf("sink saw %d tx events, bus counted %d", got, m.Bus.Transactions)
	}
	if int64(traced) != m.Bus.Transactions {
		t.Errorf("trace callback ran %d times, bus counted %d transactions", traced, m.Bus.Transactions)
	}
	if lat, ok := m.Hist[obs.MetricTxLatency]; !ok || lat.Count != m.Bus.Transactions {
		t.Errorf("histogram latency count %v vs %d transactions", m.Hist[obs.MetricTxLatency], m.Bus.Transactions)
	}
}

// chromeTrace runs a deterministic system with a Chrome exporter
// attached and returns the rendered JSON.
func chromeTrace(t *testing.T, boards, refs int) []byte {
	t.Helper()
	var buf bytes.Buffer
	rec := obs.New(obs.NewChromeTraceSink(&buf))
	cfg := Homogeneous("moesi", boards)
	cfg.Obs = rec
	sys, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	eng := Engine{Sys: sys, Gens: abGens(sys, 0.3, 0.3, 1986)}
	if _, err := eng.Run(refs); err != nil {
		t.Fatal(err)
	}
	if err := rec.Close(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestChromeTraceGolden: the exporter's output for a fixed 2-board
// deterministic run is byte-stable (the sink normalises ordering by
// (timestamp, sequence) at flush). Regenerate with -update after an
// intentional format change.
func TestChromeTraceGolden(t *testing.T) {
	got := chromeTrace(t, 2, 40)
	golden := filepath.Join("testdata", "chrometrace_2board.json")
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, got, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("%v (run go test -run TestChromeTraceGolden -args -update)", err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("chrome trace diverged from golden (%d vs %d bytes); rerun with -update if intentional", len(got), len(want))
	}
}

// TestChromeTraceStructure: a 4-board run produces JSON Perfetto will
// accept: a traceEvents array whose entries all carry name/ph/pid/tid,
// complete events carry dur, timestamps are non-negative and
// non-decreasing per track, and every track referenced by an event has
// a thread_name metadata record.
func TestChromeTraceStructure(t *testing.T) {
	raw := chromeTrace(t, 4, 200)

	var doc struct {
		TraceEvents []map[string]any `json:"traceEvents"`
		Unit        string           `json:"displayTimeUnit"`
	}
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Fatalf("trace is not valid JSON: %v", err)
	}
	if len(doc.TraceEvents) == 0 {
		t.Fatal("empty traceEvents")
	}

	type track struct{ pid, tid float64 }
	named := map[track]bool{}
	lastTS := map[track]float64{}
	var slices, instants int
	for i, ev := range doc.TraceEvents {
		for _, key := range []string{"name", "ph", "pid", "tid"} {
			if _, ok := ev[key]; !ok {
				t.Fatalf("event %d missing %q: %v", i, key, ev)
			}
		}
		ph := ev["ph"].(string)
		tr := track{ev["pid"].(float64), ev["tid"].(float64)}
		switch ph {
		case "M":
			if ev["name"] == "thread_name" {
				named[tr] = true
			}
			continue
		case "X":
			slices++
			if _, ok := ev["dur"]; !ok {
				t.Fatalf("complete event %d has no dur: %v", i, ev)
			}
		case "i":
			instants++
		default:
			t.Fatalf("event %d has unexpected phase %q", i, ph)
		}
		ts, ok := ev["ts"].(float64)
		if !ok || ts < 0 {
			t.Fatalf("event %d has bad ts: %v", i, ev)
		}
		if ts < lastTS[tr] {
			t.Fatalf("event %d: ts %v goes backwards on track %v", i, ts, tr)
		}
		lastTS[tr] = ts
	}
	for tr := range lastTS {
		if !named[tr] {
			t.Errorf("track %v has events but no thread_name metadata", tr)
		}
	}
	if slices == 0 {
		t.Error("no complete (X) slices — bus transactions missing")
	}
	if instants == 0 {
		t.Error("no instant (i) events — state transitions missing")
	}
}
