package obshttp

import (
	"encoding/json"
	"io"
	"net/http"
	"path/filepath"
	"testing"

	"futurebus/internal/obs"
	"futurebus/internal/obs/ledger"
)

// trendLedger writes a 5-run fbperf ledger whose arb-wait p99 sits at
// p99 ns and returns its path.
func trendLedger(t *testing.T, p99 float64) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "ledger.jsonl")
	for i := 0; i < 5; i++ {
		rec := ledger.Record{
			Schema: ledger.Schema,
			Kind:   ledger.KindPerf,
			Metrics: map[string]float64{
				"perf.arb_wait_ns.p99":  p99,
				"perf.arb_wait_ns.p50":  p99 / 2,
				"perf.arb_wait_ns.p999": p99,
				"queue.peak_depth":      1,
			},
		}
		if err := ledger.Append(path, rec); err != nil {
			t.Fatal(err)
		}
	}
	return path
}

// TestTrendEndpointNoBaseline: without EnableTrend the endpoint still
// answers valid JSON with a "no-baseline" verdict, so probes can parse
// it unconditionally.
func TestTrendEndpointNoBaseline(t *testing.T) {
	svc := NewService(4)
	svc.ObserveRecorder(nil)
	srv, err := svc.Serve("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	resp, err := http.Get(srv.URL() + "/trend")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, _ := io.ReadAll(resp.Body)
	var rep ledger.GateReport
	if err := json.Unmarshal(body, &rep); err != nil {
		t.Fatalf("/trend not valid JSON: %v\n%s", err, body)
	}
	if rep.Verdict != "no-baseline" {
		t.Errorf("verdict = %q, want no-baseline", rep.Verdict)
	}
}

// TestTrendEndpointLiveVerdict: the live run is judged against the
// ledger's rolling baseline — clean when it matches the history,
// regressed when the live arb-wait quantiles blow past it.
func TestTrendEndpointLiveVerdict(t *testing.T) {
	const base = 64 // live KindGrant Dur below; ledger baseline matches
	svc := NewService(4)
	if _, err := svc.EnableTrend(trendLedger(t, base), "", ledger.GateOpts{}); err != nil {
		t.Fatal(err)
	}
	rec := obs.New(svc.Sinks()...)
	svc.ObserveRecorder(rec)
	srv, err := svc.Serve("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	rec.Emit(&obs.Event{Kind: obs.KindGrant, Bus: 0, TS: 100, Dur: base})

	get := func() ledger.GateReport {
		t.Helper()
		resp, err := http.Get(srv.URL() + "/trend")
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		body, _ := io.ReadAll(resp.Body)
		var rep ledger.GateReport
		if err := json.Unmarshal(body, &rep); err != nil {
			t.Fatalf("/trend not valid JSON: %v\n%s", err, body)
		}
		return rep
	}
	if rep := get(); rep.Verdict != "ok" {
		t.Fatalf("matching live run verdict = %q, want ok (%+v)", rep.Verdict, rep)
	}

	// Blow the live arb wait far past the baseline (and the 1µs ns
	// floor); the verdict must flip without restarting the server.
	rec.Emit(&obs.Event{Kind: obs.KindGrant, Bus: 0, TS: 200, Dur: 500000})
	rep := get()
	if rep.Verdict != "regressed" {
		t.Fatalf("blown live run verdict = %q, want regressed (%+v)", rep.Verdict, rep)
	}
	found := false
	for _, row := range rep.Rows {
		if row.Key == "perf.arb_wait_ns.p99" && row.Direction == "regressed" {
			found = true
		}
	}
	if !found {
		t.Errorf("p99 row not marked regressed: %+v", rep.Rows)
	}
}

// TestTrendSourceBadLedger: a damaged ledger is a loud setup error,
// not a silently empty baseline.
func TestTrendSourceBadLedger(t *testing.T) {
	svc := NewService(4)
	if _, err := svc.EnableTrend(filepath.Join(t.TempDir(), "missing.jsonl"), "", ledger.GateOpts{}); err == nil {
		t.Error("EnableTrend on a missing ledger should fail")
	}
}
