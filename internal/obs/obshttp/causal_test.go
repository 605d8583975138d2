package obshttp

import (
	"encoding/json"
	"io"
	"net/http"
	"strings"
	"testing"

	"futurebus/internal/obs"
	"futurebus/internal/obs/causal"
	"futurebus/internal/obs/leaktest"
)

// TestRegistryCounterFunc: pull-style counters render like counters and
// track the underlying value.
func TestRegistryCounterFunc(t *testing.T) {
	reg := NewRegistry()
	var v int64
	reg.CounterFunc("pull_total", "", "a pulled counter", func() int64 { return v })
	v = 7
	var b strings.Builder
	if err := reg.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	text := b.String()
	for _, want := range []string{"# TYPE pull_total counter", "pull_total 7\n"} {
		if !strings.Contains(text, want) {
			t.Errorf("exposition missing %q in:\n%s", want, text)
		}
	}
}

// TestCausalEndpointAndDroppedMetric: /causal serves the reconstructed
// analysis as JSON and ObserveRecorder exposes the recorder's shed
// counter on /metrics.
func TestCausalEndpointAndDroppedMetric(t *testing.T) {
	leaktest.Check(t)
	svc := NewService(4)
	rec := obs.New(svc.Sinks()...)
	svc.ObserveRecorder(rec)
	srv, err := svc.Serve("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	// One blocked transaction chain: tx 1, then tx 2 granted after
	// waiting behind it.
	rec.Emit(&obs.Event{Seq: 0, TS: 0, Kind: obs.KindGrant, Proc: 0, TxID: 1})
	rec.Emit(&obs.Event{Seq: 1, TS: 0, Dur: 400, Kind: obs.KindTx, Proc: 0,
		Op: obs.OpRead, AddrNS: 125, DataNS: 275, TxID: 1})
	rec.Emit(&obs.Event{Seq: 2, TS: 400, Dur: 400, Kind: obs.KindGrant, Proc: 1, TxID: 2, CauseID: 1})
	rec.Emit(&obs.Event{Seq: 3, TS: 400, Dur: 300, Kind: obs.KindTx, Proc: 1,
		Op: obs.OpWrite, ArbNS: 400, AddrNS: 125, DataNS: 175, TxID: 2})

	get := func(path string) string {
		resp, err := http.Get(srv.URL() + path)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("GET %s: status %d", path, resp.StatusCode)
		}
		body, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		return string(body)
	}

	var an causal.Analysis
	if err := json.Unmarshal([]byte(get("/causal")), &an); err != nil {
		t.Fatal(err)
	}
	if an.Txs != 2 {
		t.Errorf("/causal Txs = %d, want 2", an.Txs)
	}
	if len(an.Path) != 2 || an.Path[1].Via != causal.CauseArbWait {
		t.Errorf("/causal path = %+v, want blocker → blocked via arb-wait", an.Path)
	}
	if an.TotalWait != 400 {
		t.Errorf("/causal TotalWait = %d, want 400", an.TotalWait)
	}

	metrics := get("/metrics")
	for _, want := range []string{
		"# TYPE " + MetricDropped + " counter",
		MetricDropped + " 0\n",
	} {
		if !strings.Contains(metrics, want) {
			t.Errorf("/metrics missing %q", want)
		}
	}

	if err := rec.Close(); err != nil {
		t.Fatal(err)
	}
	if err := srv.Close(); err != nil && err != http.ErrServerClosed {
		t.Fatal(err)
	}
}
