package obshttp

import (
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"

	"futurebus/internal/obs"
	"futurebus/internal/obs/leaktest"
	"futurebus/internal/obs/perf"
)

// The endpoints table is the single source of truth for the server's
// routes: every advertised endpoint must resolve to a registered
// handler (not the mux's NotFound fallback), so the fbsim/fbsweep
// banner can never advertise a path the server 404s.
func TestEndpointsMatchMux(t *testing.T) {
	srv := newServer(NewService(0))
	mux := srv.http.Handler.(*http.ServeMux)
	for _, e := range Endpoints() {
		req := httptest.NewRequest("GET", e.Path, nil)
		_, pattern := mux.Handler(req)
		if pattern == "" {
			t.Errorf("endpoint %s advertised but not served", e.Path)
		}
		if e.Help == "" {
			t.Errorf("endpoint %s has no help text", e.Path)
		}
	}
	if list := EndpointList(); !strings.Contains(list, "/perf") || !strings.Contains(list, "/violations") {
		t.Errorf("EndpointList missing endpoints: %q", list)
	}
}

// The native histogram exposition: cumulative _bucket counts with
// le = 2^i - 1 bounds, the +Inf terminator, and exact _sum/_count.
func TestWritePrometheusHistogram(t *testing.T) {
	var h obs.Histogram
	h.Observe(0) // bucket 0, le="0"
	h.Observe(1) // bucket 1, le="1"
	h.Observe(7) // bucket 3, le="7"
	h.Observe(6) // bucket 3, le="7"
	reg := NewRegistry()
	reg.Histogram("test_hist", "", "a histogram", func() obs.Histogram { return h })

	var b strings.Builder
	if err := reg.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{
		"# TYPE test_hist histogram",
		`test_hist_bucket{le="0"} 1`,
		`test_hist_bucket{le="1"} 2`,
		`test_hist_bucket{le="3"} 2`, // empty bucket still rendered, cumulative
		`test_hist_bucket{le="7"} 4`,
		`test_hist_bucket{le="+Inf"} 4`,
		"test_hist_sum 14",
		"test_hist_count 4",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q in:\n%s", want, out)
		}
	}
}

func TestHistogramMetricLabels(t *testing.T) {
	var h obs.Histogram
	h.Observe(3)
	reg := NewRegistry()
	reg.Histogram("h", `shard="0"`, "labelled", func() obs.Histogram { return h })
	var b strings.Builder
	if err := reg.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		`h_bucket{shard="0",le="3"} 1`,
		`h_bucket{shard="0",le="+Inf"} 1`,
		`h_sum{shard="0"} 3`,
	} {
		if !strings.Contains(b.String(), want) {
			t.Errorf("missing %q in:\n%s", want, b.String())
		}
	}
}

// The registry reads sink-owned histograms inside its view, so a
// recorder's drain goroutine can fold samples while scrapers render:
// under -race this fails unless every read happens inside the view.
func TestMetricsConcurrentObserve(t *testing.T) {
	leaktest.Check(t)
	var sum, hist obs.Histogram
	rec := obs.New(obs.SinkFunc(func(e *obs.Event) {
		sum.Observe(e.Dur)
		hist.Observe(e.TS)
	}))
	reg := NewRegistry()
	reg.view = rec.View
	reg.Summary("race_sum", "", "", func() obs.Histogram { return sum })
	reg.Histogram("race_hist", "", "", func() obs.Histogram { return hist })
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 1000; i++ {
				rec.Emit(obs.Event{Kind: obs.KindTx, TS: int64(i), Dur: int64(g*1000 + i)})
			}
		}(g)
	}
	for i := 0; i < 20; i++ {
		if err := reg.WritePrometheus(io.Discard); err != nil {
			t.Fatal(err)
		}
	}
	wg.Wait()
	var b strings.Builder
	if err := reg.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"race_sum_count 8000\n", "race_hist_count 8000\n"} {
		if !strings.Contains(b.String(), want) {
			t.Errorf("lost samples: missing %q in:\n%s", want, b.String())
		}
	}
	if err := rec.Close(); err != nil {
		t.Fatal(err)
	}
}

// The PerfSink bridges the event stream to both the registry (native
// histograms + queue gauges) and the /perf document.
func TestPerfSinkExportsMetrics(t *testing.T) {
	reg := NewRegistry()
	ps := NewPerfSink(reg)
	ps.Consume(&obs.Event{Kind: obs.KindGrant, Bus: 0, TS: 100, Dur: 100})
	ps.Consume(&obs.Event{Kind: obs.KindGrant, Bus: 0, TS: 150, Dur: 100})
	ps.Consume(&obs.Event{Kind: obs.KindTx, Bus: 0, TS: 200, Dur: 645, RetryNS: 50, MemNS: 200})

	var b strings.Builder
	if err := reg.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{
		"# TYPE " + MetricArbWaitHist + " histogram",
		MetricArbWaitHist + "_count 2",
		MetricTenureHist + "_count 1",
		MetricRetryHist + "_count 1",
		MetricMemSvcHist + "_count 1",
		MetricQueueDepth + `{bus="0"} 2`,
		MetricQueuePeak + `{bus="0"} 2`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q in:\n%s", want, out)
		}
	}
	if snap := ps.Snapshot(); snap.PeakQueueDepth() != 2 {
		t.Errorf("snapshot peak = %d, want 2", snap.PeakQueueDepth())
	}
}

// A nil registry (fbsim -perf without -serve, the overhead benchmark)
// still accumulates the snapshot.
func TestPerfSinkNilRegistry(t *testing.T) {
	ps := NewPerfSink(nil)
	ps.Consume(&obs.Event{Kind: obs.KindGrant, Bus: 0, TS: 100, Dur: 50})
	if got := ps.Snapshot().Latency[perf.MetricArbWait].Count; got != 1 {
		t.Errorf("nil-registry sink lost the sample: count = %d", got)
	}
}

// End to end: the service wires the perf sink into the recorder, the
// /perf endpoint serves its JSON document, and /metrics carries the
// native histogram series.
func TestServicePerfEndpoint(t *testing.T) {
	svc := NewService(4)
	rec := obs.New(svc.Sinks()...)
	svc.ObserveRecorder(rec)
	srv, err := svc.Serve("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	rec.Emit(obs.Event{Kind: obs.KindGrant, Bus: 0, TS: 100, Dur: 80})
	rec.Emit(obs.Event{Kind: obs.KindTx, Bus: 0, TS: 200, Dur: 645, MemNS: 200})

	resp, err := http.Get(srv.URL() + "/perf")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	var snap perf.Snapshot
	if err := json.Unmarshal(body, &snap); err != nil {
		t.Fatalf("/perf not valid JSON: %v\n%s", err, body)
	}
	if snap.Latency[perf.MetricArbWait].Count != 1 || snap.Latency[perf.MetricTenure].Count != 1 {
		t.Errorf("/perf missing telemetry: %s", body)
	}

	// The engines find the sink through the service wrapper.
	if perf.FindSink(rec) == nil {
		t.Error("perf.FindSink failed to unwrap the service's PerfSink")
	}

	mresp, err := http.Get(srv.URL() + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer mresp.Body.Close()
	mbody, _ := io.ReadAll(mresp.Body)
	if !strings.Contains(string(mbody), MetricArbWaitHist+"_bucket") {
		t.Errorf("/metrics missing %s_bucket series", MetricArbWaitHist)
	}
}
