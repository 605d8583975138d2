package obshttp

import (
	"encoding/json"
	"io"
	"net/http"
	"strings"
	"sync"
	"testing"

	"futurebus/internal/core"
	"futurebus/internal/obs"
	"futurebus/internal/obs/leaktest"
	"futurebus/internal/obs/watch"
)

func httpGet(t *testing.T, url string) string {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return string(body)
}

// TestWatchSinkEndpointAndMetrics: a violating stream surfaces on
// /violations, as labelled counters on /metrics, and flips the latch.
func TestWatchSinkEndpointAndMetrics(t *testing.T) {
	leaktest.Check(t)
	svc := NewService(4)
	svc.EnableWatch(watch.Config{})
	rec := obs.New(svc.Sinks()...)
	svc.ObserveRecorder(rec)
	srv, err := svc.Serve("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	// Latch reads 0 while clean.
	if text := httpGet(t, srv.URL()+"/metrics"); !strings.Contains(text, MetricInvariantLatch+" 0") {
		t.Fatalf("latch should read 0 before any violation:\n%s", text)
	}

	// Two caches fill the same line to M — a single-owner violation.
	rec.Emit(&obs.Event{TS: 1, Kind: obs.KindTx, Proc: 0, Addr: 0x40, Col: 6, Op: obs.OpRead, TxID: 1})
	rec.Emit(&obs.Event{TS: 2, Kind: obs.KindState, Proc: 0, Addr: 0x40,
		From: core.Invalid, To: core.Modified, Cause: obs.CauseFill, Proto: obs.NameOf("moesi"), TxID: 1})
	rec.Emit(&obs.Event{TS: 3, Kind: obs.KindTx, Proc: 1, Addr: 0x40, Col: 6, Op: obs.OpRead, DI: true, TxID: 2})
	rec.Emit(&obs.Event{TS: 4, Kind: obs.KindState, Proc: 1, Addr: 0x40,
		From: core.Invalid, To: core.Modified, Cause: obs.CauseFill, Proto: obs.NameOf("moesi"), TxID: 2})

	var rep watch.Report
	if err := json.Unmarshal([]byte(httpGet(t, srv.URL()+"/violations")), &rep); err != nil {
		t.Fatal(err)
	}
	if rep.Total == 0 || rep.ByInvariant[watch.InvSingleOwner] == 0 {
		t.Fatalf("/violations missing the single-owner violation: %+v", rep)
	}
	if rep.First == nil || rep.First.Proc != 1 {
		t.Fatalf("first-violation latch wrong: %+v", rep.First)
	}

	text := httpGet(t, srv.URL()+"/metrics")
	if !strings.Contains(text, MetricInvariantViolations) ||
		!strings.Contains(text, `invariant="single-owner"`) ||
		!strings.Contains(text, `proto="moesi"`) {
		t.Fatalf("metrics missing labelled violation counter:\n%s", text)
	}
	if !strings.Contains(text, MetricInvariantLatch+" 1") {
		t.Fatalf("latch should read 1 after a violation:\n%s", text)
	}

	if err := rec.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestWatchDisabledEndpointEmpty: without EnableWatch the endpoint
// degrades to an empty document, like /causal and /coherence.
func TestWatchDisabledEndpointEmpty(t *testing.T) {
	leaktest.Check(t)
	svc := NewService(4)
	rec := obs.New(svc.Sinks()...)
	defer rec.Close()
	svc.ObserveRecorder(rec)
	srv, err := svc.Serve("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	if body := strings.TrimSpace(httpGet(t, srv.URL()+"/violations")); body != "{}" {
		t.Fatalf("/violations without a watch sink = %q, want {}", body)
	}
}

// TestServiceConcurrentScrapeStreamFold hammers /metrics scrapes, every
// JSON endpoint and an SSE subscriber while the recorder's drain
// goroutine feeds the analyzers the handlers read through View. CI runs
// it under -race, repeated, with a timeout, so a lock-order deadlock
// between View, the drain goroutine and the registry fails instead of
// hanging.
func TestServiceConcurrentScrapeStreamFold(t *testing.T) {
	leaktest.Check(t)
	svc := NewService(4)
	svc.EnableWatch(watch.Config{})
	rec := obs.New(svc.Sinks()...)
	svc.ObserveRecorder(rec)
	srv, err := svc.Serve("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	var wg sync.WaitGroup
	stop := make(chan struct{})

	// Scrapers: /metrics pulls CounterFunc/GaugeFunc (Coherence.Totals,
	// Watch.Total) while the drain goroutine mutates the analyzers.
	for i := 0; i < 3; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				resp, err := http.Get(srv.URL() + "/metrics")
				if err != nil {
					return
				}
				_, _ = io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
			}
		}()
	}
	// Snapshot readers: every JSON endpoint builds its document inside
	// View.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			for _, p := range []string{"/violations", "/coherence", "/causal", "/perf", "/slow", "/trend"} {
				resp, err := http.Get(srv.URL() + p)
				if err != nil {
					return
				}
				_, _ = io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
			}
		}
	}()
	// SSE subscriber draining live frames.
	wg.Add(1)
	go func() {
		defer wg.Done()
		resp, err := http.Get(srv.URL() + "/events")
		if err != nil {
			return
		}
		defer resp.Body.Close()
		buf := make([]byte, 4096)
		for {
			select {
			case <-stop:
				return
			default:
			}
			if _, err := resp.Body.Read(buf); err != nil {
				return
			}
		}
	}()

	// Emitter: a legal fill/invalidate cycle over many lines, enough
	// volume to hand many batches to the drain goroutine.
	const cycles = 20000
	for i := 0; i < cycles; i++ {
		addr := uint64(0x1000 + (i%64)*64)
		txid := uint64(i + 1)
		rec.Emit(&obs.Event{TS: int64(i), Kind: obs.KindTx, Proc: int32(i % 4), Addr: addr,
			Col: 6, Op: obs.OpRead, TxID: txid})
		rec.Emit(&obs.Event{TS: int64(i), Kind: obs.KindState, Proc: int32(i % 4), Addr: addr,
			From: core.Invalid, To: core.Modified, Cause: obs.CauseFill, Proto: obs.NameOf("moesi"), TxID: txid})
		rec.Emit(&obs.Event{TS: int64(i), Kind: obs.KindState, Proc: int32(i % 4), Addr: addr,
			From: core.Modified, To: core.Invalid, Cause: obs.CauseSnoopCacheRFO, TxID: txid + 1})
	}
	// With the emitter done, a scrape sees the whole stream.
	var rep watch.Report
	if err := json.Unmarshal([]byte(httpGet(t, srv.URL()+"/violations")), &rep); err != nil {
		t.Fatal(err)
	}
	if rep.Events != 3*cycles || rep.Total != 0 {
		t.Errorf("/violations after the stream: %d events, %d violations (first %v); want %d and 0",
			rep.Events, rep.Total, rep.First, 3*cycles)
	}
	close(stop)
	srv.Close() // unblocks the SSE subscriber
	wg.Wait()
	if err := rec.Close(); err != nil {
		t.Fatal(err)
	}
}
