package obshttp

import (
	"encoding/json"
	"strings"
	"testing"

	"futurebus/internal/core"
	"futurebus/internal/obs"
	"futurebus/internal/obs/coherence"
	"futurebus/internal/obs/leaktest"
	"futurebus/internal/obs/watch"
)

// servedWatch starts a watched service observing a fresh recorder.
func servedWatch(t *testing.T) (*Service, *obs.Recorder, *Server) {
	t.Helper()
	svc := NewService(4)
	svc.EnableWatch(watch.Config{})
	rec := obs.New(svc.Sinks()...)
	svc.ObserveRecorder(rec)
	srv, err := svc.Serve("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	return svc, rec, srv
}

func getJSON(t *testing.T, url string, v any) {
	t.Helper()
	if err := json.Unmarshal([]byte(httpGet(t, url)), v); err != nil {
		t.Fatal(err)
	}
}

// TestServedSplitViolations: the served monitor sees every event kind
// the offline one does, so the split-tenure and forward-progress
// checks fire on /violations and on the labelled /metrics counters
// exactly as watch.New reports them.
func TestServedSplitViolations(t *testing.T) {
	leaktest.Check(t)
	_, rec, srv := servedWatch(t)
	defer srv.Close()
	defer rec.Close()

	events := []obs.Event{
		{TS: 1, Kind: obs.KindRetryExhausted, Proc: 2, Addr: 0x8400, TxID: 11, Retries: 33},
		{TS: 2, Kind: obs.KindData, Proc: 0, Addr: 0x8200, TxID: 9},
		{TS: 3, Kind: obs.KindPend, Proc: 0, Addr: 0x8100, TxID: 7},
		{TS: 4, Kind: obs.KindPend, Proc: 0, Addr: 0x8100, TxID: 7},
	}
	offline := watch.New(watch.Config{})
	for i := range events {
		rec.Emit(events[i])
		offline.Consume(&events[i])
	}
	want := map[watch.Invariant]int64{watch.InvProgress: 1, watch.InvPendingTx: 2}
	if got := offline.Report().ByInvariant; len(got) != len(want) ||
		got[watch.InvProgress] != 1 || got[watch.InvPendingTx] != 2 {
		t.Fatalf("offline monitor: %v, want %v", got, want)
	}

	var rep watch.Report
	getJSON(t, srv.URL()+"/violations", &rep)
	if rep.Events != int64(len(events)) || rep.Total != 3 ||
		rep.ByInvariant[watch.InvProgress] != 1 || rep.ByInvariant[watch.InvPendingTx] != 2 {
		t.Fatalf("/violations: %d events, %d violations %v; want %d events, %v",
			rep.Events, rep.Total, rep.ByInvariant, len(events), want)
	}
	text := httpGet(t, srv.URL()+"/metrics")
	for _, line := range []string{
		MetricInvariantViolations + `{invariant="forward-progress",proto="unknown"} 1`,
		MetricInvariantViolations + `{invariant="split-pending-tx",proto="unknown"} 2`,
		MetricInvariantLatch + " 1",
	} {
		if !strings.Contains(text, line+"\n") {
			t.Errorf("/metrics missing %q", line)
		}
	}
}

// TestServedViewsExactBeforeFlush: once the emitters stop, the served
// views include every event — the -serve-linger window, before anyone
// calls Flush or Close. The stream's only violation is its last event,
// so the latch gauge reads 1 only if the scrape saw the whole stream.
func TestServedViewsExactBeforeFlush(t *testing.T) {
	leaktest.Check(t)
	_, rec, srv := servedWatch(t)
	defer srv.Close()

	// P0 fills the line to M, then P1 fills the same line to M: a
	// second owner, detected on the last event.
	rec.Emit(obs.Event{TS: 1, Kind: obs.KindTx, Proc: 0, Addr: 0x40, Col: 6, Op: obs.OpRead, TxID: 1})
	rec.Emit(obs.Event{TS: 2, Kind: obs.KindState, Proc: 0, Addr: 0x40,
		From: core.Invalid, To: core.Modified, Cause: obs.CauseFill, Proto: obs.NameOf("moesi"), TxID: 1})
	rec.Emit(obs.Event{TS: 3, Kind: obs.KindTx, Proc: 1, Addr: 0x40, Col: 6, Op: obs.OpRead, DI: true, TxID: 2})
	rec.Emit(obs.Event{TS: 4, Kind: obs.KindState, Proc: 1, Addr: 0x40,
		From: core.Invalid, To: core.Modified, Cause: obs.CauseFill, Proto: obs.NameOf("moesi"), TxID: 2})

	scrape := func() (states, stateEvents int64) {
		var rep watch.Report
		getJSON(t, srv.URL()+"/violations", &rep)
		var an coherence.Analysis
		getJSON(t, srv.URL()+"/coherence", &an)
		return rep.States, an.StateEvents
	}
	if text := httpGet(t, srv.URL()+"/metrics"); !strings.Contains(text, MetricInvariantLatch+" 1\n") {
		t.Errorf("latch should read 1 once the violating event was emitted:\n%s", text)
	}
	states, stateEvents := scrape()
	if err := rec.Close(); err != nil {
		t.Fatal(err)
	}
	wantStates, wantStateEvents := scrape()
	if wantStates != 2 || wantStateEvents != 2 {
		t.Fatalf("after Close: %d states, %d state events; want 2 and 2", wantStates, wantStateEvents)
	}
	if states != wantStates || stateEvents != wantStateEvents {
		t.Errorf("before Flush: /violations states %d, /coherence state_events %d; after Close %d and %d",
			states, stateEvents, wantStates, wantStateEvents)
	}
}

// TestServeRequiresObservedRecorder: the handlers read the sinks
// through the recorder, so a service that was never told which one
// refuses to serve.
func TestServeRequiresObservedRecorder(t *testing.T) {
	if srv, err := NewService(4).Serve("127.0.0.1:0"); err == nil {
		srv.Close()
		t.Fatal("Serve before ObserveRecorder should fail")
	}
}
