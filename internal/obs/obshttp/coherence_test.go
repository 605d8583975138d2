package obshttp

import (
	"encoding/json"
	"io"
	"net/http"
	"strings"
	"testing"

	"futurebus/internal/core"
	"futurebus/internal/obs"
	"futurebus/internal/obs/coherence"
	"futurebus/internal/obs/leaktest"
)

// TestCoherenceEndpointAndMetrics: /coherence serves the per-protocol
// transition analytics as JSON, and the event-fed registry exposes the
// proto-labelled transition, invalidation, ownership-move and
// read-sourcing families on /metrics.
func TestCoherenceEndpointAndMetrics(t *testing.T) {
	leaktest.Check(t)
	svc := NewService(4)
	rec := obs.New(svc.Sinks()...)
	svc.ObserveRecorder(rec)
	srv, err := svc.Serve("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	// One line migrating P0 → P1 under an RFO (snoop invalidation
	// first, then the tx, then the new owner's fill — stream order).
	rec.Emit(&obs.Event{Seq: 0, TS: 0, Kind: obs.KindState, Proc: 0, Addr: 0x40,
		From: core.Invalid, To: core.Modified, Cause: obs.CauseFill, Proto: obs.NameOf("moesi"), TxID: 1})
	rec.Emit(&obs.Event{Seq: 1, TS: 0, Dur: 400, Kind: obs.KindTx, Proc: 0, Addr: 0x40,
		Col: 6, Op: obs.OpRead, TxID: 1})
	rec.Emit(&obs.Event{Seq: 2, TS: 500, Kind: obs.KindState, Proc: 0, Addr: 0x40,
		From: core.Modified, To: core.Invalid, Cause: obs.CauseSnoopCacheRFO, Proto: obs.NameOf("moesi"), TxID: 2})
	rec.Emit(&obs.Event{Seq: 3, TS: 500, Dur: 400, Kind: obs.KindTx, Proc: 1, Addr: 0x40,
		Col: 6, Op: obs.OpRead, DI: true, TxID: 2})
	rec.Emit(&obs.Event{Seq: 4, TS: 500, Kind: obs.KindState, Proc: 1, Addr: 0x40,
		From: core.Invalid, To: core.Modified, Cause: obs.CauseFill, Proto: obs.NameOf("moesi"), TxID: 2})

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

	var an coherence.Analysis
	if err := json.Unmarshal([]byte(get("/coherence")), &an); err != nil {
		t.Fatal(err)
	}
	ps := an.Protocols["moesi"]
	if ps == nil {
		t.Fatalf("/coherence missing moesi protocol: %+v", an)
	}
	if ps.Transitions != 3 {
		t.Errorf("/coherence transitions = %d, want 3", ps.Transitions)
	}
	if ps.OwnershipMoves != 1 {
		t.Errorf("/coherence ownership moves = %d, want 1", ps.OwnershipMoves)
	}
	if ps.CacheSourced != 1 || ps.MemSourced != 1 {
		t.Errorf("/coherence sourcing = %d c2c / %d mem, want 1/1", ps.CacheSourced, ps.MemSourced)
	}

	metrics := get("/metrics")
	for _, want := range []string{
		MetricCoherenceTransitions + `{proto="moesi",from="I",to="M"} 2`,
		MetricCoherenceTransitions + `{proto="moesi",from="M",to="I"} 1`,
		MetricCoherenceInvalidations + `{proto="moesi"} 1`,
		MetricCoherenceOwnershipMoves + " 1",
		MetricCoherenceReadSource + `{source="cache"} 1`,
		MetricCoherenceReadSource + `{source="memory"} 1`,
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
