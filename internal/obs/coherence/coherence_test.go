package coherence

import (
	"bytes"
	"encoding/json"
	"fmt"
	"strings"
	"testing"

	"futurebus/internal/core"
	"futurebus/internal/obs"
)

func state(ts int64, proc int, addr uint64, from, to, cause, proto string, txid uint64) obs.Event {
	f, errF := core.ParseState(from)
	t, errT := core.ParseState(to)
	c, errC := obs.ParseCause(cause)
	if errF != nil || errT != nil || errC != nil {
		panic(fmt.Sprintf("state(%q, %q, %q): %v %v %v", from, to, cause, errF, errT, errC))
	}
	return obs.Event{TS: ts, Kind: obs.KindState, Proc: int32(proc), Addr: addr,
		From: f, To: t, Cause: c, Proto: obs.NameOf(proto), TxID: txid}
}

func feed(a *Analyzer, events ...obs.Event) {
	for i := range events {
		a.Consume(&events[i])
	}
}

// TestMatrixResidencyOwnership drives a hand-built lifetime of one line
// through two caches and checks every aggregate the analyzer builds:
// the per-protocol matrix, per-cause split, residency intervals (open
// interval closed at the horizon), and the ownership chain with a
// cache-to-cache migration.
func TestMatrixResidencyOwnership(t *testing.T) {
	var a Analyzer
	feed(&a,
		// P0 fills the line exclusive at t=0, writes it at t=100.
		state(0, 0, 0x40, "I", "E", "fill", "moesi", 1),
		state(100, 0, 0x40, "E", "M", "silent-write", "moesi", 0),
		// P1's RFO at t=300 invalidates P0 and fills P1 modified.
		state(300, 1, 0x40, "I", "M", "fill", "moesi", 2),
		state(300, 0, 0x40, "M", "I", "snoop-cache-rfo", "moesi", 2),
		obs.Event{TS: 300, Kind: obs.KindTx, Proc: 1, Addr: 0x40, Col: 6, Op: obs.OpRead, DI: true, TxID: 2},
		// Horizon marker at t=1000.
		obs.Event{TS: 1000, Kind: obs.KindStall, Proc: 1},
	)
	an := a.Analyze(0)

	ps := an.Protocols["moesi"]
	if ps == nil {
		t.Fatal("no moesi aggregate")
	}
	if ps.Transitions != 4 {
		t.Fatalf("transitions = %d, want 4", ps.Transitions)
	}
	mi, ei := StateIndex("M"), StateIndex("E")
	ii, si := StateIndex("I"), StateIndex("S")
	_ = si
	if got := ps.Matrix[ii][ei]; got != 1 {
		t.Errorf("I→E = %d, want 1", got)
	}
	if got := ps.Matrix[mi][ii]; got != 1 {
		t.Errorf("M→I = %d, want 1", got)
	}
	if got := ps.ByCause["fill"].Total(); got != 2 {
		t.Errorf("fill cause total = %d, want 2", got)
	}
	if ps.Invalidations != 1 {
		t.Errorf("invalidations = %d, want 1", ps.Invalidations)
	}

	// Residency: P0 E for [0,100), M for [100,300), I for [300,1000);
	// P1 M for [300,1000). Invalid residency only after invalidation.
	if got := ps.ResidencyNS[ei]; got != 100 {
		t.Errorf("E residency = %d, want 100", got)
	}
	if got := ps.ResidencyNS[mi]; got != 200+700 {
		t.Errorf("M residency = %d, want 900", got)
	}
	if got := ps.ResidencyNS[ii]; got != 700 {
		t.Errorf("I residency = %d, want 700", got)
	}

	// Ownership: P0 took it at t=100 (M), migrated to P1 at t=300.
	if ps.OwnershipMoves != 1 {
		t.Errorf("ownership moves = %d, want 1", ps.OwnershipMoves)
	}
	if len(an.TopLines) != 1 {
		t.Fatalf("top lines = %d, want 1", len(an.TopLines))
	}
	line := an.TopLines[0]
	want := []OwnerSeg{{Proc: 0, State: "M", TS: 100}, {Proc: 1, State: "M", TS: 300}}
	if len(line.Chain) != len(want) {
		t.Fatalf("chain = %+v, want %+v", line.Chain, want)
	}
	for i := range want {
		if line.Chain[i] != want[i] {
			t.Fatalf("chain[%d] = %+v, want %+v", i, line.Chain[i], want[i])
		}
	}

	// Sourcing: P1's read was DI-supplied → cache-to-cache.
	if ps.CacheSourced != 1 || ps.MemSourced != 0 {
		t.Errorf("sourcing = %d c2c / %d mem, want 1/0", ps.CacheSourced, ps.MemSourced)
	}
	// The RFO (col 6 carries IM) invalidated one remote copy.
	if got := ps.InvFanout[1]; got != 1 {
		t.Errorf("InvFanout[1] = %d, want 1 (%v)", got, ps.InvFanout)
	}
}

// TestDirectMigrationViaTxID: in a real stream the snooped-out owner's
// invalidation precedes the new owner's fill (snoop commits run before
// the tx event, the master's fill after it). The shared TxID must tie
// the two into one direct cache-to-cache ownership move, with no
// intervening memory link in the chain.
func TestDirectMigrationViaTxID(t *testing.T) {
	var a Analyzer
	feed(&a,
		state(0, 0, 0x40, "I", "M", "fill", "moesi", 1),
		// P1's RFO: P0 snooped out first, then P1's fill, both TxID 2.
		state(200, 0, 0x40, "M", "I", "snoop-cache-rfo", "moesi", 2),
		obs.Event{TS: 200, Kind: obs.KindTx, Proc: 1, Addr: 0x40, Col: 6, Op: obs.OpRead, DI: true, TxID: 2},
		state(200, 1, 0x40, "I", "M", "fill", "moesi", 2),
	)
	an := a.Analyze(1)
	ps := an.Protocols["moesi"]
	if ps.OwnershipMoves != 1 {
		t.Errorf("ownership moves = %d, want 1", ps.OwnershipMoves)
	}
	want := []OwnerSeg{{Proc: 0, State: "M", TS: 0}, {Proc: 1, State: "M", TS: 200}}
	chain := an.TopLines[0].Chain
	if len(chain) != len(want) {
		t.Fatalf("chain = %+v, want %+v", chain, want)
	}
	for i := range want {
		if chain[i] != want[i] {
			t.Fatalf("chain[%d] = %+v, want %+v", i, chain[i], want[i])
		}
	}
}

// TestUpdateFanout: a broadcast write (col 8) whose snoopers merged the
// data shows up in the update fan-out histogram keyed by its TxID.
func TestUpdateFanout(t *testing.T) {
	var a Analyzer
	feed(&a,
		state(0, 0, 0x80, "I", "O", "fill", "firefly", 1),
		obs.Event{TS: 10, Kind: obs.KindUpdate, Proc: 1, Addr: 0x80, TxID: 7},
		obs.Event{TS: 10, Kind: obs.KindUpdate, Proc: 2, Addr: 0x80, TxID: 7},
		obs.Event{TS: 10, Kind: obs.KindTx, Proc: 0, Addr: 0x80, Col: 8, Op: obs.OpWrite, TxID: 7},
	)
	ps := a.Analyze(-1).Protocols["firefly"]
	if ps == nil {
		t.Fatal("no firefly aggregate")
	}
	if got := ps.UpdFanout[2]; got != 1 {
		t.Errorf("UpdFanout[2] = %d, want 1 (%v)", got, ps.UpdFanout)
	}
	if len(a.pending) != 0 {
		t.Errorf("pending trackers not drained: %d left", len(a.pending))
	}
}

// TestPendingEvictsOldest: with more transactions in flight than
// maxPending (a trace that lost KindTx events), the oldest txid's
// fan-out is dropped and every later one kept.
func TestPendingEvictsOldest(t *testing.T) {
	var a Analyzer
	for id := uint64(1); id <= maxPending+1; id++ {
		a.Consume(&obs.Event{Kind: obs.KindUpdate, Proc: 1, TxID: id})
	}
	a.Consume(&obs.Event{Kind: obs.KindUpdate, Proc: 2, TxID: maxPending + 1})
	if len(a.pending) != maxPending {
		t.Fatalf("%d transactions pending, want %d", len(a.pending), maxPending)
	}
	if _, ok := a.pending[1]; ok {
		t.Error("the oldest transaction was kept")
	}
	if p := a.pending[2]; p.upd != 1 {
		t.Errorf("tx 2 has %d updates, want 1", p.upd)
	}
	if p := a.pending[maxPending+1]; p.upd != 2 {
		t.Errorf("the newest tx has %d updates, want 2", p.upd)
	}
}

// TestAnalysisJSONRoundTrip: the Analysis must survive JSON (the CLI's
// -json mode and the /coherence endpoint both rely on it).
func TestAnalysisJSONRoundTrip(t *testing.T) {
	var a Analyzer
	feed(&a,
		state(0, 0, 0x40, "I", "S", "fill", "berkeley", 1),
		state(10, 0, 0x40, "S", "M", "write-upgrade", "berkeley", 2),
	)
	an := a.Analyze(0)
	raw, err := json.Marshal(an)
	if err != nil {
		t.Fatal(err)
	}
	var back Analysis
	if err := json.Unmarshal(raw, &back); err != nil {
		t.Fatal(err)
	}
	if back.StateEvents != an.StateEvents || back.Protocols["berkeley"] == nil {
		t.Fatalf("round trip lost data: %s", raw)
	}
	if back.Protocols["berkeley"].Matrix != an.Protocols["berkeley"].Matrix {
		t.Error("matrix changed across JSON round trip")
	}
}

// TestRenderOutputs: the text and HTML renderers mention the protocol,
// the matrix header and the top line, and the HTML is self-contained
// (no external src/href references).
func TestRenderOutputs(t *testing.T) {
	var a Analyzer
	feed(&a,
		state(0, 0, 0xabc0, "I", "E", "fill", "moesi", 1),
		state(75, 0, 0xabc0, "E", "M", "silent-write", "moesi", 0),
		obs.Event{TS: 500, Kind: obs.KindStall, Proc: 0},
	)
	an := a.Analyze(0)

	var txt bytes.Buffer
	an.Render(&txt)
	for _, want := range []string{"protocol moesi", "transition matrix", "0x000000abc0", "residency"} {
		if !strings.Contains(txt.String(), want) {
			t.Errorf("text report missing %q:\n%s", want, txt.String())
		}
	}

	var html bytes.Buffer
	if err := an.RenderHTML(&html); err != nil {
		t.Fatal(err)
	}
	out := html.String()
	for _, want := range []string{"<!doctype html", "coherence report", `"protocols"`} {
		if !strings.Contains(out, want) {
			t.Errorf("html report missing %q", want)
		}
	}
	for _, banned := range []string{"src=\"http", "href=\"http"} {
		if strings.Contains(out, banned) {
			t.Errorf("html report references external asset (%s)", banned)
		}
	}
}

// TestChainCap: a line whose ownership bounces more than MaxChainLen
// times keeps a bounded chain, marks truncation, and still counts
// every acquisition in Owners.
func TestChainCap(t *testing.T) {
	var a Analyzer
	ts := int64(0)
	for i := 0; i < MaxChainLen+20; i++ {
		p := i % 2
		feed(&a,
			state(ts, p, 0x40, "I", "M", "fill", "moesi", uint64(i+1)),
			state(ts, 1-p, 0x40, "M", "I", "snoop-cache-rfo", "moesi", uint64(i+1)),
		)
		ts += 10
	}
	an := a.Analyze(1)
	line := an.TopLines[0]
	if !line.Truncated {
		t.Error("chain not marked truncated")
	}
	if len(line.Chain) != MaxChainLen {
		t.Errorf("chain len = %d, want cap %d", len(line.Chain), MaxChainLen)
	}
	if line.Owners != int64(MaxChainLen+20) {
		t.Errorf("owners = %d, want %d", line.Owners, MaxChainLen+20)
	}
}
