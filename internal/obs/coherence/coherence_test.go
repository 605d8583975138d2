package coherence

import (
	"bytes"
	"encoding/json"
	"reflect"
	"strings"
	"testing"

	"futurebus/internal/hierarchy"
	"futurebus/internal/obs"
	"futurebus/internal/workload"
)

func state(ts int64, proc int, addr uint64, from, to, cause, proto string, txid uint64) obs.Event {
	return obs.Event{TS: ts, Kind: obs.KindState, Proc: proc, Addr: addr,
		From: from, To: to, Cause: cause, Proto: proto, TxID: txid}
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
		obs.Event{TS: 300, Kind: obs.KindTx, Proc: 1, Addr: 0x40, Col: 6, Op: "R", DI: true, TxID: 2},
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
		obs.Event{TS: 200, Kind: obs.KindTx, Proc: 1, Addr: 0x40, Col: 6, Op: "R", DI: true, TxID: 2},
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
		obs.Event{TS: 10, Kind: obs.KindTx, Proc: 0, Addr: 0x80, Col: 8, Op: "W", TxID: 7},
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

// TestHierarchyLinesKeyedByBus runs a two-cluster hierarchy, where
// every bus repeats the proc ids (a bridge on the global bus shares one
// with a cluster cache, and the caches of the two clusters share theirs)
// and one address is cached on several buses. Keyed by (bus, address),
// every state event starts from the state its copy holds, and the
// analyzer's lines, residency, ownership moves and per-line owners
// equal a fold over the same stream keyed that way.
func TestHierarchyLinesKeyedByBus(t *testing.T) {
	var a Analyzer
	var events []obs.Event
	rec := obs.New(&a, obs.SinkFunc(func(e *obs.Event) { events = append(events, *e) }))
	sys, err := hierarchy.New(hierarchy.Config{Clusters: 2, ProcsPerCluster: 2, CacheSets: 8, CacheWays: 2, Obs: rec})
	if err != nil {
		t.Fatal(err)
	}
	gens := make([][]workload.Generator, len(sys.Clusters))
	for ci := range gens {
		for pi := 0; pi < 2; pi++ {
			gens[ci] = append(gens[ci], hierarchy.ClusterModel{
				Cluster: ci, Proc: pi,
				GlobalSharedLines: 8, ClusterSharedLines: 8, PrivateLines: 16,
				PGlobal: 0.3, PCluster: 0.4, PWrite: 0.3,
				WordsPerLine: sys.Global.LineSize() / 4,
			}.NewGenerator(7))
		}
	}
	if err := hierarchy.Run(sys, gens, 400); err != nil {
		t.Fatal(err)
	}
	if err := rec.Close(); err != nil {
		t.Fatal(err)
	}
	an := a.Analyze(MaxLines)

	type busLine struct {
		bus  int
		addr uint64
	}
	type copyKey struct {
		line busLine
		proc int
	}
	type copyState struct {
		state int
		since int64
		proto string
	}
	type lineState struct {
		events, owners int64
		owner          int
		relTx          uint64
	}
	copies := map[copyKey]*copyState{}
	byAddr := map[[2]uint64]int{} // (addr, proc) -> state
	lines := map[busLine]*lineState{}
	residency := map[string]*[NumStates]int64{}
	moves := map[string]int64{}
	charge := func(proto string, state int, d int64) {
		if residency[protoName(proto)] == nil {
			residency[protoName(proto)] = &[NumStates]int64{}
		}
		if d > 0 {
			residency[protoName(proto)][state] += d
		}
	}
	var horizon, stateEvents, sameBusStale, addrStale int64
	for i := range events {
		e := &events[i]
		horizon = max(horizon, e.TS+e.Dur)
		from, to := StateIndex(e.From), StateIndex(e.To)
		if e.Kind != obs.KindState || from < 0 || to < 0 || e.Proc < 0 {
			continue
		}
		stateEvents++
		lk := busLine{e.Bus, e.Addr}
		ak := [2]uint64{e.Addr, uint64(e.Proc)}
		if held, ok := byAddr[ak]; ok && held != from {
			addrStale++
		}
		byAddr[ak] = to

		c := copies[copyKey{lk, e.Proc}]
		if c == nil {
			c = &copyState{state: from, since: e.TS, proto: e.Proto}
			copies[copyKey{lk, e.Proc}] = c
		} else if c.state != from {
			sameBusStale++
		}
		charge(c.proto, c.state, e.TS-c.since)
		c.state, c.since, c.proto = to, e.TS, e.Proto

		l := lines[lk]
		if l == nil {
			l = &lineState{owner: -1}
			lines[lk] = l
		}
		l.events++
		owned := to == idxM || to == idxO
		switch {
		case owned && l.owner != e.Proc:
			if l.owner >= 0 || e.TxID != 0 && e.TxID == l.relTx {
				moves[protoName(e.Proto)]++
			}
			l.owner, l.relTx = e.Proc, 0
			l.owners++
		case !owned && l.owner == e.Proc && (from == idxM || from == idxO):
			l.owner, l.relTx = -1, e.TxID
		}
	}
	for _, c := range copies {
		charge(c.proto, c.state, horizon-c.since)
	}

	if addrStale == 0 {
		t.Fatalf("no state event disagrees with an address-keyed shadow: the run does not exercise shared proc ids")
	}
	if sameBusStale != 0 {
		t.Errorf("%d of %d state events start from a state other than their (bus, address) copy holds", sameBusStale, stateEvents)
	}
	if an.StateEvents != stateEvents || an.Lines != len(lines) {
		t.Errorf("analysis: %d state events over %d lines, fold: %d over %d", an.StateEvents, an.Lines, stateEvents, len(lines))
	}
	for name, ps := range an.Protocols {
		want := [NumStates]int64{}
		if r := residency[name]; r != nil {
			want = *r
		}
		if ps.ResidencyNS != want || ps.OwnershipMoves != moves[name] {
			t.Errorf("%s: residency %v, %d ownership moves; fold: %v, %d",
				name, ps.ResidencyNS, ps.OwnershipMoves, want, moves[name])
		}
	}
	type lineStats struct{ addr, events, owners uint64 }
	got, want := map[lineStats]int{}, map[lineStats]int{}
	for _, ls := range an.TopLines {
		got[lineStats{ls.Addr, uint64(ls.Events), uint64(ls.Owners)}]++
	}
	for k, l := range lines {
		want[lineStats{k.addr, uint64(l.events), uint64(l.owners)}]++
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("per-line events and owners differ from the fold")
	}
}

// TestHierarchyMastersKeyedByBus runs a two-cluster hierarchy whose
// clusters run different protocols, so bridge k on the global bus and
// cache k of each cluster share a proc id but not a protocol. Keyed by
// (bus, proc), every master's read sourcing and fan-out is filed under
// its own protocol — the bridges under MOESI-invalidate, each cluster's
// caches under theirs, and a bridge's local agent, which changes no
// line's state, under unknown — and equals a fold over the same stream
// keyed that way.
func TestHierarchyMastersKeyedByBus(t *testing.T) {
	var a Analyzer
	var events []obs.Event
	rec := obs.New(&a, obs.SinkFunc(func(e *obs.Event) { events = append(events, *e) }))
	sys, err := hierarchy.New(hierarchy.Config{
		Clusters: 2, ProcsPerCluster: 2, CacheSets: 8, CacheWays: 2, Obs: rec,
		ClusterProtocols: []string{"moesi-update", "dragon"},
	})
	if err != nil {
		t.Fatal(err)
	}
	gens := make([][]workload.Generator, len(sys.Clusters))
	for ci := range gens {
		for pi := 0; pi < 2; pi++ {
			gens[ci] = append(gens[ci], hierarchy.ClusterModel{
				Cluster: ci, Proc: pi,
				GlobalSharedLines: 8, ClusterSharedLines: 8, PrivateLines: 16,
				PGlobal: 0.3, PCluster: 0.4, PWrite: 0.3,
				WordsPerLine: sys.Global.LineSize() / 4,
			}.NewGenerator(7))
		}
	}
	if err := hierarchy.Run(sys, gens, 400); err != nil {
		t.Fatal(err)
	}
	if err := rec.Close(); err != nil {
		t.Fatal(err)
	}
	an := a.Analyze(-1)

	type masterKey struct{ bus, proc int }
	type txStats struct {
		cache, mem int64
		inv, upd   map[int]int64
	}
	protoOf := map[masterKey]string{}
	stats := map[masterKey]*txStats{}
	inv, upd := map[uint64]int{}, map[uint64]int{}
	for i := range events {
		e := &events[i]
		switch e.Kind {
		case obs.KindState:
			if e.Proc < 0 || StateIndex(e.From) < 0 || StateIndex(e.To) < 0 {
				continue
			}
			protoOf[masterKey{e.Bus, e.Proc}] = e.Proto
			if e.To == "I" && strings.HasPrefix(e.Cause, "snoop-") && e.TxID != 0 {
				inv[e.TxID]++
			}
		case obs.KindUpdate:
			if e.TxID != 0 {
				upd[e.TxID]++
			}
		case obs.KindTx:
			if e.Proc < 0 {
				continue
			}
			k := masterKey{e.Bus, e.Proc}
			s := stats[k]
			if s == nil {
				s = &txStats{inv: map[int]int64{}, upd: map[int]int64{}}
				stats[k] = s
			}
			if e.Op == "R" {
				if e.DI {
					s.cache++
				} else {
					s.mem++
				}
			}
			if colIM(e.Col) {
				s.inv[inv[e.TxID]]++
			}
			if colBC(e.Col) {
				s.upd[upd[e.TxID]]++
			}
			delete(inv, e.TxID)
			delete(upd, e.TxID)
		}
	}
	want := map[string]*txStats{}
	for k, s := range stats {
		name := protoName(protoOf[k])
		w := want[name]
		if w == nil {
			w = &txStats{inv: map[int]int64{}, upd: map[int]int64{}}
			want[name] = w
		}
		w.cache += s.cache
		w.mem += s.mem
		for n, v := range s.inv {
			w.inv[n] += v
		}
		for n, v := range s.upd {
			w.upd[n] += v
		}
	}

	for _, name := range []string{"MOESI-invalidate", "MOESI-update", "Dragon", "unknown"} {
		if w := want[name]; w == nil || w.cache+w.mem+int64(len(w.inv)) == 0 {
			t.Errorf("the fold files no transactions under %s: the run does not exercise every kind of master", name)
		}
	}
	for name, ps := range an.Protocols {
		if want[name] == nil && ps.CacheSourced+ps.MemSourced+int64(len(ps.InvFanout)+len(ps.UpdFanout)) != 0 {
			t.Errorf("%s: transactions in the analysis, none in the fold", name)
		}
	}
	for name, w := range want {
		ps := an.Protocols[name]
		if ps == nil {
			t.Errorf("%s: in the fold, not in the analysis", name)
			continue
		}
		if ps.CacheSourced != w.cache || ps.MemSourced != w.mem ||
			!reflect.DeepEqual(ps.InvFanout, w.inv) || !reflect.DeepEqual(ps.UpdFanout, w.upd) {
			t.Errorf("%s: reads %d cache / %d memory, fan-out inv %v upd %v; fold: %d / %d, inv %v upd %v",
				name, ps.CacheSourced, ps.MemSourced, ps.InvFanout, ps.UpdFanout, w.cache, w.mem, w.inv, w.upd)
		}
	}
}
