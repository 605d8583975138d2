package coherence_test

import (
	"reflect"
	"strings"
	"testing"

	"futurebus/internal/hierarchy"
	"futurebus/internal/obs"
	"futurebus/internal/obs/coherence"
	"futurebus/internal/sim"
	"futurebus/internal/workload"
)

// runTree runs a tree of two clusters of two caches each, whose
// clusters run protocols (nil: the default), on the deterministic
// engine, checks it, and closes rec, which saw every event.
func runTree(t *testing.T, rec *obs.Recorder, protocols []string) {
	t.Helper()
	sys, err := sim.NewTree(hierarchy.Config{
		Clusters: 2, ProcsPerCluster: 2, CacheSets: 8, CacheWays: 2, Obs: rec,
		ClusterProtocols: protocols,
	})
	if err != nil {
		t.Fatal(err)
	}
	gens := sys.Generators(func(proc int) workload.Generator {
		return hierarchy.ClusterModel{
			Cluster: proc / 2, Proc: proc % 2,
			GlobalSharedLines: 8, ClusterSharedLines: 8, PrivateLines: 16,
			PGlobal: 0.3, PCluster: 0.4, PWrite: 0.3,
			WordsPerLine: sys.WordsPerLine(),
		}.NewGenerator(7)
	})
	if _, err := (&sim.Engine{Sys: sys, Gens: gens}).Run(400); err != nil {
		t.Fatal(err)
	}
	if err := sys.Check(); err != nil {
		t.Fatal(err)
	}
	if err := rec.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestHierarchyLinesKeyedByBus runs a two-cluster hierarchy, where a
// bridge on the global bus shares its proc id with a cluster cache and
// one address is cached on several buses. Keyed by (bus, address),
// every state event starts from the state its copy holds, and the
// analyzer's lines, residency, ownership moves and per-line owners
// equal a fold over the same stream keyed that way.
func TestHierarchyLinesKeyedByBus(t *testing.T) {
	var a coherence.Analyzer
	var events []obs.Event
	runTree(t, obs.New(&a, obs.SinkFunc(func(e *obs.Event) { events = append(events, *e) })), nil)
	an := a.Analyze(coherence.MaxLines)

	type busLine struct {
		bus  int32
		addr uint64
	}
	type copyKey struct {
		line busLine
		proc int32
	}
	type copyState struct {
		state int
		since int64
		proto obs.Name
	}
	type lineState struct {
		events, owners int64
		owner          int32
		relTx          uint64
	}
	copies := map[copyKey]*copyState{}
	byAddr := map[[2]uint64]int{} // (addr, proc) -> state
	lines := map[busLine]*lineState{}
	residency := map[string]*[coherence.NumStates]int64{}
	moves := map[string]int64{}
	charge := func(proto obs.Name, state int, d int64) {
		if residency[coherence.ProtoName(proto)] == nil {
			residency[coherence.ProtoName(proto)] = &[coherence.NumStates]int64{}
		}
		if d > 0 {
			residency[coherence.ProtoName(proto)][state] += d
		}
	}
	var horizon, stateEvents, sameBusStale, addrStale int64
	for i := range events {
		e := &events[i]
		horizon = max(horizon, e.TS+e.Dur)
		from, to := coherence.StateIndex(e.From.Letter()), coherence.StateIndex(e.To.Letter())
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
		owned := to == coherence.IdxM || to == coherence.IdxO
		switch {
		case owned && l.owner != e.Proc:
			if l.owner >= 0 || e.TxID != 0 && e.TxID == l.relTx {
				moves[coherence.ProtoName(e.Proto)]++
			}
			l.owner, l.relTx = e.Proc, 0
			l.owners++
		case !owned && l.owner == e.Proc && (from == coherence.IdxM || from == coherence.IdxO):
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
		want := [coherence.NumStates]int64{}
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
// cache k of the tree share a proc id but not a protocol. Keyed by
// (bus, proc), every master's read sourcing and fan-out is filed under
// its own protocol — the bridges under MOESI-invalidate, each cluster's
// caches under theirs, and a bridge's local agent, which changes no
// line's state, under unknown — and equals a fold over the same stream
// keyed that way.
func TestHierarchyMastersKeyedByBus(t *testing.T) {
	var a coherence.Analyzer
	var events []obs.Event
	runTree(t, obs.New(&a, obs.SinkFunc(func(e *obs.Event) { events = append(events, *e) })),
		[]string{"moesi-update", "dragon"})
	an := a.Analyze(-1)

	type masterKey struct{ bus, proc int32 }
	type txStats struct {
		cache, mem int64
		inv, upd   map[int]int64
	}
	protoOf := map[masterKey]obs.Name{}
	stats := map[masterKey]*txStats{}
	inv, upd := map[uint64]int{}, map[uint64]int{}
	for i := range events {
		e := &events[i]
		switch e.Kind {
		case obs.KindState:
			if e.Proc < 0 || coherence.StateIndex(e.From.Letter()) < 0 || coherence.StateIndex(e.To.Letter()) < 0 {
				continue
			}
			protoOf[masterKey{e.Bus, e.Proc}] = e.Proto
			if e.To.Letter() == "I" && strings.HasPrefix(e.Cause.String(), "snoop-") && e.TxID != 0 {
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
			if e.Op == obs.OpRead {
				if e.DI {
					s.cache++
				} else {
					s.mem++
				}
			}
			if coherence.ColIM(e.Col) {
				s.inv[inv[e.TxID]]++
			}
			if coherence.ColBC(e.Col) {
				s.upd[upd[e.TxID]]++
			}
			delete(inv, e.TxID)
			delete(upd, e.TxID)
		}
	}
	want := map[string]*txStats{}
	for k, s := range stats {
		name := coherence.ProtoName(protoOf[k])
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
