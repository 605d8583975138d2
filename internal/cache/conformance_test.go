package cache

import (
	"bytes"
	"testing"

	"futurebus/internal/bus"
	"futurebus/internal/core"
	"futurebus/internal/memory"
	"futurebus/internal/protocols"
)

// Conformance harness: for EVERY registered protocol, EVERY table cell
// is exercised against the concrete cache engine — the cache is forced
// into the cell's state, the cell's event is fired, and the resulting
// state must equal the table's preferred action resolved with the
// actual CH environment. This pins the engine to the tables: a
// transition bug anywhere in the client or snoop paths fails the exact
// cell it breaks.

// chFromMOESISharer says whether a MOESI cache holding S asserts CH on
// each bus column (it is the "environment" cache B below).
func chFromMOESISharer(col core.BusEvent) bool {
	switch col {
	case core.BusCacheRead, core.BusPlainRead,
		core.BusCacheBroadcastWrite, core.BusPlainBroadcastWrite:
		return true
	default: // columns 6 and 9 invalidate B silently
		return false
	}
}

// expectedAfterSnoop computes the table-predicted state after snooping
// one transaction of the given column (following one BS abort/retry
// round if the preferred action aborts).
func expectedAfterSnoop(tbl *core.Table, s core.State, col core.BusEvent, otherCH bool) (core.State, bool) {
	a, ok := tbl.PreferredSnoop(s, col)
	if !ok {
		return 0, false
	}
	if a.Abort != nil {
		mid := a.Abort.Next
		if !mid.Valid() {
			return core.Invalid, true
		}
		a2, ok := tbl.PreferredSnoop(mid, col)
		if !ok || a2.Abort != nil {
			return 0, false
		}
		return a2.Next.Resolve(otherCH), true
	}
	return a.Next.Resolve(otherCH), true
}

// expectedAfterLocal computes the table-predicted state after a local
// event, resolving CH against whether a MOESI sharer (B) is present.
func expectedAfterLocal(tbl *core.Table, s core.State, e core.LocalEvent, haveB bool) (core.State, bool) {
	a, ok := tbl.PreferredLocal(s, e)
	if !ok {
		return 0, false
	}
	resolveWith := func(act core.LocalAction) core.State {
		if !act.NeedsBus() {
			return act.Next.Resolve(false)
		}
		ch := haveB && chFromMOESISharer(core.ClassifyBusEvent(act.Assert))
		return act.Next.Resolve(ch)
	}
	if a.Op != core.BusReadThenWrite {
		return resolveWith(a), true
	}
	// Read>Write: the read-miss action, then the write action on the
	// resulting state.
	rm, ok := tbl.PreferredLocal(core.Invalid, core.LocalRead)
	if !ok {
		return 0, false
	}
	mid := resolveWith(rm)
	wa, ok := tbl.PreferredLocal(mid, core.LocalWrite)
	if !ok || wa.Op == core.BusReadThenWrite {
		return 0, false
	}
	return resolveWith(wa), true
}

// memImage is the slice of memory the harness needs for cell setup.
type memImage interface {
	WriteLine(addr bus.Addr, data []byte)
}

// conformanceRig builds a fresh fabric (a single bus, or an interleaved
// backplane when shards > 1) with the protocol under test (A, of subs
// lines per tag), a MOESI environment cache (B, optional), and a raw
// master id.
func conformanceRig(t *testing.T, name string, withB bool, shards, subs int, tenure string) (bus.Fabric, memImage, *Cache, *Cache) {
	t.Helper()
	cfg := bus.Config{LineSize: testLineSize}
	if tenure != "" && tenure != "atomic" {
		tp, err := bus.NewTenure(tenure, 0)
		if err != nil {
			t.Fatal(err)
		}
		disc, err := bus.NewDiscipline("rr")
		if err != nil {
			t.Fatal(err)
		}
		cfg.Tenure, cfg.Discipline = tp, disc
	}
	// A sector cache interleaves at whole sectors, and the plain
	// environment cache's sets must then cover granularity × shards.
	gran, envSets := 1, 8
	if subs > 1 {
		gran, envSets = subs, 16
	}
	var b bus.Fabric
	var mem memImage
	if shards == 1 {
		m := memory.New(testLineSize)
		b = bus.New(m, cfg)
		mem = m
	} else {
		m := memory.NewSharded(testLineSize, shards, gran)
		b = bus.NewInterleaved(m.Ports(), bus.InterleavedConfig{
			Config: cfg, Shards: shards, Granularity: gran,
		})
		mem = m
	}
	p, err := protocols.New(name)
	if err != nil {
		t.Fatal(err)
	}
	a := New(0, b, p, Config{Sets: 8, Ways: 2, SubSectors: subs})
	var envB *Cache
	if withB {
		envB = New(1, b, protocols.MOESI(), Config{Sets: envSets, Ways: 2})
	}
	return b, mem, a, envB
}

// columnSignals is the master signal triple that heads each Table 2
// column.
var columnSignals = map[core.BusEvent]core.Signal{
	core.BusCacheRead:           core.SigCA,
	core.BusCacheRFO:            core.SigCA | core.SigIM,
	core.BusPlainRead:           0,
	core.BusCacheBroadcastWrite: core.SigCA | core.SigIM | core.SigBC,
	core.BusPlainWrite:          core.SigIM,
	core.BusPlainBroadcastWrite: core.SigIM | core.SigBC,
}

// conformanceShards are the fabric shapes every cell is verified on:
// the protocol engine must be bit-for-bit table-conformant whether the
// line's serialisation point is a single bus or one shard of an
// interleaved backplane.
var conformanceShards = []int{1, 2, 4}

// conformanceSubSectors are the cache organisations under test: plain,
// and sectors of four lines under one tag. Consistency state is per line
// in both (§5.1), so every cell must resolve identically.
var conformanceSubSectors = []int{1, 4}

// conformanceTenures: every cell must resolve identically whether the
// bus holds one atomic tenure per transaction or splits the data phase
// into a separate tenure — the tenure policy is timing, never protocol.
var conformanceTenures = []string{"atomic", "split"}

// conformanceProtocols are the deterministic cached protocols (the
// dynamic choosers pick a different legal action per draw, so they have
// no single predicted result).
var conformanceProtocols = []string{
	"moesi", "moesi-invalidate", "moesi-update", "berkeley", "dragon",
	"illinois", "write-once", "firefly", "synapse",
	"write-through", "write-through-broadcast",
}

// TestSnoopConformance: every (state × bus column × CH environment)
// cell of every protocol, against the live engine.
func TestSnoopConformance(t *testing.T) {
	const addr = bus.Addr(0x30)
	lineData := bytes.Repeat([]byte{0x5A}, testLineSize)

	checked := 0
	for _, subs := range conformanceSubSectors {
		for _, nsh := range conformanceShards {
			for _, name := range conformanceProtocols {
				p, err := protocols.New(name)
				if err != nil {
					t.Fatal(err)
				}
				tbl := p.Table()
				for _, s := range tbl.States {
					if !s.Valid() {
						continue
					}
					for _, col := range tbl.BusEvents {
						for _, withB := range []bool{false, true} {
							otherCH := withB && chFromMOESISharer(col)
							want, ok := expectedAfterSnoop(tbl, s, col, otherCH)
							if !ok {
								continue
							}
							// An exclusive A alongside a sharing B is not a
							// reachable configuration; skip the contradictory
							// setup (the CH value would be meaningless).
							if withB && s.ExclusiveCopy() {
								continue
							}
							for _, ten := range conformanceTenures {
								_, mem, a, envB := conformanceRig(t, name, withB, nsh, subs, ten)
								if !s.OwnedCopy() {
									// Unowned states must match the owner; with no
									// owner the image is memory.
									mem.WriteLine(addr, lineData)
								}
								a.forceLine(addr, s, lineData)
								if envB != nil {
									envB.forceLine(addr, core.Shared, lineData)
								}

								tx := bus.Transaction{MasterID: 9, Signals: columnSignals[col], Addr: addr}
								switch col {
								case core.BusCacheRead, core.BusPlainRead:
									tx.Op = core.BusRead
									tx.Data = make([]byte, a.bus.LineSize())
								case core.BusCacheRFO:
									tx.Op = core.BusAddrOnly
								default:
									tx.Op = core.BusWrite
									tx.Partial, tx.Word, tx.Val = true, 0, 0x77
								}
								if _, err := a.bus.Execute(tx); err != nil {
									t.Fatalf("%s state %s col %d (B=%t, shards=%d, subs=%d, tenure=%s): %v", name, s.Letter(), col.Column(), withB, nsh, subs, ten, err)
								}
								if got := a.State(addr); got != want {
									t.Errorf("%s: state %s, col %d, B=%t, shards=%d, subs=%d, tenure=%s: engine went to %s, table says %s",
										name, s.Letter(), col.Column(), withB, nsh, subs, ten, got.Letter(), want.Letter())
								}
								checked++
							}
						}
					}
				}
			}
		}
	}
	if checked < 600 {
		t.Fatalf("only %d snoop cells checked — the harness is skipping too much", checked)
	}
	t.Logf("%d snoop cells verified against the engine", checked)
}

// TestLocalConformance: every (state × local event × CH environment)
// cell of every protocol.
func TestLocalConformance(t *testing.T) {
	const addr = bus.Addr(0x31)
	lineData := bytes.Repeat([]byte{0x6B}, testLineSize)

	checked := 0
	for _, subs := range conformanceSubSectors {
		for _, nsh := range conformanceShards {
			for _, name := range conformanceProtocols {
				p, err := protocols.New(name)
				if err != nil {
					t.Fatal(err)
				}
				tbl := p.Table()
				states := append([]core.State{}, tbl.States...)
				for _, s := range states {
					for _, e := range tbl.LocalEvents {
						for _, withB := range []bool{false, true} {
							want, ok := expectedAfterLocal(tbl, s, e, withB)
							if !ok {
								continue
							}
							if withB && s.ExclusiveCopy() {
								continue
							}
							for _, ten := range conformanceTenures {
								_, mem, a, envB := conformanceRig(t, name, withB, nsh, subs, ten)
								if !s.OwnedCopy() {
									mem.WriteLine(addr, lineData)
								}
								if s.Valid() {
									a.forceLine(addr, s, lineData)
								}
								if envB != nil {
									envB.forceLine(addr, core.Shared, lineData)
								}

								switch e {
								case core.LocalRead:
									_, err = a.ReadWord(addr, 0)
								case core.LocalWrite:
									err = a.WriteWord(addr, 0, 0x99)
								case core.Pass:
									err = a.Pass(addr)
								case core.Flush:
									err = a.Flush(addr)
								}
								if err != nil {
									t.Fatalf("%s state %s %s (B=%t, shards=%d, subs=%d, tenure=%s): %v", name, s.Letter(), e, withB, nsh, subs, ten, err)
								}
								if got := a.State(addr); got != want {
									t.Errorf("%s: state %s, %s, B=%t, shards=%d, subs=%d, tenure=%s: engine went to %s, table says %s",
										name, s.Letter(), e, withB, nsh, subs, ten, got.Letter(), want.Letter())
								}
								checked++
							}
						}
					}
				}
			}
		}
	}
	if checked < 300 {
		t.Fatalf("only %d local cells checked — the harness is skipping too much", checked)
	}
	t.Logf("%d local cells verified against the engine", checked)
}
