package cache

import (
	"testing"

	"futurebus/internal/bus"
	"futurebus/internal/check"
	"futurebus/internal/core"
	"futurebus/internal/memory"
	"futurebus/internal/protocols"
)

// sectorCfg is a sector cache of 2 sets × 2 ways of 4-line sectors:
// sector tags 0, 2, 4 (lines 0–3, 8–11, 16–19) share set 0.
func sectorCfg() Config { return Config{Sets: 2, Ways: 2, SubSectors: 4} }

func sectorRig(t *testing.T) (*bus.Bus, *memory.Memory, *Cache, *Cache) {
	t.Helper()
	mem := memory.New(testLineSize)
	b := bus.New(mem, bus.Config{LineSize: testLineSize})
	sc := New(0, b, protocols.MOESI(), sectorCfg())
	pc := New(1, b, protocols.MOESI(), smallCfg())
	return b, mem, sc, pc
}

// TestSectorBasicRW: read/write hits and sub-sector fills.
func TestSectorBasicRW(t *testing.T) {
	_, _, sc, _ := sectorRig(t)
	if err := sc.WriteWord(0, 0, 0x11); err != nil {
		t.Fatal(err)
	}
	v, err := sc.ReadWord(0, 0)
	if err != nil || v != 0x11 {
		t.Fatalf("read %#x, %v", v, err)
	}
	st := sc.Stats()
	if st.WriteMisses != 1 || st.ReadHits != 1 || st.Replacements != 0 {
		t.Errorf("stats %+v", st)
	}
}

// TestSectorSubFill: lines of one sector fill independently, one
// transaction each, under the sector's one tag: a whole sector plus a
// second sector of the same set fit its two ways without a
// replacement.
func TestSectorSubFill(t *testing.T) {
	b, _, sc, _ := sectorRig(t)
	if _, err := sc.ReadWord(0, 0); err != nil { // sector miss, fetch sub 0
		t.Fatal(err)
	}
	before := b.Stats().Transactions
	if _, err := sc.ReadWord(1, 0); err != nil { // same sector, sub 1
		t.Fatal(err)
	}
	if got := b.Stats().Transactions - before; got != 1 {
		t.Errorf("sub fill used %d transactions", got)
	}
	// States are per sub-sector: subs 0,1 valid, 2,3 invalid.
	if sc.State(0) == core.Invalid || sc.State(1) == core.Invalid {
		t.Error("filled subs invalid")
	}
	if sc.State(2) != core.Invalid || sc.State(3) != core.Invalid {
		t.Error("unfetched subs valid")
	}
	for _, a := range []bus.Addr{2, 3, 8} { // rest of sector 0, then sector 2
		if _, err := sc.ReadWord(a, 0); err != nil {
			t.Fatal(err)
		}
	}
	st := sc.Stats()
	if st.ReadMisses != 5 || st.Replacements != 0 {
		t.Errorf("stats %+v", st)
	}
	for a := bus.Addr(0); a < 4; a++ {
		if !sc.Contains(a) {
			t.Errorf("line %d of the resident sector lost", a)
		}
	}
}

// TestSectorEvictionFlushesDirtySubs: a sector conflict pushes every
// owned sub-sector.
func TestSectorEvictionFlushesDirtySubs(t *testing.T) {
	_, mem, sc, _ := sectorRig(t)
	// Sector 0 (lines 0-3): dirty two subs.
	if err := sc.WriteWord(0, 0, 0xA0); err != nil {
		t.Fatal(err)
	}
	if err := sc.WriteWord(2, 0, 0xA2); err != nil {
		t.Fatal(err)
	}
	// Sectors 2 and 4 map to the same set (Sets=2, sector index = tag%2):
	// sector tags 0,2,4 are all even → set 0. Two more allocations evict
	// sector 0.
	if _, err := sc.ReadWord(8, 0); err != nil { // sector 2
		t.Fatal(err)
	}
	if _, err := sc.ReadWord(16, 0); err != nil { // sector 4
		t.Fatal(err)
	}
	if sc.State(0) != core.Invalid || sc.State(2) != core.Invalid {
		t.Fatal("sector 0 still resident")
	}
	st := sc.Stats()
	if st.Replacements != 1 || st.DirtyEvictions != 2 || st.Flushes != 2 {
		t.Errorf("stats %+v", st)
	}
	if mem.Peek(0)[0] != 0xA0 || mem.Peek(2)[0] != 0xA2 {
		t.Error("dirty subs not written back")
	}
	// Data survives the round trip.
	if v, err := sc.ReadWord(0, 0); err != nil || v != 0xA0 {
		t.Fatalf("read back %#x, %v", v, err)
	}
}

// TestSectorRecentlyUsed: §5.2 recency is a way's, so a line whose
// sector-mate was used last is recent, whatever its own last use.
func TestSectorRecentlyUsed(t *testing.T) {
	_, _, sc, _ := sectorRig(t)
	mustRead(t, sc, 0, 0) // sector 0 takes way 0 of set 0
	mustRead(t, sc, 8, 0) // sector 2 takes way 1
	mustRead(t, sc, 1, 0) // sector 0 is the set's MRU way again
	sh := sc.shard(0)     // sectors 0 and 2 sit in set 0, hence one shard
	sh.mu.Lock()
	defer sh.mu.Unlock()
	if !sc.recentlyUsed(sc.lookup(0)) {
		t.Error("line of the MRU sector reported stale")
	}
	if sc.recentlyUsed(sc.lookup(8)) {
		t.Error("line of the LRU sector reported recent")
	}
}

// TestSectorCoherentWithPlainCache: sub-sector states obey the same
// protocol as line states — intervention, updates, invalidations all
// work between a sector cache and a plain cache.
func TestSectorCoherentWithPlainCache(t *testing.T) {
	_, _, sc, pc := sectorRig(t)

	// Sector cache dirties a line; plain cache reads it (intervention).
	if err := sc.WriteWord(1, 0, 0x77); err != nil {
		t.Fatal(err)
	}
	if v := mustRead(t, pc, 1, 0); v != 0x77 {
		t.Fatalf("plain cache read %#x", v)
	}
	if sc.State(1) != core.Owned {
		t.Errorf("sector sub state %s after supplying", sc.State(1))
	}
	if st := sc.Stats(); st.InterventionsSupplied != 1 {
		t.Errorf("interventions %d", st.InterventionsSupplied)
	}

	// Plain cache broadcasts a write (MOESI preferred): the sector sub
	// updates in place.
	mustWrite(t, pc, 1, 1, 0x88)
	if v, err := sc.ReadWord(1, 1); err != nil || v != 0x88 {
		t.Fatalf("sector update lost: %#x, %v", v, err)
	}
	if st := sc.Stats(); st.UpdatesReceived != 1 {
		t.Errorf("updates %d", st.UpdatesReceived)
	}

	// An RFO from the plain cache invalidates just that sub-sector.
	if err := sc.WriteWord(2, 0, 1); err != nil { // neighbours stay valid
		t.Fatal(err)
	}
	pcInv := New(2, sc.bus, protocols.MOESIInvalidate(), smallCfg())
	mustWrite(t, pcInv, 1, 0, 0x99)
	if sc.State(1) != core.Invalid {
		t.Errorf("sub 1 state %s after foreign RFO", sc.State(1))
	}
	if sc.State(2) == core.Invalid {
		t.Error("neighbour sub invalidated too — consistency state must be per sub-sector")
	}
}

// TestSectorWithConsistencyChecker: the consistency checker, judging
// against the golden record of writes, passes a mixed sector/plain
// system via ForEachLine.
func TestSectorWithConsistencyChecker(t *testing.T) {
	mem := memory.New(testLineSize)
	b := bus.New(mem, bus.Config{LineSize: testLineSize})
	shadow := check.NewShadow(testLineSize)
	scfg, pcfg := sectorCfg(), smallCfg()
	scfg.OnWrite, pcfg.OnWrite = shadow.OnWrite, shadow.OnWrite
	sc := New(0, b, protocols.MOESI(), scfg)
	pc := New(1, b, protocols.MOESI(), pcfg)
	for i := 0; i < 200; i++ {
		addr := bus.Addr(i % 12)
		if i%3 == 0 {
			if err := sc.WriteWord(addr, i%8, uint32(i+1)); err != nil {
				t.Fatal(err)
			}
		} else {
			if _, err := pc.ReadWord(addr, i%8); err != nil {
				t.Fatal(err)
			}
			if i%5 == 0 {
				mustWrite(t, pc, addr, (i+1)%8, uint32(i+7))
			}
		}
	}
	checker := &check.Checker{Caches: []check.LineSource{sc, pc}, Memory: mem, Shadow: shadow}
	if err := checker.MustPass(); err != nil {
		t.Fatal(err)
	}
}

// TestSectorCleanCommand: CmdClean pushes an owned sub-sector.
func TestSectorCleanCommand(t *testing.T) {
	b, mem, sc, _ := sectorRig(t)
	if err := sc.WriteWord(3, 0, 0xEE); err != nil {
		t.Fatal(err)
	}
	if err := CleanLine(b, 99, 3); err != nil {
		t.Fatal(err)
	}
	if mem.Peek(3)[0] != 0xEE {
		t.Error("clean did not flush the sub-sector")
	}
	if sc.State(3).OwnedCopy() {
		t.Errorf("still owned after clean: %s", sc.State(3))
	}
}

// TestSectorGeometryPanics: invalid geometry is rejected.
func TestSectorGeometryPanics(t *testing.T) {
	mem := memory.New(testLineSize)
	b := bus.New(mem, bus.Config{LineSize: testLineSize})
	defer func() {
		if recover() == nil {
			t.Error("bad geometry accepted")
		}
	}()
	New(0, b, protocols.MOESI(), Config{Sets: 1, Ways: 1, SubSectors: -1})
}
