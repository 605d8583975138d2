package cache

import (
	"bytes"
	"testing"

	"futurebus/internal/bus"
	"futurebus/internal/core"
	"futurebus/internal/memory"
	"futurebus/internal/protocols"
)

// TestFetchLineHeld: present lines return copies; absent lines fill via
// a normal read miss, all under a held bus.
func TestFetchLineHeld(t *testing.T) {
	b, mem, cs := rig(t, 2, protocols.MOESI, smallCfg())
	c0, c1 := cs[0], cs[1]
	mustWrite(t, c1, 4, 0, 0x42) // dirty elsewhere

	b.Acquire(4, -1)
	data := make([]byte, b.LineSize())
	err := c0.FetchLineHeld(4, data)
	b.Release(4)
	if err != nil {
		t.Fatal(err)
	}
	if data[0] != 0x42 {
		t.Errorf("fetched %x (intervention missed)", data[:4])
	}
	if c0.State(4) != core.Shared || c1.State(4) != core.Owned {
		t.Errorf("states %s/%s", c0.State(4), c1.State(4))
	}
	// Mutating the returned copy must not touch the cache.
	data[0] = 0xFF
	if v := mustRead(t, c0, 4, 0); v != 0x42 {
		t.Errorf("aliased fetch: %#x", v)
	}
	// A second fetch is served locally (no new transaction).
	before := b.Stats().Transactions
	b.Acquire(4, -1)
	if err := c0.FetchLineHeld(4, data); err != nil {
		t.Fatal(err)
	}
	b.Release(4)
	if b.Stats().Transactions != before {
		t.Error("present-line fetch used the bus")
	}
	_ = mem
}

// TestAbsorbLineHeld: miss, shared-hit and silent paths all end in M
// with the absorbed contents, and other copies die.
func TestAbsorbLineHeld(t *testing.T) {
	b, _, cs := rig(t, 2, protocols.MOESI, smallCfg())
	c0, c1 := cs[0], cs[1]
	line := bytes.Repeat([]byte{0xAB}, testLineSize)

	// Miss path (RFO fill then overwrite).
	b.Acquire(7, -1)
	if err := c0.AbsorbLineHeld(7, line); err != nil {
		t.Fatal(err)
	}
	b.Release(7)
	if c0.State(7) != core.Modified {
		t.Fatalf("after miss absorb: %s", c0.State(7))
	}

	// Shared-hit path: both hold S, absorb upgrades with an
	// address-only invalidate.
	mustRead(t, c1, 7, 0) // c0: M→O, c1: S
	mustRead(t, c0, 7, 0)
	line2 := bytes.Repeat([]byte{0xCD}, testLineSize)
	b.Acquire(7, -1)
	if err := c0.AbsorbLineHeld(7, line2); err != nil {
		t.Fatal(err)
	}
	b.Release(7)
	if c0.State(7) != core.Modified {
		t.Fatalf("after hit absorb: %s", c0.State(7))
	}
	if c1.Contains(7) {
		t.Error("other copy survived the absorb upgrade")
	}
	if v := mustRead(t, c0, 7, 0); v != 0xCDCDCDCD {
		t.Errorf("absorbed data %#x", v)
	}

	// Silent path (already M).
	line3 := bytes.Repeat([]byte{0xEF}, testLineSize)
	before := b.Stats().Transactions
	b.Acquire(7, -1)
	if err := c0.AbsorbLineHeld(7, line3); err != nil {
		t.Fatal(err)
	}
	b.Release(7)
	if b.Stats().Transactions != before {
		t.Error("silent absorb used the bus")
	}

	// Wrong-size payload is rejected.
	b.Acquire(7, -1)
	err := c0.AbsorbLineHeld(7, []byte{1})
	b.Release(7)
	if err == nil {
		t.Error("short absorb accepted")
	}
}

// TestInvalidateHeld drops a line silently.
func TestInvalidateHeld(t *testing.T) {
	b, _, cs := rig(t, 1, protocols.MOESI, smallCfg())
	c := cs[0]
	mustRead(t, c, 3, 0)
	before := b.Stats().Transactions
	b.Acquire(3, -1)
	c.InvalidateHeld(3)
	c.InvalidateHeld(99) // absent: no-op (same single bus regardless of address)
	b.Release(3)
	if c.Contains(3) {
		t.Error("line survived InvalidateHeld")
	}
	if b.Stats().Transactions != before {
		t.Error("InvalidateHeld used the bus")
	}
}

// TestAccessors covers the trivial getters.
func TestAccessors(t *testing.T) {
	b, _, cs := rig(t, 1, protocols.MOESI, smallCfg())
	c := cs[0]
	if c.ID() != 0 || c.LineSize() != testLineSize || c.Policy().Name() != "MOESI" {
		t.Errorf("accessors: %d %d %s", c.ID(), c.LineSize(), c.Policy().Name())
	}
	u := newNonCaching(9, b, false, nil)
	if u.ID() != 9 {
		t.Errorf("uncached id %d", u.ID())
	}
}

// TestSectorWriteUpgrade: a sector cache's shared write goes through
// the bus (broadcast with the MOESI policy) and takes ownership of the
// sub-sector.
func TestSectorWriteUpgrade(t *testing.T) {
	_, _, sc, pc := sectorRig(t)
	mustWrite(t, pc, 1, 0, 0x10) // plain cache owns
	if _, err := sc.ReadWord(1, 0); err != nil {
		t.Fatal(err)
	}
	if sc.State(1) != core.Shared {
		t.Fatalf("setup: %s", sc.State(1))
	}
	if err := sc.WriteWord(1, 1, 0x20); err != nil {
		t.Fatal(err)
	}
	if sc.State(1) != core.Owned {
		t.Errorf("after broadcast write: %s", sc.State(1))
	}
	// The plain cache's copy received the update.
	if v := mustRead(t, pc, 1, 1); v != 0x20 {
		t.Errorf("plain cache has %#x", v)
	}
	st := sc.Stats()
	if st.WriteHits == 0 || st.WriteUpgrades == 0 {
		t.Errorf("write upgrade not recorded: %+v", st)
	}
}

// TestSectorBounds: word bounds on the sector paths.
func TestSectorBounds(t *testing.T) {
	_, _, sc, _ := sectorRig(t)
	if _, err := sc.ReadWord(0, testLineSize/4); err == nil {
		t.Error("read beyond line accepted")
	}
	if err := sc.WriteWord(0, -1, 0); err == nil {
		t.Error("negative word accepted")
	}
	if sc.ID() != 0 {
		t.Errorf("id %d", sc.ID())
	}
}

// TestSectorOnWriteHook: the golden hook fires on all write paths.
func TestSectorOnWriteHook(t *testing.T) {
	mem := memoryNew(t)
	b := bus.New(mem, bus.Config{LineSize: testLineSize})
	var calls int
	cfg := sectorCfg()
	cfg.OnWrite = func(bus.Addr, int, uint32) { calls++ }
	sc := New(0, b, protocols.MOESI(), cfg)
	if err := sc.WriteWord(0, 0, 1); err != nil { // miss (RFO)
		t.Fatal(err)
	}
	if err := sc.WriteWord(0, 1, 2); err != nil { // silent hit
		t.Fatal(err)
	}
	if calls != 2 {
		t.Errorf("hook calls = %d", calls)
	}
}

// memoryNew is a tiny helper for tests needing a bare memory module.
func memoryNew(t *testing.T) *memory.Memory {
	t.Helper()
	return memory.New(testLineSize)
}
