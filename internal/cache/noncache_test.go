package cache

import (
	"testing"

	"futurebus/internal/bus"
	"futurebus/internal/memory"
	"futurebus/internal/protocols"
)

// newNonCaching builds a non-caching bus master: a cache running Table
// 1's "**" rows with the smallest geometry, as sim.New builds its
// "uncached" and "uncached-broadcast" boards.
func newNonCaching(id int, b bus.Fabric, broadcast bool, onWrite func(bus.Addr, int, uint32)) *Cache {
	return New(id, b, protocols.NonCaching(broadcast), Config{Sets: 1, Ways: 1, OnWrite: onWrite})
}

// TestUncachedReadWrite: an uncached master round-trips data through
// memory and never retains anything.
func TestUncachedReadWrite(t *testing.T) {
	mem := memory.New(testLineSize)
	b := bus.New(mem, bus.Config{LineSize: testLineSize})
	u := newNonCaching(0, b, false, nil)

	if err := u.WriteWord(5, 2, 0xF00); err != nil {
		t.Fatal(err)
	}
	v, err := u.ReadWord(5, 2)
	if err != nil {
		t.Fatal(err)
	}
	if v != 0xF00 {
		t.Errorf("read back %#x", v)
	}
	st := u.Stats()
	if st.Reads != 1 || st.Writes != 1 || st.StallNanos == 0 {
		t.Errorf("stats %+v", st)
	}
	if u.Contains(5) {
		t.Errorf("uncached master retained line 5 in state %s", u.State(5))
	}
}

// TestUncachedBounds: word indexes outside the line are rejected.
func TestUncachedBounds(t *testing.T) {
	mem := memory.New(testLineSize)
	b := bus.New(mem, bus.Config{LineSize: testLineSize})
	u := newNonCaching(0, b, false, nil)
	if _, err := u.ReadWord(1, testLineSize/4); err == nil {
		t.Error("read beyond line accepted")
	}
	if err := u.WriteWord(1, -1, 0); err == nil {
		t.Error("negative word accepted")
	}
}

// TestUncachedOnWriteHook: the golden-image hook fires under the bus.
func TestUncachedOnWriteHook(t *testing.T) {
	mem := memory.New(testLineSize)
	b := bus.New(mem, bus.Config{LineSize: testLineSize})
	var calls int
	u := newNonCaching(0, b, true, func(addr bus.Addr, w int, v uint32) { calls++ })
	if err := u.WriteWord(9, 0, 1); err != nil {
		t.Fatal(err)
	}
	if calls != 1 {
		t.Errorf("hook calls = %d", calls)
	}
}

// TestUncachedCoherentWithCache: reads see a dirty owner's data; writes
// are captured by it (the iodma example, asserted).
func TestUncachedCoherentWithCache(t *testing.T) {
	mem := memory.New(testLineSize)
	b := bus.New(mem, bus.Config{LineSize: testLineSize})
	c := New(0, b, protocols.MOESI(), smallCfg())
	u := newNonCaching(1, b, false, nil)

	mustWrite(t, c, 8, 0, 0xAB)
	if v, _ := u.ReadWord(8, 0); v != 0xAB {
		t.Errorf("uncached read got %#x, not the owner's data", v)
	}
	if err := u.WriteWord(8, 1, 0xCD); err != nil {
		t.Fatal(err)
	}
	if v := mustRead(t, c, 8, 1); v != 0xCD {
		t.Errorf("owner missed captured write: %#x", v)
	}
}
