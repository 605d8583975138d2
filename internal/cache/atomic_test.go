package cache

import (
	"sync"
	"testing"

	"futurebus/internal/bus"
	"futurebus/internal/core"
	"futurebus/internal/memory"
	"futurebus/internal/protocols"
)

// TestFetchAddSequential: the RMW primitives behave on one cache.
func TestFetchAddSequential(t *testing.T) {
	_, _, cs := rig(t, 1, protocols.MOESI, smallCfg())
	c := cs[0]
	for i := 0; i < 10; i++ {
		old, err := c.FetchAdd(1, 0, 2)
		if err != nil {
			t.Fatal(err)
		}
		if old != uint32(2*i) {
			t.Fatalf("iteration %d: old = %d", i, old)
		}
	}
	if v := mustRead(t, c, 1, 0); v != 20 {
		t.Fatalf("final value %d", v)
	}
}

// TestCompareAndSwap: success and failure paths.
func TestCompareAndSwap(t *testing.T) {
	_, _, cs := rig(t, 1, protocols.MOESI, smallCfg())
	c := cs[0]
	mustWrite(t, c, 2, 0, 5)
	ok, err := c.CompareAndSwap(2, 0, 5, 9)
	if err != nil || !ok {
		t.Fatalf("CAS(5→9): %t, %v", ok, err)
	}
	ok, err = c.CompareAndSwap(2, 0, 5, 11)
	if err != nil || ok {
		t.Fatalf("stale CAS succeeded: %t, %v", ok, err)
	}
	if v := mustRead(t, c, 2, 0); v != 9 {
		t.Fatalf("value %d", v)
	}
}

// TestFetchAddConcurrent: N goroutine processors incrementing one
// shared counter through their own caches lose no increments — the
// bus-locked RMW is atomic across the machine. Run with -race.
func TestFetchAddConcurrent(t *testing.T) {
	const procs, perProc = 4, 500
	_, _, cs := rig(t, procs, protocols.MOESI, smallCfg())
	var wg sync.WaitGroup
	for _, c := range cs {
		wg.Add(1)
		go func(c *Cache) {
			defer wg.Done()
			for i := 0; i < perProc; i++ {
				if _, err := c.FetchAdd(7, 0, 1); err != nil {
					t.Error(err)
					return
				}
			}
		}(c)
	}
	wg.Wait()
	if v := mustRead(t, cs[0], 7, 0); v != procs*perProc {
		t.Fatalf("counter = %d, want %d (lost increments)", v, procs*perProc)
	}
}

// TestFetchAddMixedProtocols: atomicity holds across different class
// members and an uncached master.
func TestFetchAddMixedProtocols(t *testing.T) {
	mem := memory.New(testLineSize)
	b := bus.New(mem, bus.Config{LineSize: testLineSize})
	boards := []interface {
		Update(bus.Addr, int, func(uint32) uint32) (uint32, uint32, error)
	}{
		New(0, b, protocols.MOESI(), smallCfg()),
		New(1, b, protocols.MOESIInvalidate(), smallCfg()),
		New(2, b, protocols.Dragon(), smallCfg()),
		newNonCaching(3, b, false, nil),
	}
	const perBoard = 300
	var wg sync.WaitGroup
	for _, board := range boards {
		wg.Add(1)
		go func(board interface {
			Update(bus.Addr, int, func(uint32) uint32) (uint32, uint32, error)
		}) {
			defer wg.Done()
			for i := 0; i < perBoard; i++ {
				if _, _, err := board.Update(3, 1, func(v uint32) uint32 { return v + 1 }); err != nil {
					t.Error(err)
					return
				}
			}
		}(board)
	}
	wg.Wait()
	u := boards[3].(*Cache)
	v, err := u.ReadWord(3, 1)
	if err != nil {
		t.Fatal(err)
	}
	if v != uint32(len(boards)*perBoard) {
		t.Fatalf("counter = %d, want %d", v, len(boards)*perBoard)
	}
}

// TestCleanCommand: CmdClean pushes a dirty line to memory, the owner
// keeps an unowned copy, sharers survive.
func TestCleanCommand(t *testing.T) {
	mem := memory.New(testLineSize)
	b := bus.New(mem, bus.Config{LineSize: testLineSize})
	owner := New(0, b, protocols.MOESI(), smallCfg())
	sharer := New(1, b, protocols.MOESI(), smallCfg())
	dma := newNonCaching(9, b, false, nil)

	mustWrite(t, owner, 5, 0, 0xAB) // owner: M, memory stale
	if mem.Peek(5)[0] == 0xAB {
		t.Fatal("setup: memory already current")
	}
	if err := CleanLine(b, dma.ID(), 5); err != nil {
		t.Fatal(err)
	}
	if mem.Peek(5)[0] != 0xAB {
		t.Error("clean did not reach memory")
	}
	if owner.State(5) != core.Shared {
		t.Errorf("owner after clean: %s", owner.State(5))
	}

	// With a sharer: clean from O keeps both copies.
	mustWrite(t, owner, 6, 0, 0xCD)
	mustRead(t, sharer, 6, 0) // owner M→O
	if err := CleanLine(b, 9, 6); err != nil {
		t.Fatal(err)
	}
	if mem.Peek(6)[0] != 0xCD {
		t.Error("clean of O line did not reach memory")
	}
	if !owner.Contains(6) || !sharer.Contains(6) {
		t.Error("clean invalidated copies; it must only write back")
	}
	if owner.State(6).OwnedCopy() {
		t.Errorf("owner still owns after clean: %s", owner.State(6))
	}

	// Cleaning an unowned or absent line is a cheap no-op.
	if err := CleanLine(b, dma.ID(), 6); err != nil {
		t.Fatal(err)
	}
	if err := CleanLine(b, dma.ID(), 0x999); err != nil {
		t.Fatal(err)
	}
}

// TestUncachedUpdate: the DMA RMW reads through an owner and writes
// back through its capture.
func TestUncachedUpdate(t *testing.T) {
	mem := memory.New(testLineSize)
	b := bus.New(mem, bus.Config{LineSize: testLineSize})
	c := New(0, b, protocols.MOESI(), smallCfg())
	u := newNonCaching(1, b, false, nil)
	mustWrite(t, c, 4, 0, 10) // dirty in cache
	old, updated, err := u.Update(4, 0, func(v uint32) uint32 { return v * 3 })
	if err != nil {
		t.Fatal(err)
	}
	if old != 10 || updated != 30 {
		t.Fatalf("update saw %d→%d", old, updated)
	}
	if v := mustRead(t, c, 4, 0); v != 30 {
		t.Fatalf("owner has %d", v)
	}
}

// TestTransitionCounts: the instrumentation records the MOESI walk.
func TestTransitionCounts(t *testing.T) {
	_, _, cs := rig(t, 2, protocols.MOESI, smallCfg())
	c0, c1 := cs[0], cs[1]
	mustRead(t, c0, 1, 0)     // I→E
	mustWrite(t, c0, 1, 0, 1) // E→M
	mustRead(t, c1, 1, 0)     // c0: M→O; c1: I→S
	st0 := c0.Stats()
	if st0.Transitions[core.Invalid][core.Exclusive] != 1 {
		t.Errorf("I→E = %d", st0.Transitions[core.Invalid][core.Exclusive])
	}
	if st0.Transitions[core.Exclusive][core.Modified] != 1 {
		t.Errorf("E→M = %d", st0.Transitions[core.Exclusive][core.Modified])
	}
	if st0.Transitions[core.Modified][core.Owned] != 1 {
		t.Errorf("M→O = %d", st0.Transitions[core.Modified][core.Owned])
	}
	if st1 := c1.Stats(); st1.Transitions[core.Invalid][core.Shared] != 1 {
		t.Errorf("c1 I→S = %d", st1.Transitions[core.Invalid][core.Shared])
	}
	census := c0.StateCensus()
	if census[core.Owned] != 1 || len(census) != 1 {
		t.Errorf("census = %v", census)
	}
}
