package cache

import (
	"strings"
	"testing"

	"futurebus/internal/bus"
	"futurebus/internal/core"
	"futurebus/internal/memory"
	"futurebus/internal/protocols"
)

// TestSnoopColumn7: a non-caching read of a dirty line — the owner
// intervenes and STAYS Modified (M,CH?,DI), unlike column 5 where it
// demotes to O.
func TestSnoopColumn7(t *testing.T) {
	mem := memory.New(testLineSize)
	b := bus.New(mem, bus.Config{LineSize: testLineSize})
	c := New(0, b, protocols.MOESI(), smallCfg())
	dma := newNonCaching(1, b, false, nil)

	mustWrite(t, c, 3, 0, 0x99)
	v, err := dma.ReadWord(3, 0)
	if err != nil {
		t.Fatal(err)
	}
	if v != 0x99 {
		t.Errorf("DMA read %#x", v)
	}
	if c.State(3) != core.Modified {
		t.Errorf("owner state after col 7: %s", c.State(3))
	}
}

// TestSnoopColumn7OwnedListens: an O owner on column 7 resolves CH:O/M
// by listening — with a sharer (CH) it stays O, alone it upgrades to M.
func TestSnoopColumn7OwnedListens(t *testing.T) {
	mem := memory.New(testLineSize)
	b := bus.New(mem, bus.Config{LineSize: testLineSize})
	c0 := New(0, b, protocols.MOESI(), smallCfg())
	c1 := New(1, b, protocols.MOESI(), smallCfg())
	dma := newNonCaching(2, b, false, nil)

	// Case 1: owner + sharer → owner stays O.
	mustWrite(t, c0, 3, 0, 1)
	mustRead(t, c1, 3, 0) // c0: M→O, c1: S
	if _, err := dma.ReadWord(3, 0); err != nil {
		t.Fatal(err)
	}
	if c0.State(3) != core.Owned {
		t.Errorf("owner with sharer went %s on col 7", c0.State(3))
	}

	// Case 2: lone owner (sharer flushed) → upgrades to M.
	if err := c1.Flush(3); err != nil {
		t.Fatal(err)
	}
	if _, err := dma.ReadWord(3, 0); err != nil {
		t.Fatal(err)
	}
	if c0.State(3) != core.Modified {
		t.Errorf("lone O owner went %s on col 7, want M (CH:O/M, no CH)", c0.State(3))
	}
}

// TestSnoopColumn10: a broadcast write by a non-cache — the owner MUST
// connect and update (M,CH?,SL), staying owner.
func TestSnoopColumn10(t *testing.T) {
	mem := memory.New(testLineSize)
	b := bus.New(mem, bus.Config{LineSize: testLineSize})
	c := New(0, b, protocols.MOESI(), smallCfg())
	dma := newNonCaching(1, b, true, nil) // broadcast writes

	mustWrite(t, c, 3, 0, 0x11)
	if err := dma.WriteWord(3, 1, 0x22); err != nil {
		t.Fatal(err)
	}
	if c.State(3) != core.Modified {
		t.Errorf("owner state after col 10: %s", c.State(3))
	}
	if v := mustRead(t, c, 3, 1); v != 0x22 {
		t.Errorf("owner missed broadcast update: %#x", v)
	}
	// Broadcast also updated memory.
	if mem.Peek(3)[4] != 0x22 {
		t.Error("memory missed the broadcast")
	}
	if st := c.Stats(); st.UpdatesReceived != 1 {
		t.Errorf("updates received = %d", st.UpdatesReceived)
	}
}

// TestSnoopColumn9InvalidatesSharers: a plain write kills unowning
// copies — they cannot capture it.
func TestSnoopColumn9InvalidatesSharers(t *testing.T) {
	mem := memory.New(testLineSize)
	b := bus.New(mem, bus.Config{LineSize: testLineSize})
	c0 := New(0, b, protocols.MOESI(), smallCfg())
	c1 := New(1, b, protocols.MOESI(), smallCfg())
	dma := newNonCaching(2, b, false, nil)

	mustRead(t, c0, 4, 0)
	mustRead(t, c1, 4, 0) // both S
	if err := dma.WriteWord(4, 0, 0x77); err != nil {
		t.Fatal(err)
	}
	if c0.Contains(4) || c1.Contains(4) {
		t.Error("S copies survived a column 9 write")
	}
	if mem.Peek(4)[0] != 0x77 {
		t.Error("memory missed the uncached write")
	}
}

// TestSnoopIllegalColumnFails: a "—" cell is an error condition; the
// snooper fails the transaction instead of guessing, naming itself, its
// protocol, the column and its state, and the address cycle releases
// every directory it queried.
func TestSnoopIllegalColumnFails(t *testing.T) {
	// M on column 8 is illegal, so force it by having a cache in M while
	// another broadcasts. A correct class mix can't produce it, so we
	// drive the bus by hand.
	mem := memory.New(testLineSize)
	b := bus.New(mem, bus.Config{LineSize: testLineSize})
	c := New(0, b, protocols.MOESI(), smallCfg())
	mustWrite(t, c, 6, 0, 1) // c holds M

	// A forged column-8 broadcast write against an M holder.
	_, err := b.Execute(bus.Transaction{
		MasterID: 99,
		Signals:  core.SigCA | core.SigIM | core.SigBC,
		Op:       core.BusWrite,
		Addr:     6,
		Partial:  true, Word: 0, Val: 2,
	})
	if err == nil {
		t.Fatal("illegal column did not fail the transaction")
	}
	for _, want := range []string{"cache 0 (MOESI)", "col 8", "state Modified"} {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("error %q does not name %s", err, want)
		}
	}
	// Nothing was applied, and neither the directory nor the bus is
	// still held: the cache serves its line and takes the bus again.
	if st := c.State(6); st != core.Modified {
		t.Errorf("the failed transaction moved the holder to %s", st)
	}
	if v := mustRead(t, c, 6, 0); v != 1 {
		t.Errorf("the failed transaction's word reached the holder: %#x", v)
	}
	mustRead(t, c, 7, 0)
}

// TestAdaptiveRecency: the §5.2 adaptive policy updates the MRU line
// and discards the LRU line on a snooped broadcast write.
func TestAdaptiveRecency(t *testing.T) {
	mem := memory.New(testLineSize)
	b := bus.New(mem, bus.Config{LineSize: testLineSize})
	adaptive := New(0, b, protocols.NewAdaptive(), smallCfg())
	writer := New(1, b, protocols.MOESI(), smallCfg())

	// Two lines in the same set of the adaptive cache; line 0 is LRU.
	mustRead(t, adaptive, 0, 0)
	mustRead(t, adaptive, 4, 0)
	mustRead(t, writer, 0, 0)
	mustRead(t, writer, 4, 0)

	// Writer broadcasts to the MRU line (4): adaptive keeps it updated.
	mustWrite(t, writer, 4, 0, 0xAA)
	if adaptive.State(4) != core.Shared {
		t.Errorf("MRU line went %s, want updated S", adaptive.State(4))
	}
	// Reading line 4 just made it MRU again; line 0 is LRU. Writer
	// broadcasts to line 0: adaptive discards it.
	mustWrite(t, writer, 0, 0, 0xBB)
	if adaptive.Contains(0) {
		t.Error("LRU line survived; adaptive should discard it")
	}
	st := adaptive.Stats()
	if st.UpdatesReceived != 1 || st.InvalidationsReceived != 1 {
		t.Errorf("adaptive stats: upd=%d inv=%d", st.UpdatesReceived, st.InvalidationsReceived)
	}
}

// TestSnoopHitCounter counts only true directory hits.
func TestSnoopHitCounter(t *testing.T) {
	mem := memory.New(testLineSize)
	b := bus.New(mem, bus.Config{LineSize: testLineSize})
	c0 := New(0, b, protocols.MOESI(), smallCfg())
	c1 := New(1, b, protocols.MOESI(), smallCfg())
	mustRead(t, c0, 1, 0) // c1 misses: no snoop hit
	mustRead(t, c1, 1, 0) // c0 hits: one snoop hit
	mustRead(t, c1, 2, 0) // c0 misses: no snoop hit
	if st := c0.Stats(); st.SnoopHits != 1 {
		t.Errorf("c0 snoop hits = %d", st.SnoopHits)
	}
	if st := c1.Stats(); st.SnoopHits != 0 {
		t.Errorf("c1 snoop hits = %d", st.SnoopHits)
	}
}
