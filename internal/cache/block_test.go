package cache

import (
	"testing"

	"futurebus/internal/bus"
	"futurebus/internal/core"
	"futurebus/internal/memory"
	"futurebus/internal/protocols"
)

// TestBlockRoundTrip: a block write crossing three lines reads back
// intact, word for word.
func TestBlockRoundTrip(t *testing.T) {
	_, _, cs := rig(t, 1, protocols.MOESI, smallCfg())
	c := cs[0]
	wpl := testLineSize / 4
	src := make([]uint32, 2*wpl+3) // crosses into a third line
	for i := range src {
		src[i] = uint32(0x1000 + i)
	}
	// Start mid-line so the first line is also partial.
	if err := c.WriteBlock(0x40, wpl-2, src); err != nil {
		t.Fatal(err)
	}
	dst := make([]uint32, len(src))
	if err := c.ReadBlock(0x40, wpl-2, dst); err != nil {
		t.Fatal(err)
	}
	for i := range src {
		if dst[i] != src[i] {
			t.Fatalf("word %d: %#x != %#x", i, dst[i], src[i])
		}
	}
	// The block really spans multiple lines, each with its own state.
	lines := 0
	for _, a := range []bus.Addr{0x40, 0x41, 0x42, 0x43} {
		if c.Contains(a) {
			lines++
		}
	}
	if lines < 3 {
		t.Errorf("block touched %d lines, want ≥3", lines)
	}
}

// TestBlockPerLineCoherence: each crossed line obeys the protocol
// independently — one line supplied by an intervening owner, the next
// by memory.
func TestBlockPerLineCoherence(t *testing.T) {
	_, mem, cs := rig(t, 2, protocols.MOESI, smallCfg())
	c0, c1 := cs[0], cs[1]
	wpl := testLineSize / 4

	// Line 0x50 is dirty in c1; line 0x51 lives only in memory.
	mustWrite(t, c1, 0x50, wpl-1, 0xAAA)
	line := make([]byte, testLineSize)
	line[0] = 0xBB
	memWrite(mem, 0x51, line)

	dst := make([]uint32, 2)
	if err := c0.ReadBlock(0x50, wpl-1, dst); err != nil {
		t.Fatal(err)
	}
	if dst[0] != 0xAAA {
		t.Errorf("word from owner: %#x", dst[0])
	}
	if dst[1] != 0xBB {
		t.Errorf("word from memory: %#x", dst[1])
	}
	if c1.State(0x50) != core.Owned {
		t.Errorf("owner state %s", c1.State(0x50))
	}
}

func memWrite(m *memory.Memory, addr bus.Addr, line []byte) {
	m.WriteLine(addr, line)
}

// TestBlockCrossesRegions: a block spanning a copy-back page and a
// write-through page follows each region's policy per line (§3.4 +
// §5.1 interacting).
func TestBlockCrossesRegions(t *testing.T) {
	_, mem, c := clipperRig(t)
	wpl := testLineSize / 4
	// 0xFF is copy-back, 0x100 is the WT region's first line.
	src := []uint32{0x1, 0x2, 0x3}
	if err := c.WriteBlock(0xFF, wpl-1, src); err != nil {
		t.Fatal(err)
	}
	if c.State(0xFF) != core.Modified {
		t.Errorf("copy-back line state %s", c.State(0xFF))
	}
	if mem.Peek(0xFF)[testLineSize-4] == 0x1 {
		t.Error("copy-back word reached memory")
	}
	if mem.Peek(0x100)[0] != 0x2 || mem.Peek(0x100)[4] != 0x3 {
		t.Error("write-through words did not reach memory")
	}
}

// TestBlockBounds: bad start positions are rejected.
func TestBlockBounds(t *testing.T) {
	_, _, cs := rig(t, 1, protocols.MOESI, smallCfg())
	if err := cs[0].ReadBlock(0, testLineSize/4, make([]uint32, 1)); err == nil {
		t.Error("start word beyond line accepted")
	}
	if err := cs[0].WriteBlock(0, -1, make([]uint32, 1)); err == nil {
		t.Error("negative start accepted")
	}
}

// TestUncachedBlock: the uncached master's block ops cross lines and
// stay coherent with owners.
func TestUncachedBlock(t *testing.T) {
	mem := memory.New(testLineSize)
	b := bus.New(mem, bus.Config{LineSize: testLineSize})
	c := New(0, b, protocols.MOESI(), smallCfg())
	u := newNonCaching(1, b, false, nil)
	wpl := testLineSize / 4

	mustWrite(t, c, 0x61, 0, 0x77) // second line dirty in the cache
	src := make([]uint32, wpl)
	for i := range src {
		src[i] = uint32(i + 1)
	}
	if err := u.WriteBlock(0x60, wpl/2, src); err != nil {
		t.Fatal(err)
	}
	dst := make([]uint32, wpl)
	if err := u.ReadBlock(0x60, wpl/2, dst); err != nil {
		t.Fatal(err)
	}
	for i := range src {
		if dst[i] != src[i] {
			t.Fatalf("word %d: %#x != %#x", i, dst[i], src[i])
		}
	}
	// The owner captured the words that landed in its line.
	if v := mustRead(t, c, 0x61, 0); v != src[wpl/2] {
		t.Errorf("owner word %#x, want %#x", v, src[wpl/2])
	}
	if err := u.ReadBlock(0x60, wpl, dst); err == nil {
		t.Error("uncached bad start accepted")
	}
	if err := u.WriteBlock(0x60, -1, src); err == nil {
		t.Error("uncached negative start accepted")
	}
}
