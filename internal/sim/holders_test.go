package sim

import (
	"slices"
	"sync"
	"testing"

	"futurebus/internal/bus"
	"futurebus/internal/cache"
	"futurebus/internal/core"
	"futurebus/internal/workload"
)

// checkHolders fails unless, for every given line, the home shard's
// holder record names exactly the caches whose directory holds it.
func checkHolders(t *testing.T, sys *System, step string, lines []bus.Addr) {
	t.Helper()
	for _, a := range lines {
		var want []int
		for _, c := range sys.Caches {
			if c.Contains(a) {
				want = append(want, c.ID())
			}
		}
		if got := sys.Bus.Shard(sys.Bus.HomeShard(a)).HeldBy(a); !slices.Equal(got, want) {
			t.Fatalf("%s: line %#x: the holder record names %v, the directories hold it in %v", step, uint64(a), got, want)
		}
	}
}

// held returns the lines c's directory holds.
func held(c *cache.Cache) []bus.Addr {
	var addrs []bus.Addr
	c.ForEachLine(func(addr bus.Addr, _ core.State, _ []byte) { addrs = append(addrs, addr) })
	return addrs
}

// TestHolderRecordExact walks every kind of valid↔invalid transition a
// cache makes and checks the bus's holder record after each: fill,
// silent write, snoop invalidation, plain and sector eviction, BS
// recovery push, Flush, Pass and a flush of every line.
func TestHolderRecordExact(t *testing.T) {
	sys, err := New(Config{
		Boards: []BoardSpec{
			{Protocol: "moesi-invalidate"}, {Protocol: "moesi-invalidate"},
			{Protocol: "illinois"}, {Protocol: "moesi", SectorSubs: 4},
		},
		CacheSets: 4, CacheWays: 1, Shadow: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	c := sys.Caches
	// 0x10, 0x14 and the sectors at 0x20 and 0x30 share set 0 of the
	// one-way caches.
	lines := []bus.Addr{0x10, 0x14, 0x20, 0x21, 0x22, 0x23, 0x30, 0x31, 0x40, 0x50}
	steps := []struct {
		name string
		do   func() error
	}{
		{"fill", func() error { _, err := c[0].ReadWord(0x10, 0); return err }},
		{"silent write", func() error { return c[0].WriteWord(0x10, 1, 7) }},
		{"intervention", func() error { _, err := c[1].ReadWord(0x10, 0); return err }},
		{"snoop invalidation", func() error { return c[1].WriteWord(0x10, 2, 8) }},
		{"plain eviction", func() error { _, err := c[1].ReadWord(0x14, 0); return err }},
		{"sector fill", func() error { _, err := c[3].ReadWord(0x20, 0); return err }},
		{"sector fill, second line", func() error { return c[3].WriteWord(0x21, 0, 9) }},
		{"sector eviction", func() error { _, err := c[3].ReadWord(0x30, 0); return err }},
		{"owner", func() error { return c[2].WriteWord(0x40, 0, 10) }},
		{"BS recovery push", func() error { _, err := c[0].ReadWord(0x40, 0); return err }},
		{"Flush", func() error { return c[0].Flush(0x40) }},
		{"owner again", func() error { return c[2].WriteWord(0x50, 0, 11) }},
		{"Pass", func() error { return c[2].Pass(0x50) }},
		{"flush every line", func() error {
			for _, cc := range c {
				for _, addr := range held(cc) {
					if err := cc.Flush(addr); err != nil {
						return err
					}
				}
			}
			return nil
		}},
	}
	for _, s := range steps {
		if err := s.do(); err != nil {
			t.Fatalf("%s: %v", s.name, err)
		}
		checkHolders(t, sys, s.name, lines)
	}
	if c[2].Stats().AbortsIssued == 0 {
		t.Fatal("the illinois owner never asserted BS: the recovery push went untested")
	}
	for _, cc := range c {
		if addrs := held(cc); len(addrs) != 0 {
			t.Fatalf("cache %d still holds %#x after flushing every line", cc.ID(), addrs)
		}
	}
	if err := sys.Check(); err != nil {
		t.Fatal(err)
	}
}

// TestHolderRecordExactConcurrent checks the record after a
// goroutine-per-board run on four split-tenure shards, for every line
// the workload can touch.
func TestHolderRecordExactConcurrent(t *testing.T) {
	sys, err := New(Config{
		Boards: []BoardSpec{
			{Protocol: "moesi"}, {Protocol: "dragon"}, {Protocol: "berkeley"},
			{Protocol: "illinois"}, {Protocol: "moesi", SectorSubs: 4},
		},
		CacheSets: 16, Shards: 4, Tenure: "split", Discipline: "rr", Shadow: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := RunConcurrent(sys, abGens(sys, 0.5, 0.4, 3), 1500); err != nil {
		t.Fatal(err)
	}
	var lines []bus.Addr
	for k := 0; k < 64; k++ {
		lines = append(lines, bus.Addr(1<<32+k))
	}
	for p := range sys.Boards {
		for k := 0; k < 256; k++ {
			lines = append(lines, bus.Addr((p+1)<<20+k))
		}
	}
	checkHolders(t, sys, "after RunConcurrent", lines)
	if err := sys.Check(); err != nil {
		t.Fatal(err)
	}
}

// panicBoard panics on its board's n-th access.
type panicBoard struct {
	Board
	n int
}

func (b *panicBoard) Read(addr bus.Addr, word int) (uint32, error) {
	b.n--
	if b.n == 0 {
		panic("board failure")
	}
	return b.Board.Read(addr, word)
}

// TestDetRunThenConcurrent drives one system with the deterministic
// engine — once to completion, once into a panic that the caller
// recovers — and then with the concurrent engine: the engine must hand
// the caches back with their locks on either way (go test -race).
func TestDetRunThenConcurrent(t *testing.T) {
	sys, err := New(Config{
		Boards: Homogeneous("moesi", 4).Boards,
		Shards: 2, Shadow: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	gens := func(seed uint64) []workload.Generator { return abGens(sys, 0.5, 0.4, seed) }
	if _, err := (&Engine{Sys: sys, Gens: gens(1)}).Run(500); err != nil {
		t.Fatal(err)
	}
	inner := sys.Boards[0]
	sys.Boards[0] = &panicBoard{Board: inner, n: 200}
	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("the board did not panic")
			}
		}()
		_, _ = (&Engine{Sys: sys, Gens: gens(2)}).Run(500)
	}()
	sys.Boards[0] = inner
	if _, err := RunConcurrent(sys, gens(3), 1000); err != nil {
		t.Fatal(err)
	}
	if err := sys.Check(); err != nil {
		t.Fatal(err)
	}
}

// TestDetRunLivePolling runs the deterministic engine while another
// goroutine polls what fbsim -serve's gauges read during a run:
// LiveMetrics, Bus.Stats and each shard's arbitration queue
// (go test -race).
func TestDetRunLivePolling(t *testing.T) {
	sys, err := New(Config{
		Boards: Homogeneous("moesi", 4).Boards,
		Shards: 2, Tenure: "split", Discipline: "rr",
	})
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-done:
				return
			default:
			}
			_ = sys.LiveMetrics()
			_ = sys.Bus.Stats()
			for i := 0; i < sys.Bus.Shards(); i++ {
				_ = sys.Bus.Shard(i).ArbQueueDepth()
			}
		}
	}()
	m, err := (&Engine{Sys: sys, Gens: abGens(sys, 0.5, 0.4, 4)}).Run(2000)
	close(done)
	wg.Wait()
	if err != nil {
		t.Fatal(err)
	}
	if m.Refs != 8000 {
		t.Fatalf("retired %d references, want 8000", m.Refs)
	}
}
