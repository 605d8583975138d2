package cache

import (
	"testing"

	"futurebus/internal/bus"
	"futurebus/internal/core"
	"futurebus/internal/memory"
	"futurebus/internal/protocols"
)

// Zero-allocation regressions for the clean transaction paths. Each
// case warms its rig so every buffer (way lines, bus frames, memory
// lines, the split pending table) exists, then repeats one operation
// that returns the rig to the same state; after warm-up none of them
// may touch the heap.

// allocConfigs are the organisations every case runs on: smallCfg's
// plain 4×2 cache, and the same sets and ways of 4-line sectors.
var allocConfigs = []struct {
	name string
	cfg  Config
}{
	{"plain", smallCfg()},
	{"sector4", Config{Sets: 4, Ways: 2, SubSectors: 4}},
}

// setZero are three lines of set 0 under both allocConfigs geometries
// (sectors 0, 4 and 8 in the sector cache): cycling through them misses
// on every access.
var setZero = [3]bus.Addr{0, 16, 32}

// forEachConfig runs one case on every allocConfigs organisation.
func forEachConfig(t *testing.T, fn func(t *testing.T, cfg Config)) {
	for _, ac := range allocConfigs {
		t.Run(ac.name, func(t *testing.T) { fn(t, ac.cfg) })
	}
}

// mustNotAllocate fails if op allocates after testing.AllocsPerRun's
// warm-up run.
func mustNotAllocate(t *testing.T, op func() error) {
	t.Helper()
	var err error
	allocs := testing.AllocsPerRun(100, func() {
		if e := op(); e != nil && err == nil {
			err = e
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if allocs != 0 {
		t.Errorf("%.1f allocations per operation, want 0", allocs)
	}
}

func TestAllocsReadHit(t *testing.T) {
	forEachConfig(t, func(t *testing.T, cfg Config) {
		_, _, cs := rig(t, 2, protocols.MOESI, cfg)
		mustRead(t, cs[0], 1, 0)
		mustNotAllocate(t, func() error {
			_, err := cs[0].ReadWord(1, 0)
			return err
		})
	})
}

func TestAllocsSilentWrite(t *testing.T) {
	forEachConfig(t, func(t *testing.T, cfg Config) {
		_, _, cs := rig(t, 2, protocols.MOESI, cfg)
		mustWrite(t, cs[0], 1, 0, 1)
		v := uint32(1)
		mustNotAllocate(t, func() error {
			v++
			return cs[0].WriteWord(1, 0, v)
		})
	})
}

// A memory-sourced read miss whose victim is clean (E, dropped
// silently).
func TestAllocsReadMissCleanVictim(t *testing.T) {
	forEachConfig(t, func(t *testing.T, cfg Config) {
		b, _, cs := rig(t, 2, protocols.MOESI, cfg)
		i := 0
		before := b.Stats()
		mustNotAllocate(t, func() error {
			i++
			_, err := cs[0].ReadWord(setZero[i%3], 0)
			return err
		})
		st := b.Stats()
		if st.Reads-before.Reads != int64(i) || st.Interventions != before.Interventions {
			t.Errorf("%d memory reads for %d misses (interventions %d)", st.Reads-before.Reads, i, st.Interventions)
		}
	})
}

// A cache-to-cache read: the owner intervenes (DI). Each round first
// re-takes ownership with an invalidating upgrade.
func TestAllocsInterventionRead(t *testing.T) {
	forEachConfig(t, func(t *testing.T, cfg Config) {
		b, _, cs := rig(t, 2, protocols.MOESIInvalidate, cfg)
		mustWrite(t, cs[1], 2, 0, 1)
		v := uint32(1)
		before := b.Stats().Interventions
		rounds := 0
		mustNotAllocate(t, func() error {
			rounds++
			v++
			if err := cs[1].WriteWord(2, 0, v); err != nil {
				return err
			}
			got, err := cs[0].ReadWord(2, 0)
			if err == nil && got != v {
				t.Errorf("read %#x, owner wrote %#x", got, v)
			}
			return err
		})
		if n := b.Stats().Interventions - before; n != int64(rounds) {
			t.Errorf("%d interventions in %d rounds", n, rounds)
		}
	})
}

// A write miss whose victim is dirty: push the victim, then fill.
func TestAllocsDirtyVictimPush(t *testing.T) {
	forEachConfig(t, func(t *testing.T, cfg Config) {
		b, _, cs := rig(t, 1, protocols.MOESI, cfg)
		i := 0
		before := b.Stats().Writes
		mustNotAllocate(t, func() error {
			i++
			return cs[0].WriteWord(setZero[i%3], 0, uint32(i))
		})
		if n := b.Stats().Writes - before; n < int64(i-2) {
			t.Errorf("%d write-backs for %d dirty evictions", n, i)
		}
	})
}

// An update protocol's broadcast write: the sharer connects (SL) and
// memory merges the word.
func TestAllocsBroadcastUpdate(t *testing.T) {
	forEachConfig(t, func(t *testing.T, cfg Config) {
		b, mem, cs := rig(t, 2, protocols.MOESIUpdate, cfg)
		mustRead(t, cs[0], 3, 0)
		mustRead(t, cs[1], 3, 0)
		v := uint32(0)
		before := b.Stats().Updates
		mustNotAllocate(t, func() error {
			v++
			return cs[0].WriteWord(3, 1, v)
		})
		if b.Stats().Updates == before {
			t.Error("no snooper was updated")
		}
		if got := word(mem.Peek(3), 1); got != v {
			t.Errorf("memory word %#x, want %#x", got, v)
		}
	})
}

// A memory-sourced read under split tenure: the data phase is parked in
// the pending table and retired by a later grant.
func TestAllocsSplitDeferredRead(t *testing.T) {
	forEachConfig(t, func(t *testing.T, cfg Config) {
		mem := memory.New(testLineSize)
		b := bus.New(mem, bus.Config{LineSize: testLineSize, Tenure: bus.SplitTenure(0)})
		c := New(0, b, protocols.MOESI(), cfg)
		New(1, b, protocols.MOESI(), cfg)
		i := 0
		mustNotAllocate(t, func() error {
			i++
			_, err := c.ReadWord(setZero[i%3], 0)
			return err
		})
		if b.Stats().DataTenures == 0 {
			t.Error("no read was deferred")
		}
	})
}

// A read that finds an Illinois owner: the owner asserts BS, the read
// aborts, the owner pushes the line, the read retries from memory.
func TestAllocsAbortRecovery(t *testing.T) {
	forEachConfig(t, func(t *testing.T, cfg Config) {
		b, _, cs := rig(t, 2, protocols.Illinois, cfg)
		mustWrite(t, cs[1], 5, 0, 1)
		v := uint32(1)
		before := b.Stats().Aborts
		rounds := 0
		mustNotAllocate(t, func() error {
			rounds++
			v++
			if err := cs[1].WriteWord(5, 0, v); err != nil {
				return err
			}
			if cs[1].State(5) != core.Modified {
				t.Fatalf("owner in %s, want M", cs[1].State(5).Letter())
			}
			got, err := cs[0].ReadWord(5, 0)
			if err == nil && got != v {
				t.Errorf("read %#x, owner wrote %#x", got, v)
			}
			return err
		})
		if n := b.Stats().Aborts - before; n != int64(rounds) {
			t.Errorf("%d aborts in %d rounds", n, rounds)
		}
	})
}
