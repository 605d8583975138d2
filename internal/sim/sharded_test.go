package sim

import (
	"fmt"
	"sync"
	"testing"

	"futurebus/internal/bus"
)

// shardedMixConfig is a mixed board set (plain, sector, uncached) used
// by the interleaved-backplane tests. With SectorSubs 4 the interleave
// granularity is 4 lines, so whole sectors stay homed on one shard.
func shardedMixConfig(shards int) Config {
	return Config{
		Boards: []BoardSpec{
			{Protocol: "moesi"},
			{Protocol: "dragon"},
			{Protocol: "berkeley", SectorSubs: 4},
			{Protocol: "write-through"},
			{Protocol: "uncached"},
		},
		Shadow:   true,
		Paranoid: true,
		Shards:   shards,
	}
}

// TestShardedDetEngineConsistent: the deterministic engine on 2- and
// 4-shard interleaved backplanes preserves the full §3.1 invariant
// suite with a mixed board set.
func TestShardedDetEngineConsistent(t *testing.T) {
	for _, shards := range []int{2, 4} {
		t.Run(fmt.Sprintf("shards%d", shards), func(t *testing.T) {
			sys, err := New(shardedMixConfig(shards))
			if err != nil {
				t.Fatal(err)
			}
			if got := sys.Bus.Shards(); got != shards {
				t.Fatalf("fabric has %d shards, want %d", got, shards)
			}
			eng := Engine{Sys: sys, Gens: abGens(sys, 0.4, 0.3, 11)}
			m, err := eng.Run(2500)
			if err != nil {
				t.Fatal(err)
			}
			if err := sys.Check(); err != nil {
				t.Fatal(err)
			}
			if want := int64(len(sys.Boards)) * 2500; m.Refs != want {
				t.Fatalf("executed %d refs, want %d", m.Refs, want)
			}
		})
	}
}

// TestShardedDetEngineDeterministic: two same-seed runs on a 4-shard
// fabric produce identical metrics — the per-shard clocks do not leak
// scheduler nondeterminism into the discrete-event engine.
func TestShardedDetEngineDeterministic(t *testing.T) {
	run := func() Metrics {
		sys, err := New(shardedMixConfig(4))
		if err != nil {
			t.Fatal(err)
		}
		eng := Engine{Sys: sys, Gens: abGens(sys, 0.4, 0.3, 23)}
		m, err := eng.Run(2000)
		if err != nil {
			t.Fatal(err)
		}
		return m
	}
	a, b := run(), run()
	if a.Bus != b.Bus || a.Cache != b.Cache || a.ElapsedNanos != b.ElapsedNanos {
		t.Fatalf("same-seed sharded runs diverged:\n%+v\n%+v", a, b)
	}
}

// TestShardedConcurrentEngineConsistent: goroutine-per-board execution
// over a 2-shard fabric (run with -race in CI) quiesces into a
// consistent state.
func TestShardedConcurrentEngineConsistent(t *testing.T) {
	cfg := shardedMixConfig(2)
	sys, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := RunConcurrent(sys, abGens(sys, 0.4, 0.3, 99), 1500); err != nil {
		t.Fatal(err)
	}
	if err := sys.Check(); err != nil {
		t.Fatal(err)
	}
}

// TestCrossShardRace: two processors hammer lines homed on different
// shards of a 2-shard fabric from separate goroutines (run with -race
// in CI). With granularity 1, consecutive line addresses alternate
// shards; each board's hot line is pinned to one shard, with periodic
// accesses to the other board's line to force cross-shard snooping,
// intervention and invalidation while both shard locks are live.
func TestCrossShardRace(t *testing.T) {
	cfg := Homogeneous("moesi", 2)
	cfg.Shards = 2
	cfg.Shadow = true
	sys, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if sys.Bus.HomeShard(bus.Addr(0)) == sys.Bus.HomeShard(bus.Addr(1)) {
		t.Fatal("lines 0 and 1 should be homed on different shards")
	}
	const refs = 4000
	errs := make([]error, 2)
	var wg sync.WaitGroup
	for p := 0; p < 2; p++ {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			board := sys.Boards[p]
			home := bus.Addr(p)      // homed on shard p
			other := bus.Addr(1 - p) // the other board's shard
			for n := 0; n < refs; n++ {
				addr := home
				if n%8 == 7 {
					addr = other
				}
				var err error
				if n%2 == 0 {
					err = board.Write(addr, 0, uint32(n))
				} else {
					_, err = board.Read(addr, 0)
				}
				if err != nil {
					errs[p] = fmt.Errorf("board %d ref %d: %w", p, n, err)
					return
				}
			}
		}(p)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
	if err := sys.Check(); err != nil {
		t.Fatal(err)
	}
}

// TestShardedRejectsBadSectorMix: a sector size that does not divide
// the interleave granularity would split sectors across shards, so New
// must refuse it.
func TestShardedRejectsBadSectorMix(t *testing.T) {
	cfg := Config{
		Boards: []BoardSpec{
			{Protocol: "moesi", SectorSubs: 4},
			{Protocol: "moesi", SectorSubs: 3},
		},
		Shards: 2,
	}
	if _, err := New(cfg); err == nil {
		t.Fatal("sector sizes 4 and 3 on a sharded fabric should be rejected")
	}
}

// TestConcurrentScratchMixedSplit exercises the bus's per-shard,
// per-nesting-level scratch frames from one goroutine per board (run
// with -race in CI): four split-tenure shards, an Illinois board whose
// BS aborts nest recovery pushes inside other boards' transactions,
// update-protocol boards broadcasting partial writes through the
// memory merge line, MOESI owners intervening, and an uncached master
// reading into its own buffer — so a board can master a transaction on
// one shard while it recovers a line for another master on a second.
func TestConcurrentScratchMixedSplit(t *testing.T) {
	cfg := Config{
		Boards: []BoardSpec{
			{Protocol: "illinois"}, {Protocol: "moesi-update"}, {Protocol: "dragon"},
			{Protocol: "moesi"}, {Protocol: "moesi"}, {Protocol: "uncached"},
		},
		Shards: 4, Tenure: "split", Discipline: "rr",
		Shadow: true,
	}
	sys, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	m, err := RunConcurrent(sys, abGens(sys, 0.6, 0.4, 41), 1500)
	if err != nil {
		t.Fatal(err)
	}
	if err := sys.Check(); err != nil {
		t.Fatal(err)
	}
	if m.Bus.Aborts == 0 || m.Bus.Updates == 0 || m.Bus.Interventions == 0 || m.Bus.DataTenures == 0 {
		t.Errorf("mix did not reach every path: %s", m.Bus)
	}
}
