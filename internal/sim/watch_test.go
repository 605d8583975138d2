package sim

import (
	"fmt"
	"strings"
	"testing"
	"time"

	"futurebus/internal/bus"
	"futurebus/internal/core"
	"futurebus/internal/faults"
	"futurebus/internal/obs"
	"futurebus/internal/obs/leaktest"
	"futurebus/internal/obs/watch"
	"futurebus/internal/protocols"
	"futurebus/internal/workload"
)

// warmRefs is the prefix of its reference stream each healthy board
// runs before a conc or alone run starts.
const warmRefs = 200

// runWatched assembles a 4-board system of the base protocol (board 0
// faulted, and a sector cache of subs lines per tag when subs > 0),
// runs it with a sharing-heavy workload under the given engine and
// shard count, and returns the system, the monitor's report and the
// run's error. A faulted system may trip a substrate error (the bus
// rejecting duplicate DI, or a snooper meeting a "—" cell of Table 2)
// and end the run early; the monitor has then judged the events that
// led up to it.
//
// Before a "conc" run, and before an "alone" run, in which board 0
// runs its references by itself, the healthy boards 1–3 each run
// warmRefs references of their own streams, one board after another.
// A fault such as phantom-fill is visible only where another cache
// holds the line, and the concurrent engine may run board 0 ahead of
// boards that hold nothing yet. Board 0 runs nothing in the warm-up,
// so every detection comes from the run itself.
func runWatched(t *testing.T, base, fault, engine string, shards, subs, refs int) (*System, *watch.Report, error) {
	t.Helper()
	mon := watch.New(watch.Config{})
	rec := obs.New(mon)
	cfg := Homogeneous(base, 4)
	cfg.Boards[0].Fault = fault
	cfg.CacheSets = 8 // small cache: replacement traffic exercises Flush
	cfg.CacheWays = 2
	if subs > 0 {
		// The fabric interleaves whole sectors, so 16 sets keep every
		// set on one of 4 shards.
		cfg.Boards[0].SectorSubs = subs
		cfg.CacheSets = 16
	}
	cfg.Shards = shards
	cfg.Obs = rec
	sys, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	gens := abGens(sys, 0.5, 0.4, 7)
	done := make(chan error, 1)
	go func() {
		switch engine {
		case "det":
			eng := Engine{Sys: sys, Gens: gens}
			_, err = eng.Run(refs)
		case "conc", "alone":
			for i := 1; i < len(gens) && err == nil; i++ {
				err = play(sys, gens, i, warmRefs)
			}
			if err == nil && engine == "conc" {
				_, err = RunConcurrent(sys, gens, refs)
			} else if err == nil {
				err = play(sys, gens, 0, refs)
			}
		default:
			t.Errorf("unknown engine %q", engine)
		}
		done <- err
	}()
	select {
	case err = <-done:
	case <-time.After(time.Minute):
		t.Fatalf("%s run under fault %s did not finish: a lock leaked?", engine, fault)
	}
	if err := rec.Close(); err != nil {
		t.Fatal(err)
	}
	return sys, mon.Report(), err
}

// play issues the next n references of board i's stream on the calling
// goroutine.
func play(sys *System, gens []workload.Generator, i, n int) error {
	for ; n > 0; n-- {
		ref := gens[i].Next()
		var err error
		if ref.Write {
			err = sys.Boards[i].Write(busAddr(ref.Line), ref.Word, ref.Val)
		} else {
			_, err = sys.Boards[i].Read(busAddr(ref.Line), ref.Word)
		}
		if err != nil {
			return fmt.Errorf("board %d ref %s: %w", i, ref, err)
		}
	}
	return nil
}

// unlocked fails t unless every bus shard's arbiter and every cache
// directory shard of sys is free: a lock a failed transaction leaked
// would block here.
func unlocked(t *testing.T, sys *System) {
	t.Helper()
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < sys.Bus.Shards(); i++ {
			sys.Bus.Shard(i).Stats() // takes the arbiter
		}
		for _, c := range sys.Caches {
			c.ForEachLine(func(bus.Addr, core.State, []byte) {})
		}
	}()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("a bus arbiter or cache directory is still locked after the run")
	}
}

// TestWatchDetectsEveryFault is the fault-injection proof: every fault
// class in the internal/faults catalog must be caught by the runtime
// monitor with the invariant the catalog names, on both engines, at 1
// and 4 shards, with the faulted board a plain cache and a sector
// cache (suffix /sector4).
func TestWatchDetectsEveryFault(t *testing.T) {
	orgs := []struct {
		suffix string
		subs   int
	}{{"", 0}, {"/sector4", 4}}
	for _, f := range faults.Catalog() {
		for _, engine := range []string{"det", "conc"} {
			for _, shards := range []int{1, 4} {
				for _, org := range orgs {
					f, engine, shards, org := f, engine, shards, org
					t.Run(f.Name+"/"+engine+"/shards="+string(rune('0'+shards))+org.suffix, func(t *testing.T) {
						detects(t, f, engine, shards, org.subs)
					})
				}
			}
		}
	}
	// After the warm-up, board 0 runs all its references before any
	// other board moves on: the schedule the conc rows could fall into,
	// made deterministic.
	for _, f := range faults.Catalog() {
		if f.Name == "phantom-fill" {
			t.Run(f.Name+"/alone", func(t *testing.T) { detects(t, f, "alone", 1, 0) })
		}
	}
}

// detects runs fault f on board 0 of runWatched's system and fails t
// unless the monitor flags it under the invariant the catalog names.
func detects(t *testing.T, f faults.Fault, engine string, shards, subs int) {
	t.Helper()
	// The invalidation-style base never issues broadcast writes (column
	// 8), so no snooper meets their "—" cells.
	_, rep, err := runWatched(t, "moesi-invalidate", f.Name, engine, shards, subs, 3000)
	if err != nil {
		t.Logf("%s run ended early (expected under fault %s): %v", engine, f.Name, err)
	}
	if rep.Total == 0 {
		t.Fatalf("fault %s went undetected (%d states, %d txs checked)",
			f.Name, rep.States, rep.Txs)
	}
	if rep.ByInvariant[watch.Invariant(f.Expect)] == 0 {
		t.Fatalf("fault %s detected, but not as %s: by-invariant %v (first: %v)",
			f.Name, f.Expect, rep.ByInvariant, rep.First)
	}
}

// TestWatchUpdateBaseFaults runs every fault of the catalog on an
// update-style base (moesi), on both engines. Its broadcast writes
// (column 8) have "—" cells for M and E snoopers, and a faulted board
// can lead a snooper to one. Each fault is either flagged by the
// monitor or ends the run with that cell's error; no run panics, and
// none leaves a lock held or a goroutine behind.
func TestWatchUpdateBaseFaults(t *testing.T) {
	for _, f := range faults.Catalog() {
		for _, engine := range []string{"det", "conc"} {
			t.Run(f.Name+"/"+engine, func(t *testing.T) {
				leaktest.Check(t)
				sys, rep, err := runWatched(t, "moesi", f.Name, engine, 1, 0, 3000)
				illegal := err != nil && strings.Contains(err.Error(), "illegal bus event")
				if rep.Total == 0 && !illegal {
					t.Fatalf("fault %s neither flagged (%d states, %d txs checked) nor ended by an illegal cell (err %v)",
						f.Name, rep.States, rep.Txs, err)
				}
				unlocked(t, sys)
			})
		}
	}
}

// TestWatchCleanEveryProtocol: a correct homogeneous system of every
// registered protocol produces zero violations under the deterministic
// engine.
func TestWatchCleanEveryProtocol(t *testing.T) {
	for _, name := range protocols.Names() {
		name := name
		t.Run(name, func(t *testing.T) {
			mon := watch.New(watch.Config{})
			rec := obs.New(mon)
			cfg := Homogeneous(name, 4)
			cfg.CacheSets = 8
			cfg.CacheWays = 2
			cfg.Obs = rec
			sys, err := New(cfg)
			if err != nil {
				t.Fatal(err)
			}
			eng := Engine{Sys: sys, Gens: abGens(sys, 0.4, 0.3, 11)}
			if _, err := eng.Run(2000); err != nil {
				t.Fatal(err)
			}
			if err := rec.Close(); err != nil {
				t.Fatal(err)
			}
			if rep := mon.Report(); rep.Total != 0 {
				t.Fatalf("clean %s run flagged %d violations; first: %v",
					name, rep.Total, rep.First)
			} else if rep.States == 0 {
				t.Fatalf("monitor saw no state events — instrumentation broken?")
			}
		})
	}
}

// TestWatchCleanMixedAndSharded: compatible-protocol mixes, uncached
// masters, sector caches and sharded fabrics all stay clean, under both
// engines.
func TestWatchCleanMixedAndSharded(t *testing.T) {
	boards := []BoardSpec{
		{Protocol: "moesi"},
		{Protocol: "berkeley"},
		{Protocol: "moesi", SectorSubs: 4},
		{Protocol: "write-through"},
		{Protocol: "uncached"},
	}
	for _, engine := range []string{"det", "conc"} {
		for _, shards := range []int{1, 4} {
			engine, shards := engine, shards
			t.Run(engine+"/shards="+string(rune('0'+shards)), func(t *testing.T) {
				mon := watch.New(watch.Config{})
				rec := obs.New(mon)
				// 16 sets: the sector boards interleave at granularity 4,
				// so sets must be a multiple of granularity × shards.
				cfg := Config{
					Boards: boards, CacheSets: 16, CacheWays: 2,
					Shards: shards, Obs: rec,
				}
				sys, err := New(cfg)
				if err != nil {
					t.Fatal(err)
				}
				gens := abGens(sys, 0.4, 0.3, 13)
				if engine == "det" {
					eng := Engine{Sys: sys, Gens: gens}
					_, err = eng.Run(2000)
				} else {
					_, err = RunConcurrent(sys, gens, 2000)
				}
				if err != nil {
					t.Fatal(err)
				}
				if err := sys.Check(); err != nil {
					t.Fatal(err)
				}
				if err := rec.Close(); err != nil {
					t.Fatal(err)
				}
				if rep := mon.Report(); rep.Total != 0 {
					t.Fatalf("clean mixed run flagged %d violations; first: %v",
						rep.Total, rep.First)
				}
			})
		}
	}
}

// TestWatchSurvivesSweepEpochs: two systems sharing one recorder are
// separated by KindEpoch, so residual shadow state from the first run
// is not misread as violations in the second.
func TestWatchSurvivesSweepEpochs(t *testing.T) {
	mon := watch.New(watch.Config{})
	rec := obs.New(mon)
	for i := 0; i < 2; i++ {
		cfg := Homogeneous("moesi", 4)
		cfg.CacheSets = 8
		cfg.CacheWays = 2
		cfg.Obs = rec
		sys, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		eng := Engine{Sys: sys, Gens: abGens(sys, 0.5, 0.4, uint64(17+i))}
		if _, err := eng.Run(1500); err != nil {
			t.Fatal(err)
		}
		rec.View(func() {
			if n := mon.Total(); n != 0 {
				t.Errorf("system %d: %d violations", i, n)
			}
		})
	}
	if err := rec.Close(); err != nil {
		t.Fatal(err)
	}
	if rep := mon.Report(); rep.Total != 0 {
		t.Fatalf("back-to-back systems flagged %d violations; first: %v", rep.Total, rep.First)
	}
}

// TestMultiBusScalingWatchedClean: P9 builds four hierarchy systems on
// one recorder, and each marks its epoch as sim.New's systems do, so a
// monitor watching the whole experiment starts every system's shadow
// afresh instead of misreading the last one's lines as violations.
func TestMultiBusScalingWatchedClean(t *testing.T) {
	mon := watch.New(watch.Config{})
	rec := obs.New(mon)
	if _, err := MultiBusScaling(ExperimentOpts{RefsPerProc: 2000, Seed: 1986, Obs: rec}); err != nil {
		t.Fatal(err)
	}
	if err := rec.Close(); err != nil {
		t.Fatal(err)
	}
	if rep := mon.Report(); rep.Total != 0 {
		t.Fatalf("P9 under the monitor: %d violations; first: %v", rep.Total, rep.First)
	}
}
