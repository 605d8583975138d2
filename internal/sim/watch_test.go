package sim

import (
	"testing"

	"futurebus/internal/faults"
	"futurebus/internal/obs"
	"futurebus/internal/obs/watch"
	"futurebus/internal/protocols"
)

// runWatched assembles a 4-board moesi system (board 0 optionally
// faulted, and a sector cache of subs lines per tag when subs > 0),
// runs it with a sharing-heavy workload under the given engine and
// shard count, and returns the monitor's report.
func runWatched(t *testing.T, fault, engine string, shards, subs, refs int) *watch.Report {
	t.Helper()
	mon := watch.New(watch.Config{})
	rec := obs.New(mon)
	// The invalidation-style base never issues broadcast writes
	// (column 8), whose Table 2 cells are undefined for M/E snoopers:
	// once a fault has broken coherence, an update-style base would
	// panic the substrate on those cells before the monitor's verdict
	// matters.
	cfg := Homogeneous("moesi-invalidate", 4)
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
	switch engine {
	case "det":
		eng := Engine{Sys: sys, Gens: gens}
		_, err = eng.Run(refs)
	case "conc":
		_, err = RunConcurrent(sys, gens, refs)
	default:
		t.Fatalf("unknown engine %q", engine)
	}
	if err != nil {
		if fault == "" {
			t.Fatalf("%s run: %v", engine, err)
		}
		// A faulted system may also trip a substrate error (e.g. the
		// bus rejecting duplicate DI) and end the run early; the
		// monitor must still have flagged the bug from the events that
		// led up to it.
		t.Logf("%s run ended early (expected under fault %s): %v", engine, fault, err)
	}
	if err := rec.Close(); err != nil {
		t.Fatal(err)
	}
	return mon.Report()
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
						rep := runWatched(t, f.Name, engine, shards, org.subs, 3000)
						if rep.Total == 0 {
							t.Fatalf("fault %s went undetected (%d states, %d txs checked)",
								f.Name, rep.States, rep.Txs)
						}
						if rep.ByInvariant[watch.Invariant(f.Expect)] == 0 {
							t.Fatalf("fault %s detected, but not as %s: by-invariant %v (first: %v)",
								f.Name, f.Expect, rep.ByInvariant, rep.First)
						}
					})
				}
			}
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
