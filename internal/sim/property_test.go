package sim

import (
	"math/rand"
	"testing"

	"futurebus/internal/workload"
)

// TestRandomSystemsStayConsistent is the property-test form of the
// compatibility claim at the concrete-simulator level: 40 randomly
// drawn systems — random board mixes (class members only), random
// cache geometries, random line sizes, random workload parameters —
// all pass the six consistency invariants after a run.
func TestRandomSystemsStayConsistent(t *testing.T) {
	// Class members plus uncached masters; the §4 adapted protocols
	// (write-once, firefly) are excluded per their verdict.
	mixable := []string{
		"moesi", "moesi-invalidate", "moesi-update", "moesi-adaptive",
		"berkeley", "dragon", "illinois", "synapse",
		"write-through", "write-through-broadcast",
		"random", "round-robin", "uncached", "uncached-broadcast",
	}
	rng := rand.New(rand.NewSource(20260704))
	for trial := 0; trial < 40; trial++ {
		nBoards := 2 + rng.Intn(5)
		boards := make([]BoardSpec, nBoards)
		cached := 0
		for i := range boards {
			boards[i] = BoardSpec{Protocol: mixable[rng.Intn(len(mixable))]}
			if boards[i].Protocol != "uncached" && boards[i].Protocol != "uncached-broadcast" {
				cached++
				if rng.Intn(4) == 0 {
					boards[i].SectorSubs = 2 << rng.Intn(2) // sector organisation, 2 or 4 subs
				}
			}
		}
		if cached == 0 {
			boards[0] = BoardSpec{Protocol: "moesi"}
		}
		lineSizes := []int{16, 32, 64}
		cfg := Config{
			LineSize:  lineSizes[rng.Intn(len(lineSizes))],
			CacheSets: 1 << (2 + rng.Intn(4)),
			CacheWays: 1 + rng.Intn(3),
			Boards:    boards,
			Shadow:    true,
			Paranoid:  true,
		}
		sys, err := New(cfg)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		pShared := 0.1 + rng.Float64()*0.5
		pWrite := 0.1 + rng.Float64()*0.4
		seed := rng.Uint64()
		gens := sys.Generators(func(proc int) workload.Generator {
			return workload.MustModel(workload.Model{
				Proc:         proc,
				SharedLines:  4 + rng.Intn(40),
				PrivateLines: 8 + rng.Intn(100),
				WordsPerLine: sys.WordsPerLine(),
				PShared:      pShared,
				PWrite:       pWrite,
				Locality:     rng.Float64() * 0.7,
			}, seed)
		})
		eng := Engine{Sys: sys, Gens: gens}
		if _, err := eng.Run(800); err != nil {
			t.Fatalf("trial %d (%s, line=%d): %v", trial, sys.Describe(), cfg.LineSize, err)
		}
		if err := sys.Check(); err != nil {
			t.Fatalf("trial %d (%s, line=%d):\n%v", trial, sys.Describe(), cfg.LineSize, err)
		}
	}
}

// TestRandomPatternMixesConsistent: the structured patterns under
// random class-member mixes, concurrent engine, race-detector
// compatible.
func TestRandomPatternMixesConsistent(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	members := []string{"moesi", "moesi-invalidate", "berkeley", "dragon", "random"}
	for trial := 0; trial < 6; trial++ {
		boards := make([]BoardSpec, 3)
		for i := range boards {
			boards[i] = BoardSpec{Protocol: members[rng.Intn(len(members))]}
		}
		sys, err := New(Config{Boards: boards, Shadow: true})
		if err != nil {
			t.Fatal(err)
		}
		pattern := trial % 3
		gens := sys.Generators(func(proc int) workload.Generator {
			switch pattern {
			case 0:
				return workload.NewMigratory(proc, 3, 8, 8, sys.WordsPerLine(), uint64(trial))
			case 1:
				return workload.NewProducerConsumer(proc, 8, sys.WordsPerLine(), uint64(trial))
			default:
				return workload.NewPingPong(proc, 4, sys.WordsPerLine(), uint64(trial))
			}
		})
		if _, err := RunConcurrent(sys, gens, 800); err != nil {
			t.Fatalf("trial %d (%s): %v", trial, sys.Describe(), err)
		}
		if err := sys.Check(); err != nil {
			t.Fatalf("trial %d (%s): %v", trial, sys.Describe(), err)
		}
	}
}

// TestSoakLargeSystem: a 16-board heterogeneous machine (including
// sector boards and DMA masters) under heavy sharing for 10k refs per
// board — the long-haul invariant soak. Skipped with -short.
func TestSoakLargeSystem(t *testing.T) {
	if testing.Short() {
		t.Skip("soak test")
	}
	boards := []BoardSpec{
		{Protocol: "moesi"}, {Protocol: "moesi"}, {Protocol: "moesi-invalidate"},
		{Protocol: "moesi-update"}, {Protocol: "moesi-adaptive"},
		{Protocol: "berkeley"}, {Protocol: "berkeley"},
		{Protocol: "dragon"}, {Protocol: "dragon"},
		{Protocol: "synapse"}, {Protocol: "illinois"},
		{Protocol: "moesi", SectorSubs: 4},
		{Protocol: "write-through"}, {Protocol: "write-through-broadcast"},
		{Protocol: "random"}, {Protocol: "uncached"},
	}
	cfg := Config{Boards: boards, Shadow: true, Paranoid: true}
	sys, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	eng := Engine{Sys: sys, Gens: abGens(sys, 0.45, 0.35, 0xDECADE)}
	m, err := eng.Run(10000)
	if err != nil {
		t.Fatal(err)
	}
	if err := sys.Check(); err != nil {
		t.Fatal(err)
	}
	if sys.Shadow.Writes() < 50000 {
		t.Errorf("soak verified only %d writes", sys.Shadow.Writes())
	}
	t.Logf("soak: %s", m)
}
