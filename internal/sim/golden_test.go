package sim

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"testing"

	"futurebus/internal/bus"
	"futurebus/internal/cache"
	"futurebus/internal/memory"
	"futurebus/internal/workload"
)

// goldenStats is the simulated outcome of one deterministic run: every
// counter the substrates keep plus each board's cumulative Stall. A
// host-side change (allocation, locking, copying) must leave all of it
// bit-identical.
type goldenStats struct {
	System       string
	Refs         int64
	ElapsedNanos int64
	Bus          bus.Stats
	Memory       memory.Stats
	Cache        cache.Stats
	Stalls       []int64
}

// goldenCase is one fixed-seed deterministic-engine configuration.
type goldenCase struct {
	name string
	cfg  Config
	gens func(sys *System) []workload.Generator
	refs int
}

// abShape is the Archibald–Baer hit-bound shape: 32 shared and 80
// private lines per board, pWrite 0.3, locality 0.5.
func abShape(pShared float64, seed uint64) func(sys *System) []workload.Generator {
	return func(sys *System) []workload.Generator {
		return sys.Generators(func(proc int) workload.Generator {
			return workload.MustModel(workload.Model{
				Proc: proc, SharedLines: 32, PrivateLines: 80,
				WordsPerLine: sys.WordsPerLine(),
				PShared:      pShared, PWrite: 0.3, Locality: 0.5,
			}, seed)
		})
	}
}

func goldenCases() []goldenCase {
	zipf := func(sys *System) []workload.Generator {
		return sys.Generators(func(proc int) workload.Generator {
			return workload.NewZipf(proc, 2048, sys.WordsPerLine(), 0.8, 0.4, 1986)
		})
	}
	return []goldenCase{
		{name: "ab-hits", cfg: Homogeneous("moesi", 8), gens: abShape(0.2, 1986), refs: 3000},
		{name: "zipf-mix", cfg: Config{
			Boards: []BoardSpec{
				{Protocol: "moesi"}, {Protocol: "moesi-invalidate"}, {Protocol: "moesi-update"},
				{Protocol: "berkeley"}, {Protocol: "dragon"}, {Protocol: "illinois"},
				{Protocol: "write-through"}, {Protocol: "moesi"},
			},
			Shards: 2, Tenure: "split", Discipline: "rr",
		}, gens: zipf, refs: 1500},
		{name: "random", cfg: Homogeneous("random", 4), gens: abShape(0.4, 7), refs: 2000},
		{name: "adaptive", cfg: Homogeneous("moesi-adaptive", 4), gens: abShape(0.4, 11), refs: 2000},
		{name: "sector", cfg: Config{Boards: []BoardSpec{
			{Protocol: "moesi", SectorSubs: 4}, {Protocol: "dragon", SectorSubs: 4},
			{Protocol: "moesi"}, {Protocol: "berkeley"},
		}}, gens: abShape(0.3, 13), refs: 2000},
		{name: "uncached", cfg: Config{Boards: []BoardSpec{
			{Protocol: "moesi"}, {Protocol: "berkeley"}, {Protocol: "dragon"},
			{Protocol: "uncached"}, {Protocol: "uncached-broadcast"},
		}}, gens: abShape(0.4, 17), refs: 2000},
		{name: "write-once", cfg: Homogeneous("write-once", 4), gens: abShape(0.3, 19), refs: 2000},
	}
}

// TestSimulatedStatsGolden pins the full simulated statistics of fixed-
// seed deterministic runs — elapsed time, bus, memory and cache
// counters including the transition matrix, and every board's stall —
// against goldens in testdata/stats_<case>.json. Any moved statistic
// fails tier-1, so host-side optimisations are checked to be
// simulator-neutral without the benchmark. Regenerate with -update
// only for a deliberate model change.
func TestSimulatedStatsGolden(t *testing.T) {
	for _, gc := range goldenCases() {
		t.Run(gc.name, func(t *testing.T) {
			cfg := gc.cfg
			cfg.Shadow = true
			sys, err := New(cfg)
			if err != nil {
				t.Fatal(err)
			}
			m, err := (&Engine{Sys: sys, Gens: gc.gens(sys)}).Run(gc.refs)
			if err != nil {
				t.Fatal(err)
			}
			if err := sys.Checker().MustPass(); err != nil {
				t.Fatal(err)
			}
			got := goldenStats{
				System: m.System, Refs: m.Refs, ElapsedNanos: m.ElapsedNanos,
				Bus: m.Bus, Memory: m.Memory, Cache: m.Cache,
			}
			for _, b := range sys.Boards {
				got.Stalls = append(got.Stalls, b.Stall())
			}
			enc, err := json.MarshalIndent(got, "", "  ")
			if err != nil {
				t.Fatal(err)
			}
			enc = append(enc, '\n')
			path := filepath.Join("testdata", "stats_"+gc.name+".json")
			if *updateGolden {
				if err := os.WriteFile(path, enc, 0o644); err != nil {
					t.Fatal(err)
				}
			}
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatalf("%v (run with -update to create)", err)
			}
			if !bytes.Equal(enc, want) {
				t.Errorf("simulated statistics moved from %s:\ngot  %s\nwant %s", path, enc, want)
			}
		})
	}
}
