package sim

import (
	"testing"

	"futurebus/internal/protocols"
	"futurebus/internal/workload"
)

// abGens builds Archibald–Baer model generators for a system.
func abGens(sys *System, pShared, pWrite float64, seed uint64) []workload.Generator {
	return sys.Generators(func(proc int) workload.Generator {
		return workload.MustModel(workload.Model{
			Proc:         proc,
			SharedLines:  64,
			PrivateLines: 256,
			WordsPerLine: sys.WordsPerLine(),
			PShared:      pShared,
			PWrite:       pWrite,
			Locality:     0.2,
		}, seed)
	})
}

// TestHomogeneousProtocolsConsistent runs every registered protocol in
// a 4-processor system through the deterministic engine and checks the
// full consistency criterion afterwards.
func TestHomogeneousProtocolsConsistent(t *testing.T) {
	for _, name := range protocols.Names() {
		name := name
		t.Run(name, func(t *testing.T) {
			cfg := Homogeneous(name, 4)
			cfg.Shadow = true
			cfg.Paranoid = true
			sys, err := New(cfg)
			if err != nil {
				t.Fatal(err)
			}
			eng := Engine{Sys: sys, Gens: abGens(sys, 0.3, 0.3, 42)}
			m, err := eng.Run(3000)
			if err != nil {
				t.Fatal(err)
			}
			if err := sys.Check(); err != nil {
				t.Fatal(err)
			}
			if m.Refs != 4*3000 {
				t.Fatalf("executed %d refs, want %d", m.Refs, 4*3000)
			}
			t.Logf("%s", m)
		})
	}
}

// TestMixedClassMembersConsistent puts one board of every true class
// member on the same bus — the paper's central claim (§3.4).
func TestMixedClassMembersConsistent(t *testing.T) {
	cfg := Config{
		Boards: []BoardSpec{
			{Protocol: "moesi"},
			{Protocol: "moesi-invalidate"},
			{Protocol: "berkeley"},
			{Protocol: "dragon"},
			{Protocol: "write-through"},
			{Protocol: "random"},
			{Protocol: "uncached"},
		},
		Shadow: true,
	}
	sys, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	eng := Engine{Sys: sys, Gens: abGens(sys, 0.4, 0.3, 7)}
	if _, err := eng.Run(3000); err != nil {
		t.Fatal(err)
	}
	if err := sys.Check(); err != nil {
		t.Fatal(err)
	}
}

// TestConcurrentEngineConsistent runs goroutine-per-processor boards
// (run with -race in CI) and checks consistency at quiesce.
func TestConcurrentEngineConsistent(t *testing.T) {
	cfg := Config{
		Boards: []BoardSpec{
			{Protocol: "moesi"},
			{Protocol: "moesi"},
			{Protocol: "dragon"},
			{Protocol: "berkeley"},
		},
		Shadow: true,
	}
	sys, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := RunConcurrent(sys, abGens(sys, 0.4, 0.3, 99), 2000); err != nil {
		t.Fatal(err)
	}
	if err := sys.Check(); err != nil {
		t.Fatal(err)
	}
}
