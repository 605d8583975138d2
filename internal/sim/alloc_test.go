package sim

import (
	"testing"

	"futurebus/internal/workload"
)

// hitStream alternates a write and a read of one private line: after
// the first write misses, every reference hits (M stays M).
func hitStream(line uint64) workload.Generator {
	return workload.NewReplay(workload.Trace{
		{Line: line, Word: 1, Write: true, Val: 7},
		{Line: line, Word: 1},
	})
}

// TestEngineReferenceAllocs: once the caches are warm, a deterministic-
// engine reference allocates nothing — the pending reference is held by
// value and Board.Stall is an atomic load. Run's own setup allocates a
// fixed amount, so the per-reference cost is the difference between two
// run lengths.
func TestEngineReferenceAllocs(t *testing.T) {
	sys, err := New(Homogeneous("moesi", 2))
	if err != nil {
		t.Fatal(err)
	}
	eng := Engine{Sys: sys, Gens: []workload.Generator{hitStream(1 << 20), hitStream(2 << 20)}}
	run := func(refs int) float64 {
		return testing.AllocsPerRun(20, func() {
			if _, err := eng.Run(refs); err != nil {
				t.Fatal(err)
			}
		})
	}
	short, long := run(10), run(1010)
	if perRef := (long - short) / 1000; perRef != 0 {
		t.Errorf("%.3f allocations per reference (%.0f for 10 refs, %.0f for 1010)", perRef, short, long)
	}
	if m := sys.Caches[0].Stats(); m.ReadMisses+m.WriteMisses > 1 {
		t.Errorf("stream missed %d times, want one cold miss", m.ReadMisses+m.WriteMisses)
	}
}

// TestNewAllocs pins what building an 8×moesi system costs once the
// process has compiled the protocol: every board shares the one frozen
// MOESI policy, and each cache's lines and data are one slab each, so
// sim.New allocates a fixed few dozen times (1,710 when every board
// parsed its own table and every set and way allocated on its own).
func TestNewAllocs(t *testing.T) {
	cfg := Homogeneous("moesi", 8)
	if _, err := New(cfg); err != nil { // warm-up: compiles MOESI once
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(20, func() {
		if _, err := New(cfg); err != nil {
			t.Fatal(err)
		}
	})
	t.Logf("sim.New(8×moesi): %.0f allocations", allocs)
	if allocs > 100 {
		t.Errorf("sim.New(8×moesi) = %.0f allocations, want ≤ 100", allocs)
	}
}
