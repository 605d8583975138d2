// Mixedbus: the paper's headline capability — boards running DIFFERENT
// consistency protocols share one Futurebus and stay consistent,
// because each only ever picks actions from the compatible class
// (§3.4: "different boards on the bus can implement different
// protocols, provided that each comes from this class").
//
// This example puts six boards on one bus:
//
//	MOESI (preferred, update-style)   — copy-back
//	MOESI-invalidate                  — copy-back
//	Berkeley (Table 3)                — copy-back, no E state
//	Dragon (Table 4)                  — copy-back, update-style
//	write-through                     — V≡S, not capable of ownership
//	uncached DMA                      — never snoops, columns 7/9
//
// drives them with a sharing-heavy workload, verifies all six
// consistency invariants, and prints per-board protocol costs.
//
// Run with: go run ./examples/mixedbus
package main

import (
	"fmt"
	"log"

	"futurebus/internal/sim"
	"futurebus/internal/workload"
)

func main() {
	cfg := sim.Config{
		Boards: []sim.BoardSpec{
			{Protocol: "moesi"},
			{Protocol: "moesi-invalidate"},
			{Protocol: "berkeley"},
			{Protocol: "dragon"},
			{Protocol: "write-through"},
			{Protocol: "uncached"},
		},
		Shadow: true, // track the golden image for the checker
	}
	sys, err := sim.New(cfg)
	if err != nil {
		log.Fatal(err)
	}

	gens := sys.Generators(func(proc int) workload.Generator {
		return workload.MustModel(workload.Model{
			Proc:         proc,
			SharedLines:  24,
			PrivateLines: 64,
			WordsPerLine: sys.WordsPerLine(),
			PShared:      0.35,
			PWrite:       0.3,
			Locality:     0.4,
		}, 1986)
	})

	eng := sim.Engine{Sys: sys, Gens: gens}
	m, err := eng.Run(25000)
	if err != nil {
		log.Fatal(err)
	}

	if err := sys.Check(); err != nil {
		log.Fatalf("MIXED BUS INCONSISTENT: %v", err)
	}
	fmt.Println("mixed bus is consistent: unique ownership, real exclusivity,")
	fmt.Println("single-valued image, memory valid when unowned, golden image matches.")
	fmt.Println()
	fmt.Printf("system: %s\n", m.System)
	fmt.Printf("refs=%d missRatio=%.4f trans/ref=%.4f bytes/ref=%.2f busUtil=%.3f\n",
		m.Refs, m.MissRatio(), m.TransPerRef(), m.BytesPerRef(), m.BusUtilization())
	fmt.Println()

	fmt.Println("per-board view (same bus, different protocols, different costs):")
	fmt.Printf("  %-18s %8s %8s %8s %9s %9s %9s\n",
		"protocol", "hits", "misses", "upgrades", "inv.rcvd", "upd.rcvd", "intervene")
	for i, c := range sys.Caches {
		s := c.Stats()
		fmt.Printf("  %-18s %8d %8d %8d %9d %9d %9d\n",
			sys.Boards[i].Describe(),
			s.ReadHits+s.WriteHits, s.ReadMisses+s.WriteMisses, s.WriteUpgrades,
			s.InvalidationsReceived, s.UpdatesReceived, s.InterventionsSupplied)
	}
	fmt.Println()
	fmt.Println("note how the Dragon/MOESI boards receive updates (their copies stay")
	fmt.Println("live) while the invalidate-style boards receive invalidations, and")
	fmt.Println("the write-through board never intervenes: V≡S cannot own a line.")
}
