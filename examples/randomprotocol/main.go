// Randomprotocol: the paper's most striking claim, §3.4 — "As an
// extreme case, it would introduce no errors if a board were to select
// an action at each instant from the available set using a random
// number generator or a selection algorithm such as round robin."
//
// Four boards choose a fresh, uniformly random legal action from the
// full class tables on EVERY local event and EVERY snooped bus event,
// under a write-heavy, sharing-heavy workload designed to make any
// incompatibility lose a write. The consistency checker then verifies
// the shared memory image against the golden record of all 40,000+
// stores.
//
// Run with: go run ./examples/randomprotocol
package main

import (
	"fmt"
	"log"

	"futurebus/internal/sim"
	"futurebus/internal/workload"
)

func main() {
	for trial, mix := range [][]sim.BoardSpec{
		{{Protocol: "random"}, {Protocol: "random"}, {Protocol: "random"}, {Protocol: "random"}},
		{{Protocol: "round-robin"}, {Protocol: "round-robin"}, {Protocol: "round-robin"}, {Protocol: "round-robin"}},
		{{Protocol: "random"}, {Protocol: "round-robin"}, {Protocol: "moesi"}, {Protocol: "write-through"}},
	} {
		sys, err := sim.New(sim.Config{Boards: mix, Shadow: true})
		if err != nil {
			log.Fatal(err)
		}
		gens := sys.Generators(func(proc int) workload.Generator {
			return workload.MustModel(workload.Model{
				Proc:         proc,
				SharedLines:  16, // few lines -> constant collisions
				PrivateLines: 48,
				WordsPerLine: sys.WordsPerLine(),
				PShared:      0.5,
				PWrite:       0.45,
				Locality:     0.3,
			}, uint64(trial)*7919+13)
		})
		eng := sim.Engine{Sys: sys, Gens: gens}
		m, err := eng.Run(10000)
		if err != nil {
			log.Fatal(err)
		}
		if err := sys.Check(); err != nil {
			log.Fatalf("trial %d INCONSISTENT: %v", trial, err)
		}
		fmt.Printf("trial %d (%s):\n", trial+1, m.System)
		fmt.Printf("  %d refs, %d stores verified against the golden image — consistent\n",
			m.Refs, sys.Shadow.Writes())
		fmt.Printf("  cost of anarchy: trans/ref=%.4f bytes/ref=%.2f efficiency=%.3f\n",
			m.TransPerRef(), m.BytesPerRef(), m.Efficiency())
	}
	fmt.Println()
	fmt.Println("randomly mixing broadcast writes, invalidations, RFOs, Read>Write,")
	fmt.Println("silent upgrades and self-invalidations never corrupts the shared")
	fmt.Println("image — the class guarantees compatibility, not efficiency.")
}
