// Multibus: the §6 future-work question — "how one might implement a
// system with multiple buses and still maintain consistency" — answered
// with a two-level Futurebus tree: four clusters of four processors,
// each cluster a local bus bridged onto a global bus that holds main
// memory.
//
// The bridge keeps its cluster honest by asserting CH on every local
// transaction (so no cluster cache ever reaches E or M — every write is
// broadcast locally and the bridge's copy stays current), acts as the
// cluster's memory, and is itself a MOESI cache on the global bus,
// intervening when another cluster needs data this one owns.
//
// The tree runs on sim.Engine, the deterministic engine every flat
// system runs on: each board waits for its cluster's bus, and a miss
// its bridge forwards also waits for the global bus.
//
// Run with: go run ./examples/multibus
package main

import (
	"fmt"
	"log"

	"futurebus/internal/hierarchy"
	"futurebus/internal/sim"
	"futurebus/internal/workload"
)

func main() {
	const clusters, procs = 4, 4
	sys, err := sim.NewTree(hierarchy.Config{
		Clusters:        clusters,
		ProcsPerCluster: procs,
		CacheSets:       32,
		CacheWays:       2,
		Shadow:          true,
	})
	if err != nil {
		log.Fatal(err)
	}

	// Cluster-heavy sharing: 25% of references hit lines shared within
	// the cluster, 5% cross clusters.
	gens := sys.Generators(func(proc int) workload.Generator {
		return hierarchy.ClusterModel{
			Cluster: proc / procs, Proc: proc % procs,
			GlobalSharedLines: 16, ClusterSharedLines: 24, PrivateLines: 48,
			PGlobal: 0.05, PCluster: 0.25, PWrite: 0.3,
			WordsPerLine: sys.WordsPerLine(),
		}.NewGenerator(1986)
	})

	const refs = 5000
	m, err := (&sim.Engine{Sys: sys, Gens: gens}).Run(refs)
	if err != nil {
		log.Fatal(err)
	}
	if err := sys.Check(); err != nil {
		log.Fatalf("TREE INCONSISTENT: %v", err)
	}
	fmt.Println("two-level consistency verified:")
	fmt.Println("  global level: MOESI invariants over the four bridges + golden image")
	fmt.Println("  cluster level: no E/M below a bridge, inclusion, bridge currency")
	fmt.Println()

	tree := sys.Tree()
	st := tree.CollectStats()
	total := float64(m.Refs)
	fmt.Printf("%d processors, %d references each, %.2f ms simulated, efficiency %.3f:\n",
		clusters*procs, refs, float64(m.ElapsedNanos)/1e6, m.Efficiency())
	fmt.Printf("  local buses:  %.4f transactions/ref (spread over %d buses)\n",
		float64(st.LocalTransactions)/total, clusters)
	fmt.Printf("  global bus:   %.4f transactions/ref\n", float64(st.GlobalTransactions)/total)
	fmt.Printf("  bridge work:  %d global fetches, %d absorbs, %d cluster invalidations\n",
		st.GlobalFetches, st.Absorbs, st.ClusterInvalidations)
	fmt.Println()
	for _, cl := range tree.Clusters {
		bs := cl.Bridge.Stats()
		fmt.Printf("  cluster %d bridge: fills=%d fetches=%d absorbs=%d inclusions=%d\n",
			cl.ID, bs.LocalFills, bs.GlobalFetches, bs.Absorbs, bs.Inclusions)
	}
	fmt.Println()
	fmt.Println("a single bus saturates near 16 processors (see fbsweep -exp P1);")
	fmt.Println("here the global bus carries only the cross-cluster residue.")
}
