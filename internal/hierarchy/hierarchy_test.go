// The tests of a whole tree's run drive it as a sim.System, on the
// engines every flat system runs on; package sim imports hierarchy, so
// they live in this external test package.
package hierarchy_test

import (
	"errors"
	"strings"
	"testing"

	"futurebus/internal/bus"
	"futurebus/internal/core"
	"futurebus/internal/hierarchy"
	"futurebus/internal/sim"
	"futurebus/internal/workload"
)

func smallConfig(clusters, procs int) hierarchy.Config {
	return hierarchy.Config{
		Clusters:        clusters,
		ProcsPerCluster: procs,
		CacheSets:       8,
		CacheWays:       2,
		Shadow:          true,
	}
}

func mustNew(t *testing.T, cfg hierarchy.Config) *hierarchy.System {
	t.Helper()
	sys, err := hierarchy.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return sys
}

func mustNewTree(t *testing.T, cfg hierarchy.Config) *sim.System {
	t.Helper()
	sys, err := sim.NewTree(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return sys
}

// mustPass fails the test if a tree deferred a bridge error or breaches
// consistency at either level.
func mustPass(t *testing.T, tree *sim.System) {
	t.Helper()
	if err := errors.Join(tree.Tree().Err(), tree.Check()); err != nil {
		t.Fatal(err)
	}
}

// abGens builds per-processor generators; shared lines are shared
// ACROSS clusters, exercising the global level.
func abGens(t *testing.T, sys *sim.System, pShared float64, seed uint64) []workload.Generator {
	t.Helper()
	return sys.Generators(func(proc int) workload.Generator {
		g, err := workload.NewModel(workload.Model{
			Proc:         proc,
			SharedLines:  24,
			PrivateLines: 32,
			WordsPerLine: sys.WordsPerLine(),
			PShared:      pShared,
			PWrite:       0.3,
			Locality:     0.3,
		}, seed)
		if err != nil {
			t.Fatal(err)
		}
		return g
	})
}

// TestBasicCrossClusterFlow walks one line across clusters by hand.
func TestBasicCrossClusterFlow(t *testing.T) {
	tree := mustNewTree(t, smallConfig(2, 2))
	sys := tree.Tree()
	a := sys.Proc(0, 0)
	b := sys.Proc(1, 0)
	const line = bus.Addr(0x100)

	// Cluster 0 writes: miss → Read>Write; the bridge's CH pins the
	// line to S, the broadcast write makes the writer O.
	if err := a.WriteWord(line, 0, 0xAA); err != nil {
		t.Fatal(err)
	}
	if st := a.State(line); st != core.Owned {
		t.Fatalf("writer state %s (cluster caches must never hold E/M)", st)
	}
	// The write was absorbed: bridge 0 owns the line globally.
	if st := sys.Clusters[0].Bridge.Store().State(line); !st.OwnedCopy() {
		t.Fatalf("bridge 0 state %s, want owned", st)
	}

	// Cluster 1 reads: its bridge fetches globally; bridge 0 intervenes.
	v, err := b.ReadWord(line, 0)
	if err != nil {
		t.Fatal(err)
	}
	if v != 0xAA {
		t.Fatalf("cross-cluster read got %#x", v)
	}
	if st := sys.Clusters[1].Bridge.Store().State(line); !st.Valid() {
		t.Fatalf("bridge 1 state %s", st)
	}

	// Cluster 1 writes: bridge 1 takes global M; bridge 0 must be
	// invalidated AND must clear cluster 0's copies synchronously.
	if err := b.WriteWord(line, 1, 0xBB); err != nil {
		t.Fatal(err)
	}
	if sys.Clusters[0].Bridge.Store().Contains(line) {
		t.Fatal("bridge 0 still holds the line after a foreign write")
	}
	if a.Contains(line) {
		t.Fatal("cluster 0 cache still holds the line (stale copy!)")
	}

	// Cluster 0 reads back: fresh fetch sees both words.
	if v, err := a.ReadWord(line, 1); err != nil || v != 0xBB {
		t.Fatalf("read back %#x, %v", v, err)
	}
	if v, err := a.ReadWord(line, 0); err != nil || v != 0xAA {
		t.Fatalf("read back word0 %#x, %v", v, err)
	}
	mustPass(t, tree)
}

// TestIntraClusterSharingStaysLocal: two caches in one cluster sharing
// a line generate no global traffic beyond the initial fetch.
func TestIntraClusterSharingStaysLocal(t *testing.T) {
	tree := mustNewTree(t, smallConfig(2, 2))
	sys := tree.Tree()
	a, b := sys.Proc(0, 0), sys.Proc(0, 1)
	const line = bus.Addr(0x200)

	if err := a.WriteWord(line, 0, 1); err != nil {
		t.Fatal(err)
	}
	if _, err := b.ReadWord(line, 0); err != nil {
		t.Fatal(err)
	}
	globalBefore := sys.Global.Stats().Transactions
	// A ping-pong burst inside the cluster.
	for i := 0; i < 50; i++ {
		if err := a.WriteWord(line, 0, uint32(i)); err != nil {
			t.Fatal(err)
		}
		if _, err := b.ReadWord(line, 0); err != nil {
			t.Fatal(err)
		}
		if err := b.WriteWord(line, 1, uint32(i)); err != nil {
			t.Fatal(err)
		}
	}
	// Broadcast writes inside the cluster reach the bridge (its copy
	// must stay current) but the bridge holds global M after the first
	// absorb, so nothing else appears on the global bus.
	globalAfter := sys.Global.Stats().Transactions
	if grew := globalAfter - globalBefore; grew != 0 {
		t.Errorf("intra-cluster sharing leaked %d global transactions", grew)
	}
	mustPass(t, tree)
}

// TestHierarchyWorkloadConsistent: the full two-level machine stays
// consistent at both levels under a mixed shared workload.
func TestHierarchyWorkloadConsistent(t *testing.T) {
	sys := mustNewTree(t, smallConfig(3, 2))
	if _, err := (&sim.Engine{Sys: sys, Gens: abGens(t, sys, 0.4, 11)}).Run(1500); err != nil {
		t.Fatal(err)
	}
	if err := sys.Check(); err != nil {
		t.Fatal(err)
	}
	st := sys.Tree().CollectStats()
	if st.LocalTransactions == 0 || st.GlobalTransactions == 0 {
		t.Errorf("stats: %+v", st)
	}
	// The tree's point: local work dominates global work.
	if st.LocalTransactions <= st.GlobalTransactions {
		t.Errorf("local %d not above global %d", st.LocalTransactions, st.GlobalTransactions)
	}
}

// TestHierarchyConcurrentConsistent: sim.RunConcurrent drives the tree
// with a goroutine per processor, the arbiter all its buses share
// serialising them, and the tree passes both levels' checks (run with
// -race).
func TestHierarchyConcurrentConsistent(t *testing.T) {
	sys := mustNewTree(t, smallConfig(2, 2))
	if _, err := sim.RunConcurrent(sys, abGens(t, sys, 0.4, 23), 1000); err != nil {
		t.Fatal(err)
	}
	if err := sys.Check(); err != nil {
		t.Fatal(err)
	}
}

// TestClusterPolicyValidation: invalidate-style protocols are rejected
// for clusters.
func TestClusterPolicyValidation(t *testing.T) {
	cfg := smallConfig(1, 1)
	for _, bad := range []string{"moesi-invalidate", "berkeley", "illinois", "moesi"} {
		cfg.ClusterProtocols = []string{bad}
		if _, err := hierarchy.New(cfg); err == nil {
			t.Errorf("cluster protocol %q accepted", bad)
		}
	}
	for _, good := range []string{"moesi-update", "dragon"} {
		cfg.ClusterProtocols = []string{good}
		if _, err := hierarchy.New(cfg); err != nil {
			t.Errorf("cluster protocol %q rejected: %v", good, err)
		}
	}
}

// TestBridgeInclusionEviction: when the bridge store evicts a line, the
// cluster's copies go with it.
func TestBridgeInclusionEviction(t *testing.T) {
	cfg := smallConfig(1, 1)
	cfg.BridgeSets = 2 // tiny bridge: 2 sets × 4 ways
	cfg.BridgeWays = 4
	cfg.CacheSets = 8
	cfg.CacheWays = 2
	tree := mustNewTree(t, cfg)
	sys := tree.Tree()
	c := sys.Proc(0, 0)

	// Touch more lines than one bridge set holds; all map to bridge
	// set 0 (addresses are multiples of 2 = BridgeSets).
	lines := []bus.Addr{0, 2, 4, 6, 8}
	for _, ln := range lines {
		if err := c.WriteWord(ln, 0, uint32(ln)+1); err != nil {
			t.Fatal(err)
		}
	}
	if err := sys.Err(); err != nil {
		t.Fatal(err)
	}
	inclusions := sys.Clusters[0].Bridge.Stats().Inclusions
	if inclusions == 0 {
		t.Fatal("no inclusion evictions despite bridge pressure")
	}
	mustPass(t, tree)
	// The evicted lines' data must still be correct when re-read.
	for _, ln := range lines {
		v, err := c.ReadWord(ln, 0)
		if err != nil {
			t.Fatal(err)
		}
		if v != uint32(ln)+1 {
			t.Fatalf("line %#x = %d after inclusion eviction", uint64(ln), v)
		}
	}
}

// TestClusterCheckerDetectsStaleCopy: corrupting a bridge line behind
// the system's back trips the currency invariant.
func TestClusterCheckerDetectsStaleCopy(t *testing.T) {
	sys := mustNew(t, smallConfig(1, 1))
	c := sys.Proc(0, 0)
	if err := c.WriteWord(3, 0, 7); err != nil {
		t.Fatal(err)
	}
	// Absorb a divergent line into the bridge directly.
	sys.Global.Acquire(3, -1)
	err := sys.Clusters[0].Bridge.Store().AbsorbLineHeld(3, make([]byte, sys.Global.LineSize()))
	sys.Global.Release(3)
	if err != nil {
		t.Fatal(err)
	}
	vs := sys.CheckClusters()
	found := false
	for _, v := range vs {
		if strings.Contains(v.Reason, "bridge stale") {
			found = true
		}
	}
	if !found {
		t.Errorf("stale bridge copy not detected: %v", vs)
	}
}

// TestMixedClusterProtocols: different clusters may run different
// update-style members; the tree stays consistent at both levels.
func TestMixedClusterProtocols(t *testing.T) {
	cfg := smallConfig(2, 2)
	cfg.ClusterProtocols = []string{"dragon", "moesi-update"}
	sys := mustNewTree(t, cfg)
	if _, err := (&sim.Engine{Sys: sys, Gens: abGens(t, sys, 0.4, 31)}).Run(1200); err != nil {
		t.Fatal(err)
	}
	if err := sys.Check(); err != nil {
		t.Fatal(err)
	}
	// A wrong-length protocol list is rejected.
	cfg.ClusterProtocols = []string{"dragon"}
	if _, err := hierarchy.New(cfg); err == nil {
		t.Error("mismatched cluster protocol list accepted")
	}
}

// TestHierarchyAccessors: stats plumbing and the global checker.
func TestHierarchyAccessors(t *testing.T) {
	tree := mustNewTree(t, smallConfig(2, 1))
	if _, err := (&sim.Engine{Sys: tree, Gens: abGens(t, tree, 0.3, 5)}).Run(400); err != nil {
		t.Fatal(err)
	}
	if err := tree.Check(); err != nil {
		t.Fatal(err)
	}
	sys := tree.Tree()
	st := sys.CollectStats()
	if st.GlobalFetches == 0 || st.Absorbs == 0 {
		t.Errorf("bridge stats empty: %+v", st)
	}
	bs := sys.Clusters[0].Bridge.Stats()
	if bs.LocalFills+bs.GlobalFetches == 0 {
		t.Errorf("bridge fill stats empty: %+v", bs)
	}
	if err := tree.Checker().MustPass(); err != nil {
		t.Fatal(err)
	}
	if len(tree.Caches) != 2 {
		t.Errorf("Caches = %d", len(tree.Caches))
	}
}

// TestHierarchyConfigErrors: invalid shapes are rejected.
func TestHierarchyConfigErrors(t *testing.T) {
	if _, err := hierarchy.New(hierarchy.Config{Clusters: 0, ProcsPerCluster: 1}); err == nil {
		t.Error("zero clusters accepted")
	}
	if _, err := hierarchy.New(hierarchy.Config{Clusters: 1, ProcsPerCluster: 0}); err == nil {
		t.Error("zero processors accepted")
	}
}

// TestBridgeErrorFailsRun: an error a bridge defers (its memory-port
// and snoop hooks cannot return one) fails an engine run: the
// deterministic engine names the board and the reference whose access
// found it, and the concurrent engine reports it once it quiesces.
func TestBridgeErrorFailsRun(t *testing.T) {
	injected := errors.New("injected bridge failure")
	for _, engine := range []string{"det", "conc"} {
		sys := mustNewTree(t, smallConfig(2, 1))
		sys.Tree().Clusters[1].Bridge.SetErr(injected)
		// Board 0's first reference is a write miss: a bus access.
		gens := []workload.Generator{
			workload.NewReplay(workload.Trace{{Line: 0x40, Write: true, Val: 1}}),
			workload.NewReplay(workload.Trace{{Line: 0x41}}),
		}
		var err error
		if engine == "det" {
			_, err = (&sim.Engine{Sys: sys, Gens: gens}).Run(1)
			if err == nil || !strings.Contains(err.Error(), "board 0 ref W 0x40") {
				t.Errorf("det run error %v does not name board 0's write", err)
			}
		} else {
			_, err = sim.RunConcurrent(sys, gens, 1)
		}
		if !errors.Is(err, injected) {
			t.Errorf("%s run error %v, want the bridge's", engine, err)
		}
	}
}
