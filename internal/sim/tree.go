package sim

import (
	"fmt"
	"strings"

	"futurebus/internal/bus"
	"futurebus/internal/hierarchy"
	"futurebus/internal/workload"
)

// NewTree builds the §6 two-level tree of internal/hierarchy as a
// System both engines drive. Its boards are the cluster caches, in the
// tree's master-id order, so board i is bus master i; each board's home
// is its cluster's bus. Bus is the global bus, Memory main memory, and
// Checker checks the global level. A tree runs atomic tenure under one
// FCFS arbiter all its buses share, unsharded.
func NewTree(cfg hierarchy.Config) (*System, error) {
	t, err := hierarchy.New(cfg)
	if err != nil {
		return nil, err
	}
	sys := &System{
		Bus: t.Global, Memory: t.Memory, Shadow: t.Shadow, Obs: cfg.Obs,
		buses: []*bus.Bus{t.Global}, tree: t,
	}
	for _, cl := range t.Clusters {
		sys.buses = append(sys.buses, cl.Local)
		sys.owned = append(sys.owned, cl.Bridge.Store())
		for _, c := range cl.Caches {
			sys.Caches = append(sys.Caches, c)
			sys.Boards = append(sys.Boards, &cachedBoard{Cache: c, name: c.Policy().Name()})
			sys.homes = append(sys.homes, len(sys.buses)-1)
		}
	}
	sys.owned = append(sys.owned, sys.Caches...)
	return sys, nil
}

// Tree returns the two-level tree a NewTree system runs, nil for a flat
// system.
func (s *System) Tree() *hierarchy.System { return s.tree }

// MultiBusScaling is experiment P9: the §6 multiple-bus question,
// answered with the internal/hierarchy two-level tree. A single bus
// saturates (P1); clustering moves intra-cluster sharing onto local
// buses and leaves the global bus only the cross-cluster residue. The
// experiment sweeps cluster shapes at a fixed total processor count and
// reports how the traffic splits and how fast the machine runs.
func MultiBusScaling(opts ExperimentOpts) (*Report, error) {
	rep := &Report{
		ID:    "P9",
		Title: "multi-bus hierarchy (§6): traffic split at 16 processors",
		Columns: []string{"shape", "globalTrans/ref", "localTrans/ref",
			"globalBusy(ms)", "maxLocalBusy(ms)", "elapsed(ms)", "eff", "fetches", "absorbs", "clusterInv"},
	}
	for _, clusters := range []int{1, 2, 4, 8} {
		sys, m, err := runP9Tree(clusters, opts)
		if err != nil {
			return nil, err
		}
		st := sys.tree.CollectStats()
		totalRefs := float64(m.Refs)
		rep.AddRow(
			fmt.Sprintf("%d×%d", clusters, 16/clusters),
			f(float64(st.GlobalTransactions)/totalRefs),
			f(float64(st.LocalTransactions)/totalRefs),
			f2(float64(st.GlobalBusy)/1e6),
			f2(float64(st.MaxLocalBusy)/1e6),
			f2(float64(m.ElapsedNanos)/1e6),
			f(m.Efficiency()),
			d(st.GlobalFetches), d(st.Absorbs), d(st.ClusterInvalidations),
		)
	}
	rep.AddNote("shape: with cluster-heavy sharing, the global bus's share of the traffic shrinks as clusters are added — the headroom a multiple-bus Futurebus buys; the 1×16 row is the single-bus baseline (its \"local\" bus is the only bus)")
	rep.AddNote("time: the deterministic engine runs every reference in simulated-time order; a board waits for its cluster's bus, and a miss its bridge forwards also waits for the global bus and holds both until it is served")
	rep.AddNote("consistency is checked at both levels after every run: global MOESI invariants over the bridges, and cluster invariants (no E/M below a bridge, inclusion, bridge currency)")
	if ignored := opts.treeIgnores(); len(ignored) > 0 {
		rep.AddNote("fabric: a tree runs atomic tenure under one FCFS arbiter, unsharded, so this sweep's %s did not apply here", strings.Join(ignored, ", "))
	}
	return rep, nil
}

// treeIgnores names the sweep's fabric options a tree does not honour:
// a shard count, a split tenure, a grant order other than FCFS, and a
// pending-table size.
func (o ExperimentOpts) treeIgnores() []string {
	var ignored []string
	if o.Shards > 1 {
		ignored = append(ignored, fmt.Sprintf("-shards %d", o.Shards))
	}
	if o.Tenure != "" && o.Tenure != "atomic" {
		ignored = append(ignored, "-bus "+o.Tenure)
	}
	if o.Discipline != "" && o.Discipline != "fcfs" {
		ignored = append(ignored, "-discipline "+o.Discipline)
	}
	if o.PendingTable != 0 {
		ignored = append(ignored, fmt.Sprintf("-pending-table %d", o.PendingTable))
	}
	return ignored
}

// runP9Tree runs P9's cluster-heavy sharing over a tree of 16 caches in
// the given number of clusters, through the runner every experiment
// cell goes through: 25% of references touch lines shared within the
// cluster, 5% lines shared machine-wide.
func runP9Tree(clusters int, opts ExperimentOpts) (*System, Metrics, error) {
	procs := 16 / clusters
	sys, err := NewTree(hierarchy.Config{
		Clusters:        clusters,
		ProcsPerCluster: procs,
		CacheSets:       32,
		CacheWays:       2,
		Shadow:          true,
		Obs:             opts.Obs,
	})
	if err != nil {
		return nil, Metrics{}, err
	}
	m, err := opts.drive(sys, func(sys *System, proc int) workload.Generator {
		return hierarchy.ClusterModel{
			Cluster: proc / procs, Proc: proc % procs,
			GlobalSharedLines: 16, ClusterSharedLines: 24, PrivateLines: 48,
			PGlobal: 0.05, PCluster: 0.25, PWrite: 0.3,
			WordsPerLine: sys.WordsPerLine(),
		}.NewGenerator(opts.Seed)
	})
	if err != nil {
		return nil, Metrics{}, fmt.Errorf("P9 %d×%d: %w", clusters, procs, err)
	}
	return sys, m, nil
}
