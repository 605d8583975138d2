package hierarchy

import (
	"fmt"

	"futurebus/internal/bus"
	"futurebus/internal/cache"
	"futurebus/internal/check"
	"futurebus/internal/core"
	"futurebus/internal/memory"
	"futurebus/internal/obs"
	"futurebus/internal/protocols"
)

// Config assembles a two-level system.
type Config struct {
	// Clusters is the number of local buses.
	Clusters int
	// ProcsPerCluster is the number of processor caches per cluster.
	ProcsPerCluster int
	// ClusterProtocols names the protocol each cluster's caches run,
	// one per cluster; empty runs "moesi-update" everywhere. Each must
	// be an update-style class member (see validateClusterPolicy), and
	// clusters may run different ones — the class's compatibility claim
	// applied per local bus.
	ClusterProtocols []string
	// LineSize is the system-wide line size (§5.1 applies across the
	// whole tree). 0 = bus.DefaultLineSize.
	LineSize int
	// CacheSets/CacheWays give the processor caches' geometry;
	// BridgeSets/BridgeWays the bridge stores' (bridges should be much
	// larger — inclusion means a bridge tracks its whole cluster).
	CacheSets, CacheWays   int
	BridgeSets, BridgeWays int
	// Shadow enables golden-image tracking.
	Shadow bool
	// Obs, when non-nil, instruments every bus, cache and memory in the
	// tree. Events tag the global bus as segment 0 and cluster i's
	// local bus as segment i+1.
	Obs *obs.Recorder
}

// Cluster is one local bus with its caches and bridge.
type Cluster struct {
	ID     int
	Local  *bus.Bus
	Bridge *Bridge
	Caches []*cache.Cache
}

// System is the assembled two-level machine. Its caches take bus-master
// ids across the whole tree: cluster ci's cache pi is master
// ci·ProcsPerCluster+pi.
type System struct {
	Global   *bus.Bus
	Memory   *memory.Sharded
	Clusters []*Cluster
	Shadow   *check.Shadow
}

// New builds the hierarchy: one global bus holding main memory and the
// bridges, plus Clusters local buses each holding ProcsPerCluster
// caches. Every bus shares one arbiter (see the package comment).
// sim.NewTree builds one its engines drive.
func New(cfg Config) (*System, error) {
	if cfg.Clusters <= 0 || cfg.ProcsPerCluster <= 0 {
		return nil, fmt.Errorf("hierarchy: need clusters and processors, got %d×%d", cfg.Clusters, cfg.ProcsPerCluster)
	}
	// The tree's caches take ids 0..n-1 and its buses 0..Clusters; the
	// analyzers keep per-line state only for ids below obs.MaxID.
	if cfg.Clusters >= obs.MaxID || cfg.ProcsPerCluster > obs.MaxID/cfg.Clusters {
		return nil, fmt.Errorf("hierarchy: %d×%d caches: cache and bus ids must stay below %d", cfg.Clusters, cfg.ProcsPerCluster, obs.MaxID)
	}
	if cfg.LineSize == 0 {
		cfg.LineSize = bus.DefaultLineSize
	}
	if cfg.CacheSets == 0 {
		cfg.CacheSets = 64
	}
	if cfg.CacheWays == 0 {
		cfg.CacheWays = 2
	}
	if cfg.BridgeSets == 0 {
		// Inclusion: the bridge must be able to track every line its
		// cluster holds, with slack for conflict placement.
		cfg.BridgeSets = 4 * cfg.CacheSets * cfg.ProcsPerCluster
	}
	if cfg.BridgeWays == 0 {
		cfg.BridgeWays = 2 * cfg.CacheWays
	}

	if len(cfg.ClusterProtocols) != 0 && len(cfg.ClusterProtocols) != cfg.Clusters {
		return nil, fmt.Errorf("hierarchy: %d cluster protocols for %d clusters", len(cfg.ClusterProtocols), cfg.Clusters)
	}

	// Every bus shares one FCFS arbiter.
	cfg.Obs.MarkEpoch(0, "fcfs")
	arb := bus.NewArbiter()
	mem := memory.NewSharded(cfg.LineSize, 1, 1)
	if cfg.Obs != nil {
		mem.SetObs(cfg.Obs)
	}
	global := bus.New(mem.Shard(0), bus.Config{LineSize: cfg.LineSize, Arbiter: arb, Obs: cfg.Obs, ObsID: 0})

	sys := &System{Global: global, Memory: mem}
	if cfg.Shadow {
		sys.Shadow = check.NewShadow(cfg.LineSize)
	}

	for ci := 0; ci < cfg.Clusters; ci++ {
		cluster, err := newCluster(ci, cfg, sys, global, arb)
		if err != nil {
			return nil, err
		}
		sys.Clusters = append(sys.Clusters, cluster)
	}
	return sys, nil
}

func newCluster(ci int, cfg Config, sys *System, global *bus.Bus, arb *bus.Arbiter) (*Cluster, error) {
	protoName := "moesi-update"
	if len(cfg.ClusterProtocols) != 0 {
		protoName = cfg.ClusterProtocols[ci]
	}
	policyFactory := func() (core.Policy, error) {
		p, err := protocols.New(protoName)
		if err != nil {
			return nil, err
		}
		if err := validateClusterPolicy(p); err != nil {
			return nil, err
		}
		return p, nil
	}

	bridge := newBridge(ci, ci /* global master id */, global, cache.Config{
		Sets: cfg.BridgeSets, Ways: cfg.BridgeWays,
	})
	local := bus.New(bridge, bus.Config{LineSize: cfg.LineSize, Arbiter: arb, Obs: cfg.Obs, ObsID: ci + 1})
	bridge.local = local
	local.Attach(&localAgent{bridge: bridge, id: bridgeLocalID})

	cluster := &Cluster{ID: ci, Local: local, Bridge: bridge}
	var onWrite func(bus.Addr, int, uint32)
	if sys.Shadow != nil {
		onWrite = sys.Shadow.OnWrite
	}
	for pi := 0; pi < cfg.ProcsPerCluster; pi++ {
		p, err := policyFactory()
		if err != nil {
			return nil, fmt.Errorf("hierarchy: cluster %d: %w", ci, err)
		}
		c := cache.New(ci*cfg.ProcsPerCluster+pi, local, p, cache.Config{
			Sets: cfg.CacheSets, Ways: cfg.CacheWays, OnWrite: onWrite,
		})
		cluster.Caches = append(cluster.Caches, c)
	}
	return cluster, nil
}

// validateClusterPolicy enforces the cluster invariant: with the bridge
// asserting CH on every local transaction, the policy must keep every
// modification visible on the local bus. Concretely: write hits on S
// and O must broadcast (BC), write misses must be Read>Write or
// broadcast, and the read-miss action must respect CH (so lines load
// S, never E). Update-style members (moesi, moesi-update, dragon)
// qualify; invalidate-style members do not.
func validateClusterPolicy(p core.Policy) error {
	for _, s := range []core.State{core.Shared, core.Owned} {
		a, ok := p.ChooseLocal(s, core.LocalWrite)
		if !ok {
			continue // the state may be unreachable for this policy
		}
		if a.Op != core.BusWrite || !a.Assert.Has(core.SigBC) {
			return fmt.Errorf("protocol %s is not update-style: %s write is %q, need a broadcast write", p.Name(), s.Letter(), a)
		}
	}
	if a, ok := p.ChooseLocal(core.Invalid, core.LocalWrite); ok {
		if a.Op != core.BusReadThenWrite && !(a.Op == core.BusWrite && a.Assert.Has(core.SigBC)) {
			return fmt.Errorf("protocol %s write miss %q would take silent ownership; need Read>Write", p.Name(), a)
		}
	}
	if a, ok := p.ChooseLocal(core.Invalid, core.LocalRead); ok {
		if a.Next.Resolve(true) != core.Shared {
			return fmt.Errorf("protocol %s read miss %q ignores CH; the bridge's CH must pin loads to S", p.Name(), a)
		}
	}
	return nil
}

// Err surfaces any deferred bridge error (memory-port callbacks cannot
// return errors); call it after driving traffic.
func (s *System) Err() error {
	for _, cl := range s.Clusters {
		if err := cl.Bridge.takeErr(); err != nil {
			return err
		}
	}
	return nil
}
