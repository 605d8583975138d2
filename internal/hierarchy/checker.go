package hierarchy

import (
	"bytes"
	"fmt"

	"futurebus/internal/bus"
	"futurebus/internal/core"
)

// ClusterViolation is one breach of the cluster-level invariants.
type ClusterViolation struct {
	Cluster int
	Addr    bus.Addr
	Reason  string
}

func (v ClusterViolation) String() string {
	return fmt.Sprintf("cluster %d line %#x: %s", v.Cluster, uint64(v.Addr), v.Reason)
}

// CheckClusters verifies the intra-cluster invariants of the design on
// a quiesced system:
//
//  1. No cluster cache holds E or M — the bridge's unconditional CH
//     pins every cluster line into the S/O pair, which is what keeps
//     the bridge's copy current.
//  2. Inclusion: every line a cluster cache holds is tracked by its
//     bridge.
//  3. core's §3.1 predicate, with the bridge's copy as the cluster's
//     image: at most one cluster cache owns (O) a line, and every
//     valid cluster copy is byte-identical to the bridge's copy.
func (s *System) CheckClusters() []ClusterViolation {
	var out []ClusterViolation
	for _, cl := range s.Clusters {
		bad := func(addr bus.Addr, format string, args ...any) {
			out = append(out, ClusterViolation{Cluster: cl.ID, Addr: addr, Reason: fmt.Sprintf(format, args...)})
		}

		bridgeLines := map[bus.Addr][]byte{}
		cl.Bridge.Store().ForEachLine(func(addr bus.Addr, st core.State, data []byte) {
			bridgeLines[addr] = data
		})

		// Each cluster line's copies: the cache, its state, and whether
		// the copy differs from the bridge's.
		type clusterCopy struct {
			id    int
			state core.State
			stale bool
		}
		byLine := map[bus.Addr][]clusterCopy{}
		var addrs []bus.Addr
		for _, c := range cl.Caches {
			id := c.ID()
			c.ForEachLine(func(addr bus.Addr, st core.State, data []byte) {
				if st == core.Exclusive || st == core.Modified {
					bad(addr, "cache %d holds %s; the bridge's CH must pin cluster lines to S/O", id, st.Letter())
				}
				bline, ok := bridgeLines[addr]
				if !ok {
					bad(addr, "cache %d holds a line the bridge does not track (inclusion broken)", id)
				}
				if byLine[addr] == nil {
					addrs = append(addrs, addr)
				}
				byLine[addr] = append(byLine[addr], clusterCopy{id, st, ok && !bytes.Equal(data, bline)})
			})
		}
		for _, addr := range addrs {
			var sum core.Copies
			for _, cp := range byLine[addr] {
				sum.Add(cp.state, cp.stale)
			}
			breaches := sum.Breaches()
			if breaches.Has(core.UniqueOwner) {
				bad(addr, "multiple cluster owners")
			}
			for _, cp := range byLine[addr] {
				if breaches.Has(core.SingleImage) && cp.stale {
					bad(addr, "cache %d copy differs from the bridge's (bridge stale)", cp.id)
				}
			}
		}
	}
	return out
}

// Stats aggregates traffic over the tree for the scaling experiment.
type Stats struct {
	// GlobalTransactions and LocalTransactions split the bus work by
	// level; the hierarchy's point is that intra-cluster sharing never
	// leaves its local bus.
	GlobalTransactions int64
	LocalTransactions  int64
	GlobalBusy         int64
	MaxLocalBusy       int64
	// Fetches and Absorbs summarise bridge work.
	GlobalFetches        int64
	Absorbs              int64
	ClusterInvalidations int64
}

// CollectStats snapshots the tree's counters.
func (s *System) CollectStats() Stats {
	var out Stats
	g := s.Global.Stats()
	out.GlobalTransactions = g.Transactions
	out.GlobalBusy = g.BusyNanos
	for _, cl := range s.Clusters {
		l := cl.Local.Stats()
		out.LocalTransactions += l.Transactions
		if l.BusyNanos > out.MaxLocalBusy {
			out.MaxLocalBusy = l.BusyNanos
		}
		bs := cl.Bridge.Stats()
		out.GlobalFetches += bs.GlobalFetches
		out.Absorbs += bs.Absorbs
		out.ClusterInvalidations += bs.ClusterInvalidations
	}
	return out
}
