// Package hierarchy implements the multi-bus extension the paper lists
// as future work: "All implications of caching standardization must be
// fully explored, including … how one might implement a system with
// multiple buses and still maintain consistency" (§6).
//
// The design is a two-level Futurebus tree. Main memory lives on a
// global bus; each cluster is a local Futurebus with processor caches
// and one Bridge. The bridge plays three roles at once:
//
//   - it is the cluster's MEMORY: local misses and write-backs terminate
//     at the bridge's line store (an ordinary cache.Cache), which
//     fetches from and announces to the global bus as needed;
//   - it is a CACHE on the global bus, holding the cluster's lines in
//     MOESI states and intervening (DI) when another cluster needs data
//     this cluster owns;
//   - it is a SNOOPER on the local bus that asserts CH on every local
//     transaction, which pins every cluster line into the S/O pair —
//     the design's key invariant: no cluster cache can ever reach E or
//     M, so every modification inside the cluster is broadcast on the
//     local bus and the bridge's copy is always current.
//
// That invariant is why cluster caches must run an update-style member
// of the class (Dragon, MOESI, MOESI-update); NewCluster validates
// this. Inter-cluster writes are invalidate-style: when a bridge
// absorbs a cluster write it takes global M ownership, which
// invalidates the other bridges' copies, and their OnSnoopChange hooks
// synchronously clear their own clusters — made deadlock-free by the
// single shared bus.Arbiter all buses in the tree use (each bus still
// accounts its own occupancy, so bandwidth scaling remains measurable).
package hierarchy

import (
	"fmt"

	"futurebus/internal/bus"
	"futurebus/internal/cache"
	"futurebus/internal/core"
	"futurebus/internal/protocols"
)

// Bridge couples one cluster's local bus to the global bus. Every
// bridge callback runs inside a transaction, under the arbiter all the
// tree's buses share, so the bridge needs no lock of its own; read
// Stats and Err on a quiesced tree.
type Bridge struct {
	clusterID int
	local     *bus.Bus // set by NewCluster after the local bus exists
	store     *cache.Cache

	stats BridgeStats
	// err records a failure inside a MemoryPort callback (the port API
	// cannot return errors); the next driver-level call surfaces it.
	err error
}

// BridgeStats counts bridge activity.
type BridgeStats struct {
	// LocalFills counts local misses served from the bridge store.
	LocalFills int64
	// GlobalFetches counts local misses that had to go to the global
	// bus.
	GlobalFetches int64
	// Absorbs counts cluster writes the bridge took global ownership
	// of.
	Absorbs int64
	// ClusterInvalidations counts foreign global events propagated
	// into the cluster.
	ClusterInvalidations int64
	// Inclusions counts evictions that had to clear cluster copies.
	Inclusions int64
}

// newBridge creates the bridge and its global-side line store.
func newBridge(clusterID, globalID int, global *bus.Bus, storeCfg cache.Config) *Bridge {
	b := &Bridge{clusterID: clusterID}
	storeCfg.OnSnoopChange = b.onGlobalSnoop
	storeCfg.OnEvict = b.onStoreEvict
	// The bridge's global protocol is invalidate-style: absorbing a
	// cluster write claims M, which clears the line from every other
	// cluster in one column-6 transaction.
	b.store = cache.New(globalID, global, protocols.MOESIInvalidate(), storeCfg)
	return b
}

// Store exposes the bridge's global-side cache (for checkers and
// stats).
func (b *Bridge) Store() *cache.Cache { return b.store }

// Stats returns a snapshot of the bridge counters.
func (b *Bridge) Stats() BridgeStats { return b.stats }

// takeErr returns and clears a deferred port error.
func (b *Bridge) takeErr() error {
	err := b.err
	b.err = nil
	return err
}

func (b *Bridge) setErr(err error) {
	if b.err == nil {
		b.err = err
	}
}

// --- local-bus memory port -------------------------------------------

var _ bus.MemoryPort = (*Bridge)(nil)

// ReadLine implements bus.MemoryPort for the local bus: a local miss
// with no cluster owner terminates here, the store's copy landing in
// the local master's buffer. The bus (and therefore the shared arbiter)
// is held, so a global fetch nests safely.
func (b *Bridge) ReadLine(addr bus.Addr, dst []byte) {
	if b.store.Contains(addr) {
		b.stats.LocalFills++
	} else {
		b.stats.GlobalFetches++
	}
	if err := b.store.FetchLineHeld(addr, dst); err != nil {
		b.setErr(fmt.Errorf("hierarchy: cluster %d fetch of %#x: %w", b.clusterID, uint64(addr), err))
		clear(dst)
	}
}

// WriteLine implements bus.MemoryPort for the local bus: cluster
// write-backs and the memory half of cluster broadcast writes arrive
// here. The bridge absorbs the line as global Modified owner, which
// announces the write to the other clusters (invalidate-style).
func (b *Bridge) WriteLine(addr bus.Addr, data []byte) {
	b.stats.Absorbs++
	if err := b.store.AbsorbLineHeld(addr, data); err != nil {
		b.setErr(fmt.Errorf("hierarchy: cluster %d absorb of %#x: %w", b.clusterID, uint64(addr), err))
	}
}

// --- local-bus snooper ------------------------------------------------

var _ bus.Snooper = (*localAgent)(nil)

// localAgent is the bridge's snooping presence on the local bus. It
// asserts CH on every transaction — the bridge conceptually retains a
// copy of everything, and the assertion pins cluster caches into the
// S/O pair (no cluster E, no cluster M, no silent writes).
type localAgent struct {
	bridge *Bridge
	id     int
}

func (a *localAgent) SnooperID() int { return a.id }

func (a *localAgent) Query(tx *bus.Transaction) bus.SnoopResponse {
	return bus.SnoopResponse{
		Action: core.SnoopAction{Next: core.Uncond(core.Shared), AssertCH: true},
		Hit:    false, // no directory line of its own to commit
	}
}

func (a *localAgent) Commit(tx *bus.Transaction, resp bus.SnoopResponse, otherCH bool) {}

func (a *localAgent) Cancel(tx *bus.Transaction, resp bus.SnoopResponse) {}

// --- global-side hooks -------------------------------------------------

// onGlobalSnoop runs when a foreign global transaction changed the
// bridge store's line (bus held): the cluster's copies are now stale or
// superseded, so clear them synchronously with a local column-6
// address-only invalidate.
func (b *Bridge) onGlobalSnoop(addr bus.Addr, from, to core.State, dataChanged bool) {
	if to != core.Invalid && !dataChanged {
		// Pure demotion (e.g. M→O on a foreign read): the cluster's
		// copies are still current; nothing to do.
		return
	}
	if err := b.invalidateCluster(addr); err != nil {
		b.setErr(err)
	}
}

// onStoreEvict maintains inclusion: before the store drops a line,
// clear the cluster's copies (their backing entry is going away).
func (b *Bridge) onStoreEvict(addr bus.Addr) error {
	b.stats.Inclusions++
	return b.invalidateCluster(addr)
}

// invalidateCluster issues an address-only column-6 invalidate on the
// local bus (the shared arbiter is held by the enclosing transaction).
func (b *Bridge) invalidateCluster(addr bus.Addr) error {
	b.stats.ClusterInvalidations++
	_, err := b.local.ExecuteHeld(bus.Transaction{
		MasterID: bridgeLocalID,
		Signals:  core.SigCA | core.SigIM,
		Op:       core.BusAddrOnly,
		Addr:     addr,
	})
	if err != nil {
		return fmt.Errorf("hierarchy: cluster %d invalidate of %#x: %w", b.clusterID, uint64(addr), err)
	}
	return nil
}

// bridgeLocalID is the bridge's master id on every local bus (its
// localAgent's id), distinct from every cluster cache: those take the
// ids 0..n-1 of the tree's n caches.
const bridgeLocalID = 1 << 16
