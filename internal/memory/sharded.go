package memory

import (
	"fmt"

	"futurebus/internal/bus"
	"futurebus/internal/obs"
)

// Add accumulates other into s (per-shard merge).
func (s *Stats) Add(other Stats) {
	s.Reads += other.Reads
	s.Writes += other.Writes
}

// Sharded is main memory split into independent modules, one per
// fabric shard. Each module attaches to its own bus shard as a plain
// MemoryPort; the wrapper routes whole-address-space operations (Peek,
// Stats) with the same home-shard rule the fabric uses:
// shard(addr) = (addr / granularity) mod shards.
//
// A one-shard Sharded is just a Memory with a routing veneer, so the
// sim layer always builds one and stays shape-agnostic.
type Sharded struct {
	mods []*Memory
	gran uint64
}

// NewSharded creates shards modules of the given line size with the
// given interleave granularity in lines (0 means 1).
func NewSharded(lineSize, shards, granularity int) *Sharded {
	if shards < 1 {
		panic(fmt.Sprintf("memory: invalid shard count %d", shards))
	}
	if granularity <= 0 {
		granularity = 1
	}
	s := &Sharded{gran: uint64(granularity)}
	for i := 0; i < shards; i++ {
		s.mods = append(s.mods, New(lineSize))
	}
	return s
}

// Shards returns the number of modules.
func (s *Sharded) Shards() int { return len(s.mods) }

// Shard returns module i.
func (s *Sharded) Shard(i int) *Memory { return s.mods[i] }

// Ports returns the modules as bus memory ports, in shard order, ready
// to hand to bus.NewInterleaved.
func (s *Sharded) Ports() []bus.MemoryPort {
	ports := make([]bus.MemoryPort, len(s.mods))
	for i, m := range s.mods {
		ports[i] = m
	}
	return ports
}

// home returns the module owning addr.
func (s *Sharded) home(addr bus.Addr) *Memory {
	return s.mods[(uint64(addr)/s.gran)%uint64(len(s.mods))]
}

// LineSize returns the line size in bytes.
func (s *Sharded) LineSize() int { return s.mods[0].LineSize() }

// SetObs attaches a recorder to every module. Configuration time only.
func (s *Sharded) SetObs(rec *obs.Recorder) {
	for _, m := range s.mods {
		m.SetObs(rec)
	}
}

// Peek returns memory's current copy of a line without counting a read
// (used by the consistency checker).
func (s *Sharded) Peek(addr bus.Addr) []byte { return s.home(addr).Peek(addr) }

// WriteLine stores a line directly in the owning module (test and
// golden-image setup; bus traffic goes through the per-shard ports).
func (s *Sharded) WriteLine(addr bus.Addr, data []byte) { s.home(addr).WriteLine(addr, data) }

// Stats returns the counters summed over all modules.
func (s *Sharded) Stats() Stats {
	var total Stats
	for _, m := range s.mods {
		total.Add(m.Stats())
	}
	return total
}
