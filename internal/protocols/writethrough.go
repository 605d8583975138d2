package protocols

import "futurebus/internal/core"

// WriteThroughConfig selects the optional behaviours Table 1 offers a
// write-through cache.
type WriteThroughConfig struct {
	// Broadcast: writes assert BC (column 10 — holders may update
	// themselves) instead of plain IM writes (column 9 — holders must
	// invalidate).
	Broadcast bool
	// Allocate: write misses load the line first ("Read>Write",
	// Table 1's starred alternative) instead of writing past the cache.
	Allocate bool
}

// WriteThrough returns a write-through cache policy (the "*" rows of
// Table 1). Its two states are V (valid) and I; §3.3 equates V with S —
// a write-through cache is not capable of ownership, so it can never
// intervene and must invalidate on any non-broadcast write it snoops
// (§3.3 point 8).
func WriteThrough(cfg WriteThroughConfig) core.Policy {
	i := 0
	if cfg.Broadcast {
		i |= 1
	}
	if cfg.Allocate {
		i |= 2
	}
	return writeThroughs[i]()
}

// writeThroughs holds the shared policy of each WriteThroughConfig,
// indexed Broadcast | Allocate<<1.
var writeThroughs = func() (out [4]func() core.Policy) {
	for i := range out {
		cfg := WriteThroughConfig{Broadcast: i&1 != 0, Allocate: i&2 != 0}
		out[i] = shared(func() core.Policy { return newWriteThrough(cfg) })
	}
	return out
}()

func newWriteThrough(cfg WriteThroughConfig) core.Policy {
	name := "write-through"
	writeHit, writeMiss := "S,IM,W", "I,IM,W"
	if cfg.Broadcast {
		name += "-broadcast"
		writeHit, writeMiss = "S,IM,BC,W", "I,IM,BC,W"
	}
	if cfg.Allocate {
		name += "-allocate"
		writeMiss = "Read>Write"
	}
	snoopWrite := "I"
	if cfg.Broadcast {
		// An update-style WT cache keeps its copy live on broadcast
		// writes; the class permits either.
		snoopWrite = "S,CH,SL"
	}
	states := []core.State{core.Shared, core.Invalid}
	t := core.TableFromCells(name, states, core.LocalEvents[:], core.BusEvents[:],
		[][]string{
			{"S", writeHit, "-", "I"},
			{"S,CA,R", writeMiss, "-", "-"},
		},
		[][]string{
			{"S,CH", "I", "S,CH", snoopWrite, "I", snoopWrite},
			{"I", "I", "I", "I", "I", "I"},
		})
	return NewPreferred(name, core.WriteThrough, mustInClass(t, core.WriteThrough))
}

// NonCaching returns the "**" rows of Table 1 as a policy: a processor
// without a cache. Reads fetch without retaining ("I,R", column 7),
// writes go past (column 9, or 10 with broadcast), and since it holds no
// line it never responds (§3.3). A cache running it is a non-caching bus
// master — sim's "uncached" and "uncached-broadcast" boards, an I/O
// processor or DMA engine — and as a cache.Region it makes an address
// range of a caching board uncacheable (§3.4). Each variant is compiled
// once and shared, like WriteThrough's.
func NonCaching(broadcast bool) core.Policy {
	if broadcast {
		return nonCachings[1]()
	}
	return nonCachings[0]()
}

// nonCachings holds the shared policy of each NonCaching variant,
// indexed by broadcast.
var nonCachings = [2]func() core.Policy{
	shared(func() core.Policy { return newNonCaching(false) }),
	shared(func() core.Policy { return newNonCaching(true) }),
}

func newNonCaching(broadcast bool) core.Policy {
	t := NonCachingTable(broadcast)
	return NewPreferred(t.Name, core.NonCaching, t)
}

// NonCachingTable returns the "**" rows of Table 1 as a fresh, mutable
// table: the one row NonCaching runs, also used for class validation and
// table regeneration.
func NonCachingTable(broadcast bool) *core.Table {
	write := "I,IM,W"
	name := "non-caching"
	if broadcast {
		write = "I,IM,BC,W"
		name = "non-caching-broadcast"
	}
	states := []core.State{core.Invalid}
	return core.TableFromCells(name, states, core.LocalEvents[:], nil,
		[][]string{{"I,R", write, "-", "-"}},
		[][]string{{}})
}
