package core

import "strings"

// Invariant is one of the §3.1 consistency invariants a line can
// breach. Invariants are bits, so one value is also a set of them.
type Invariant uint8

const (
	// UniqueOwner — §3.1.3: at most one cache owns (M or O) a line.
	UniqueOwner Invariant = 1 << iota
	// RealExclusivity — §3.1.2: an exclusive copy (M or E) is the only
	// cached copy.
	RealExclusivity
	// MemoryOwner — §3.1.3: memory, the default owner, holds the image
	// of a line no cache owns. On the Futurebus broadcast writes update
	// memory, which makes this hold for update protocols too (§4.2).
	MemoryOwner
	// EMatchesMemory — §3.1.2: an E copy matches memory.
	EMatchesMemory
	// SingleImage — §3.1.1: the image is single-valued, so every valid
	// copy holds it.
	SingleImage
)

// invariantNames names each invariant by its section, in bit order.
var invariantNames = [...]string{
	"§3.1.3 unique owner",
	"§3.1.2 real exclusivity",
	"§3.1.3 memory owns an unowned line",
	"§3.1.2 E matches memory",
	"§3.1.1 single-valued image",
}

// Has reports whether the set s holds inv.
func (s Invariant) Has(inv Invariant) bool { return s&inv != 0 }

// String names every invariant of the set, joined by ", ".
func (s Invariant) String() string {
	var names []string
	for i, name := range invariantNames {
		if s.Has(1 << i) {
			names = append(names, name)
		}
	}
	return strings.Join(names, ", ")
}

// Copies summarises one line across a system's caches: its valid
// copies, how many are owned (M or O), exclusive (M or E) and E, how
// many are stale — differ from the line's image — and whether memory
// is. A checker that sees no data leaves Stale and MemStale zero. A
// count above 2 decides what 2 does, so the (0, 1, many) domain covers
// every summary.
type Copies struct {
	Valid, Owned, Exclusive, E, Stale int
	MemStale                          bool
}

// Add counts one copy in state s; stale says it differs from the
// line's image. An invalid copy counts for nothing.
func (c *Copies) Add(s State, stale bool) {
	if !s.Valid() {
		return
	}
	c.Valid++
	if s.OwnedCopy() {
		c.Owned++
	}
	if s.ExclusiveCopy() {
		c.Exclusive++
	}
	if s == Exclusive {
		c.E++
	}
	if stale {
		c.Stale++
	}
}

// Breaches returns the set of §3.1 invariants the line breaches: the
// one statement of the consistency criterion every checker asks.
func (c Copies) Breaches() Invariant {
	var s Invariant
	if c.Owned > 1 {
		s |= UniqueOwner
	}
	if c.Exclusive > 0 && c.Valid > 1 {
		s |= RealExclusivity
	}
	if c.Owned == 0 && c.MemStale {
		s |= MemoryOwner
	}
	if c.E > 0 && c.MemStale {
		s |= EMatchesMemory
	}
	if c.Stale > 0 {
		s |= SingleImage
	}
	return s
}
