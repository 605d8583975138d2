package obs

import "unsafe"

// MaxID bounds the bus and proc ids of the state events an analyzer
// keeps per-line state for: a line's per-proc slots and the monitor's
// per-bus protocol rows are dense, indexed by these ids. The simulator
// gives its caches and bus segments ids below it (sim.New and
// sim.NewTree refuse a system whose ids would reach it); only a tree
// bridge's local agent, at 1<<16, is larger, and it appears on
// transaction and grant events, never on a state event. A state event
// from a trace that names a larger or negative id is counted as
// truncated and gets no per-line storage, so no input can make an
// analyzer allocate in proportion to an id.
const MaxID = 1 << 10

// lineChunk is how many lines one chunk of a LineTable holds.
const lineChunk = 64

// LineTable is per-line analyzer state, keyed as both analyzers key a
// line: by bus and address. In a hierarchy one address has a line on
// every bus that caches it, and only the bus tells those copies apart;
// on a single bus or a sharded fabric an address always carries the
// same bus. The lines sit in fixed chunks of 64, made on first use,
// and an index maps each address to its newest line, whose lines on
// other buses chain from it, so a lookup hashes the address alone. A
// line's first Add takes the next free slot: adding a line allocates
// only when a chunk fills or the index grows. Lines are never removed
// and never move, so their pointers stay valid. The zero value is an
// empty table. A LineTable is not safe for concurrent use.
type LineTable[T any] struct {
	index  map[uint64]int32
	chunks []*[lineChunk]lineSlot[T]
	n      int32
	// last memoizes the latest lookup: consecutive events usually
	// touch the same line.
	last *lineSlot[T]
}

type lineSlot[T any] struct {
	addr uint64
	bus  int32
	next int32 // slot of the address's line on another bus, -1 = none
	val  T
}

func (t *LineTable[T]) slot(i int32) *lineSlot[T] { return &t.chunks[i/lineChunk][i%lineChunk] }

// find looks (bus, addr) up in the index, past the memo.
func (t *LineTable[T]) find(bus int32, addr uint64) *lineSlot[T] {
	i, ok := t.index[addr]
	for ok {
		s := t.slot(i)
		if s.bus == bus {
			t.last = s
			return s
		}
		i, ok = s.next, s.next >= 0
	}
	return nil
}

// Get returns line (bus, addr), or nil if the table holds none.
func (t *LineTable[T]) Get(bus int32, addr uint64) *T {
	if s := t.last; s != nil && s.addr == addr && s.bus == bus {
		return &s.val
	}
	if s := t.find(bus, addr); s != nil {
		return &s.val
	}
	return nil
}

// Add returns line (bus, addr). A line the table lacks is added, zeroed,
// if the table holds fewer than limit lines, and added reports it; at
// the limit Add returns nil.
func (t *LineTable[T]) Add(bus int32, addr uint64, limit int) (v *T, added bool) {
	if s := t.last; s != nil && s.addr == addr && s.bus == bus {
		return &s.val, false
	}
	return t.add(bus, addr, limit)
}

func (t *LineTable[T]) add(bus int32, addr uint64, limit int) (*T, bool) {
	if s := t.find(bus, addr); s != nil {
		return &s.val, false
	}
	if int(t.n) >= limit {
		return nil, false
	}
	if t.index == nil {
		t.index = make(map[uint64]int32)
	}
	i := t.n
	if i%lineChunk == 0 {
		t.chunks = append(t.chunks, new([lineChunk]lineSlot[T]))
	}
	t.n++
	s := t.slot(i)
	s.addr, s.bus, s.next = addr, bus, -1
	if first, ok := t.index[addr]; ok {
		s.next = first
	}
	t.index[addr] = i
	t.last = s
	return &s.val, true
}

// Len returns the number of lines.
func (t *LineTable[T]) Len() int { return int(t.n) }

// Each calls fn with every line, in the order they were added.
func (t *LineTable[T]) Each(fn func(bus int32, addr uint64, v *T)) {
	for i := int32(0); i < t.n; i++ {
		s := t.slot(i)
		fn(s.bus, s.addr, &s.val)
	}
}

// An Arena chunk holds arenaSlices slices of the length asked for, or
// as many as fit in arenaBytes if that is fewer, and at least one.
const (
	arenaSlices = 64
	arenaBytes  = 64 << 10
)

// Arena carves short slices of T — a line's per-proc slots, its context
// ring, a block of its ownership chain — out of chunks made on first
// use. Each slice is carved with its capacity equal to its length
// (s[i:j:j]), so an append to one never runs into its neighbour's
// storage. Slices are never given back. The zero value is ready to use;
// an Arena is not safe for concurrent use.
type Arena[T any] struct{ free []T }

// Make returns a zeroed slice of n elements, with capacity n.
func (a *Arena[T]) Make(n int) []T {
	if n > len(a.free) {
		var zero T
		size := max(int(unsafe.Sizeof(zero))*n, 1)
		a.free = make([]T, n*max(1, min(arenaSlices, arenaBytes/size)))
	}
	s := a.free[:n:n]
	a.free = a.free[n:]
	return s
}
