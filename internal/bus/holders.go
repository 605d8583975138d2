package bus

import "math/bits"

// This file is the holder record: each bus shard's exact account of
// which attached caches hold each line homed on it. Table 2's Invalid
// row is all "I" — a unit that does not hold the snooped line neither
// responds nor changes state — so an address cycle need only query the
// line's holders, plus every snooper that keeps no record (one that
// does not implement Holder, such as a bridge's local agent).

// Holder is a Snooper that reports its lines to the bus: it calls
// Note on the Presence handle Bus.Presence gives it on every
// valid↔invalid transition of a line homed on the shard, always under
// that line's shard tenure. The bus then skips it on address cycles for
// lines it does not hold.
type Holder interface {
	Snooper
	// HeldLines is the most lines the snooper can hold at once on one
	// shard. Attach sizes the record by it, once.
	HeldLines() int
}

// maxHolders is how many snoopers a shard's record tracks: one bit of
// a holder mask each. Snoopers attached past it are queried on every
// address cycle.
const maxHolders = 64

// holderTable maps a line to the mask of its holders (bit i is the
// snooper attached i-th) by open addressing with linear probing. Every
// entry is a line some holder holds, so the entries never outnumber the
// holders' combined HeldLines. Each holder brings its share of slots,
// twice its HeldLines, when it attaches: the table is the chain of
// those chunks, so it is sized exactly once every holder has attached,
// no earlier chunk is ever given up, and nothing grows during a run.
type holderTable struct {
	chunks []*[chunkSlots]holderSlot
	// size is the slot count, len(chunks) × chunkSlots; lines is how
	// many of the slots hold a line.
	size  uint64
	lines int
}

// chunkSlots is the slot count of one chunk.
const chunkSlots = 64

// holderSlot is one table entry; held == 0 marks it empty.
type holderSlot struct {
	addr Addr
	held uint64
}

// home is addr's first probe slot: a Fibonacci hash, scaled to size.
func (t *holderTable) home(addr Addr) uint64 {
	hi, _ := bits.Mul64(uint64(addr)*0x9e3779b97f4a7c15, t.size)
	return hi
}

func (t *holderTable) slot(i uint64) *holderSlot { return &t.chunks[i/chunkSlots][i%chunkSlots] }

// next is the slot after i, wrapping at the end of the table.
func (t *holderTable) next(i uint64) uint64 {
	if i+1 == t.size {
		return 0
	}
	return i + 1
}

// dist is the probe distance from slot i forward to slot j.
func (t *holderTable) dist(i, j uint64) uint64 {
	if j >= i {
		return j - i
	}
	return j + t.size - i
}

// reserve adds the slots for a holder of the given lines. The recorded
// lines, if any, are hashed again over the larger table. Configuration
// time only.
func (t *holderTable) reserve(lines int) {
	n := (2*lines + chunkSlots - 1) / chunkSlots
	if n == 0 {
		return
	}
	var recorded []holderSlot
	for _, c := range t.chunks {
		if len(recorded) == t.lines {
			break
		}
		for i := range c {
			if c[i].held != 0 {
				recorded = append(recorded, c[i])
				c[i] = holderSlot{}
			}
		}
	}
	t.lines = 0
	slab := make([]holderSlot, n*chunkSlots)
	chunks := make([]*[chunkSlots]holderSlot, len(t.chunks), len(t.chunks)+n)
	copy(chunks, t.chunks)
	for i := 0; i < n; i++ {
		chunks = append(chunks, (*[chunkSlots]holderSlot)(slab[i*chunkSlots:]))
	}
	t.chunks = chunks
	t.size = uint64(len(t.chunks)) * chunkSlots
	for _, s := range recorded {
		t.add(s.addr, s.held)
	}
}

// lookup returns the mask of addr's holders.
func (t *holderTable) lookup(addr Addr) uint64 {
	if t.size == 0 {
		return 0
	}
	for i := t.home(addr); ; i = t.next(i) {
		s := t.slot(i)
		if s.held == 0 {
			return 0
		}
		if s.addr == addr {
			return s.held
		}
	}
}

// add records the holders in mask as holding addr.
func (t *holderTable) add(addr Addr, mask uint64) {
	for i := t.home(addr); ; i = t.next(i) {
		s := t.slot(i)
		if s.held == 0 {
			s.addr, s.held = addr, mask
			t.lines++
			return
		}
		if s.addr == addr {
			s.held |= mask
			return
		}
	}
}

// remove records that the holder bit no longer holds addr, freeing the
// entry when no holder is left. The freed slot is refilled by shifting
// later entries of its probe chain back, so no lookup ever stops short.
func (t *holderTable) remove(addr Addr, bit uint64) {
	i := t.home(addr)
	for ; t.slot(i).held != 0; i = t.next(i) {
		if t.slot(i).addr == addr {
			break
		}
	}
	s := t.slot(i)
	if s.held == 0 {
		return
	}
	s.held &^= bit
	if s.held != 0 {
		return
	}
	t.lines--
	for j := t.next(i); t.slot(j).held != 0; j = t.next(j) {
		// The entry at j may move into the hole at i unless its home
		// lies after i on the way to j.
		if t.dist(t.home(t.slot(j).addr), j) >= t.dist(i, j) {
			*t.slot(i) = *t.slot(j)
			i = j
		}
	}
	*t.slot(i) = holderSlot{}
}

// Presence is a holder's handle on one bus shard's holder record. The
// zero Presence records nothing: the snooper is queried on every
// address cycle.
type Presence struct {
	t   *holderTable
	bit uint64
}

// Note records that the holder now holds addr (held) or no longer does.
// Callers hold addr's shard tenure.
func (p Presence) Note(addr Addr, held bool) {
	switch {
	case p.t == nil:
	case held:
		p.t.add(addr, p.bit)
	default:
		p.t.remove(addr, p.bit)
	}
}

// Presence returns the handle an attached Holder keeps this shard's
// record with, or the zero Presence for any other snooper.
func (b *Bus) Presence(s Snooper) Presence {
	id := s.SnooperID()
	for i, x := range b.snoopers {
		if x.id == id && b.tracked&(1<<i) != 0 {
			return Presence{t: &b.holders, bit: 1 << i}
		}
	}
	return Presence{}
}

// HeldBy returns the ids of the holders the record names for addr, in
// attach order — the exact set of attached Holders whose directory
// holds the line. For checks and tests.
func (b *Bus) HeldBy(addr Addr) []int {
	var ids []int
	for mask := b.holders.lookup(addr); mask != 0; mask &= mask - 1 {
		ids = append(ids, b.snoopers[bits.TrailingZeros64(mask)].id)
	}
	return ids
}

// snoopSet lists, in attach order, the snoopers an address cycle for
// addr queries: the line's holders, every snooper that keeps no record,
// and never self, the master's own index (-1 when it does not snoop).
// The list lives in the frame until its next address cycle.
func (b *Bus) snoopSet(f *frame, addr Addr, self int) []int {
	mask := b.always | b.holders.lookup(addr)
	if self >= 0 && self < maxHolders {
		mask &^= 1 << self
	}
	v := f.visit[:0]
	for ; mask != 0; mask &= mask - 1 {
		v = append(v, bits.TrailingZeros64(mask))
	}
	for i := maxHolders; i < len(b.snoopers); i++ {
		if i != self {
			v = append(v, i)
		}
	}
	f.visit = v
	return v
}
