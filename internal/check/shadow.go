// Package check verifies the consistency criterion of the paper at
// runtime: the shared memory image — "the union of all valid data
// corresponding to every location of the system address space", equally
// "the set of all owned data; main memory is the default owner"
// (§3.1.1, §3.1.3) — must be single-valued and must equal what the
// program actually wrote.
package check

import (
	"encoding/binary"
	"sync"

	"futurebus/internal/bus"
	"futurebus/internal/memory"
)

// Shadow maintains the golden image: the value every line should have
// according to the writes the processors performed, applied in their
// global visibility order. Caches and uncached masters report each
// write through their OnWrite hooks at the moment it becomes visible
// (under the writer's directory lock or the bus), which is exactly the
// order the protocols serialise writes in.
//
// The image is striped by line address: each stripe has its own lock
// and line store, so boards writing different lines from the concurrent
// engine's goroutines rarely meet. All writes of one line land in one
// stripe, in the order their OnWrite calls take its lock.
type Shadow struct {
	lineSize int
	stripes  [shadowStripes]shadowStripe
}

// A Shadow has shadowStripes stripes; the top stripeBits bits of a
// line address's hash pick the line's stripe.
const (
	stripeBits    = 4
	shadowStripes = 1 << stripeBits
)

// shadowStripe is one stripe of the golden image.
type shadowStripe struct {
	mu     sync.Mutex
	lines  memory.LineStore
	writes int64
}

// NewShadow creates a golden image for the given line size. Lines start
// zeroed, matching main memory at power-on.
func NewShadow(lineSize int) *Shadow {
	s := &Shadow{lineSize: lineSize}
	for i := range s.stripes {
		s.stripes[i].lines = memory.NewLineStore(lineSize)
	}
	return s
}

// stripe returns the stripe that holds addr: the top bits of a
// Fibonacci hash of the line address pick it.
func (s *Shadow) stripe(addr bus.Addr) *shadowStripe {
	return &s.stripes[uint64(addr)*0x9e3779b97f4a7c15>>(64-stripeBits)]
}

// OnWrite records one word store; it has the signature cache.Config's
// OnWrite hook expects.
func (s *Shadow) OnWrite(addr bus.Addr, wordIdx int, val uint32) {
	st := s.stripe(addr)
	st.mu.Lock()
	binary.LittleEndian.PutUint32(st.lines.Add(addr)[wordIdx*4:], val)
	st.writes++
	st.mu.Unlock()
}

// Line returns the golden value of a line (zeroes if never written).
func (s *Shadow) Line(addr bus.Addr) []byte {
	out := make([]byte, s.lineSize)
	st := s.stripe(addr)
	st.mu.Lock()
	copy(out, st.lines.Line(addr))
	st.mu.Unlock()
	return out
}

// Lines returns the set of line addresses ever written, in no
// particular order.
func (s *Shadow) Lines() []bus.Addr {
	var out []bus.Addr
	for i := range s.stripes {
		st := &s.stripes[i]
		st.mu.Lock()
		out = st.lines.AppendAddrs(out)
		st.mu.Unlock()
	}
	return out
}

// Writes returns the total number of stores recorded.
func (s *Shadow) Writes() int64 {
	var n int64
	for i := range s.stripes {
		st := &s.stripes[i]
		st.mu.Lock()
		n += st.writes
		st.mu.Unlock()
	}
	return n
}
