package memory

import "futurebus/internal/bus"

// chunkLines is how many lines one chunk of a LineStore holds.
const chunkLines = 64

// LineStore is a sparse store of equal-sized lines: the lines sit in
// fixed chunks of 64, and an address index maps each stored line to its
// slot. A line's first store takes the next free slot, so storing a new
// line allocates only when a chunk fills or the index grows, and
// rewriting a stored line allocates nothing. The index is made on the
// first store, so an empty store costs no allocation. Lines are never
// removed. A LineStore is not safe for concurrent use; main memory and
// the consistency checker's golden image (check.Shadow) each guard
// theirs.
type LineStore struct {
	size   int
	index  map[bus.Addr]int32
	chunks [][]byte
}

// NewLineStore creates an empty store of lineSize-byte lines.
func NewLineStore(lineSize int) LineStore { return LineStore{size: lineSize} }

// Line returns the stored line at addr, or nil if none was stored. The
// slice is the store's own: writing through it updates the line.
func (s *LineStore) Line(addr bus.Addr) []byte {
	i, ok := s.index[addr]
	if !ok {
		return nil
	}
	return s.slot(i)
}

// Add returns the stored line at addr, storing a zeroed line there
// first if none was. The slice is the store's own, as Line's.
func (s *LineStore) Add(addr bus.Addr) []byte {
	i, ok := s.index[addr]
	if !ok {
		if s.index == nil {
			s.index = make(map[bus.Addr]int32)
		}
		i = int32(len(s.index))
		if i%chunkLines == 0 {
			s.chunks = append(s.chunks, make([]byte, chunkLines*s.size))
		}
		s.index[addr] = i
	}
	return s.slot(i)
}

// slot returns the line in slot i.
func (s *LineStore) slot(i int32) []byte {
	off := int(i%chunkLines) * s.size
	return s.chunks[i/chunkLines][off : off+s.size : off+s.size]
}

// Len returns the number of lines stored.
func (s *LineStore) Len() int { return len(s.index) }

// AppendAddrs appends the address of every stored line to dst, in no
// particular order, and returns the extended slice.
func (s *LineStore) AppendAddrs(dst []bus.Addr) []bus.Addr {
	for addr := range s.index {
		dst = append(dst, addr)
	}
	return dst
}
