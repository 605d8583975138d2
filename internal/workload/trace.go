package workload

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
)

// Ref is one memory reference by one processor: a 32-bit word within a
// line of the shared address space.
type Ref struct {
	// Line is the line address.
	Line uint64
	// Word is the word index within the line.
	Word int
	// Write: true for a store, false for a load.
	Write bool
	// Val is the stored value (ignored for loads).
	Val uint32
}

func (r Ref) String() string {
	if r.Write {
		return fmt.Sprintf("W %#x.%d=%#x", r.Line, r.Word, r.Val)
	}
	return fmt.Sprintf("R %#x.%d", r.Line, r.Word)
}

// Generator produces one processor's reference stream.
type Generator interface {
	// Next returns the processor's next reference.
	Next() Ref
}

// Trace is a recorded reference stream.
type Trace []Ref

// Replay returns a Generator that cycles through the trace.
type Replay struct {
	trace Trace
	pos   int
}

// NewReplay wraps a recorded trace; it repeats from the start when
// exhausted.
func NewReplay(t Trace) *Replay { return &Replay{trace: t} }

// Next implements Generator.
func (r *Replay) Next() Ref {
	if len(r.trace) == 0 {
		panic("workload: replay of empty trace")
	}
	ref := r.trace[r.pos]
	r.pos = (r.pos + 1) % len(r.trace)
	return ref
}

// Record captures n references from a generator into a Trace.
func Record(g Generator, n int) Trace {
	t := make(Trace, n)
	for i := range t {
		t[i] = g.Next()
	}
	return t
}

// traceMagic guards the binary trace encoding.
const traceMagic = uint32(0x4d4f4553) // "MOES"

// WriteTo serialises the trace in a compact binary format.
func (t Trace) WriteTo(w io.Writer) (int64, error) {
	bw := bufio.NewWriter(w)
	var n int64
	write := func(v any) error {
		if err := binary.Write(bw, binary.LittleEndian, v); err != nil {
			return err
		}
		n += int64(binary.Size(v))
		return nil
	}
	if err := write(traceMagic); err != nil {
		return n, err
	}
	if err := write(uint64(len(t))); err != nil {
		return n, err
	}
	for _, r := range t {
		flags := uint32(r.Word) << 1
		if r.Write {
			flags |= 1
		}
		if err := write(r.Line); err != nil {
			return n, err
		}
		if err := write(flags); err != nil {
			return n, err
		}
		if err := write(r.Val); err != nil {
			return n, err
		}
	}
	return n, bw.Flush()
}

// ReadTrace deserialises a trace written by WriteTo. The trace grows as
// references arrive, so a header that claims more references than the
// input holds fails at the first missing one, having allocated only for
// those read.
func ReadTrace(r io.Reader) (Trace, error) {
	br := bufio.NewReader(r)
	buf := make([]byte, 16) // one reference: line, flags, value
	if _, err := io.ReadFull(br, buf[:4]); err != nil {
		return nil, fmt.Errorf("workload: reading trace header: %w", err)
	}
	if magic := binary.LittleEndian.Uint32(buf); magic != traceMagic {
		return nil, fmt.Errorf("workload: bad trace magic %#x", magic)
	}
	if _, err := io.ReadFull(br, buf[:8]); err != nil {
		return nil, fmt.Errorf("workload: reading trace length: %w", err)
	}
	count := binary.LittleEndian.Uint64(buf)
	const maxTrace = 1 << 28
	if count > maxTrace {
		return nil, fmt.Errorf("workload: trace length %d exceeds limit", count)
	}
	t := make(Trace, 0, min(count, 1024))
	for i := uint64(0); i < count; i++ {
		if _, err := io.ReadFull(br, buf); err != nil {
			return nil, fmt.Errorf("workload: ref %d: %w", i, err)
		}
		flags := binary.LittleEndian.Uint32(buf[8:])
		t = append(t, Ref{
			Line:  binary.LittleEndian.Uint64(buf),
			Word:  int(flags >> 1),
			Write: flags&1 != 0,
			Val:   binary.LittleEndian.Uint32(buf[12:]),
		})
	}
	return t, nil
}
