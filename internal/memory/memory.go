// Package memory implements the shared main-memory module of a
// Futurebus system. Memory is the default owner of every line of the
// address space (§3.1.3 of the paper), but it keeps no consistency
// state: "shared memory modules will not need to distinguish valid data
// from invalid data; instead, caches associated with each master will
// keep track of the invalidity of the data that resides in shared
// memory" (§3.1.1). Memory is preempted by an intervening owner (DI)
// and connects (SL) on broadcast writes and write-backs; the bus routes
// those cases, so the module itself is a plain line store.
package memory

import (
	"fmt"
	"sync"

	"futurebus/internal/bus"
	"futurebus/internal/obs"
)

// Memory is a sparse main-memory module. Lines never written read as
// zero — "in the absence of information to the contrary, data in shared
// memory is defined to be valid (e.g. at power-on)" (§3.1.1).
type Memory struct {
	lineSize int
	rec      *obs.Recorder

	mu    sync.Mutex
	lines LineStore
	stats Stats
}

// Stats counts memory-port traffic.
type Stats struct {
	// Reads counts lines supplied to the bus.
	Reads int64
	// Writes counts lines accepted from the bus (broadcast writes,
	// write-backs, and uncached writes not captured by an owner).
	Writes int64
}

// New creates a memory module for the given line size.
func New(lineSize int) *Memory {
	if lineSize <= 0 {
		panic(fmt.Sprintf("memory: invalid line size %d", lineSize))
	}
	return &Memory{lineSize: lineSize, lines: NewLineStore(lineSize)}
}

// LineSize returns the module's line size in bytes.
func (m *Memory) LineSize() int { return m.lineSize }

// SetObs attaches an observability recorder: every line supplied to or
// accepted from a bus is emitted as a memread/memwrite event. Set it
// at configuration time, before traffic starts.
func (m *Memory) SetObs(rec *obs.Recorder) { m.rec = rec }

// ReadLine implements bus.MemoryPort: the line is copied straight into
// the caller's buffer.
func (m *Memory) ReadLine(addr bus.Addr, dst []byte) {
	if len(dst) != m.lineSize {
		panic(fmt.Sprintf("memory: read into %d bytes, line size %d", len(dst), m.lineSize))
	}
	if rec := m.rec; rec != nil {
		rec.Emit(&obs.Event{TS: rec.Clock(), Kind: obs.KindMemRead, Bus: -1, Proc: -1, Addr: uint64(addr), Bytes: int32(m.lineSize)})
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	m.stats.Reads++
	if line := m.lines.Line(addr); line != nil {
		copy(dst, line)
	} else {
		clear(dst)
	}
}

// WriteLine implements bus.MemoryPort. A line already stored is updated
// in place; a new line takes the next slot of the module's line store.
func (m *Memory) WriteLine(addr bus.Addr, data []byte) {
	if len(data) != m.lineSize {
		panic(fmt.Sprintf("memory: write of %d bytes, line size %d", len(data), m.lineSize))
	}
	if rec := m.rec; rec != nil {
		rec.Emit(&obs.Event{TS: rec.Clock(), Kind: obs.KindMemWrite, Bus: -1, Proc: -1, Addr: uint64(addr), Bytes: int32(m.lineSize)})
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	m.stats.Writes++
	copy(m.lines.Add(addr), data)
}

// Peek returns memory's current copy of a line without counting a read
// (used by the consistency checker).
func (m *Memory) Peek(addr bus.Addr) []byte {
	out := make([]byte, m.lineSize)
	m.mu.Lock()
	copy(out, m.lines.Line(addr))
	m.mu.Unlock()
	return out
}

// Stats returns a snapshot of the counters.
func (m *Memory) Stats() Stats {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.stats
}
