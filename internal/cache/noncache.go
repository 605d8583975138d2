package cache

import (
	"encoding/binary"
	"fmt"
	"sync"

	"futurebus/internal/bus"
	"futurebus/internal/core"
)

// Uncached is a bus master without a cache — an I/O processor or DMA
// engine (the "**" rows of Table 1). It never retains data and never
// responds to bus events ("a non-caching unit never responds", §3.3),
// so it is not attached as a snooper. Its reads appear to caches as
// column 7, its writes as columns 9 or 10; an owning cache intervenes
// to supply or capture the data, which is how an I/O processor sees a
// coherent memory image without participating in the protocol.
type Uncached struct {
	id  int
	bus bus.Fabric
	// broadcast selects column 10 writes (holders may update
	// themselves) over column 9 writes (holders must invalidate).
	broadcast bool
	onWrite   func(addr bus.Addr, wordIdx int, val uint32)
	// line is where this master's reads land (bus.Transaction.Data).
	// Like a cache, an uncached master serves one processor, so its
	// reads never overlap.
	line []byte

	mu    sync.Mutex
	stats UncachedStats
}

// UncachedStats counts an uncached master's traffic.
type UncachedStats struct {
	Reads, Writes int64
	StallNanos    int64
}

// NewUncached creates a non-caching bus master. The id must be unique
// among all masters on the bus.
func NewUncached(id int, b bus.Fabric, broadcast bool, onWrite func(addr bus.Addr, wordIdx int, val uint32)) *Uncached {
	return &Uncached{id: id, bus: b, broadcast: broadcast, onWrite: onWrite}
}

// ID returns the master id.
func (u *Uncached) ID() int { return u.id }

// Stats returns a snapshot of the counters.
func (u *Uncached) Stats() UncachedStats {
	u.mu.Lock()
	defer u.mu.Unlock()
	return u.stats
}

// Stall returns Stats().StallNanos, the cumulative simulated time this
// master has stalled on the bus.
func (u *Uncached) Stall() int64 {
	u.mu.Lock()
	defer u.mu.Unlock()
	return u.stats.StallNanos
}

// lineBuf returns the master's read buffer, sized on first use.
func (u *Uncached) lineBuf() []byte {
	if u.line == nil {
		u.line = make([]byte, u.bus.LineSize())
	}
	return u.line
}

// ReadWord reads one word through the bus (column 7: ~CA,~IM,~BC). If
// a cache owns the line it intervenes (DI); otherwise memory responds.
func (u *Uncached) ReadWord(addr bus.Addr, wordIdx int) (uint32, error) {
	if wordIdx < 0 || (wordIdx+1)*4 > u.bus.LineSize() {
		return 0, fmt.Errorf("uncached %d: word %d outside line", u.id, wordIdx)
	}
	res, err := u.bus.Execute(bus.Transaction{MasterID: u.id, Addr: addr, Op: core.BusRead, Data: u.lineBuf()})
	if err != nil {
		return 0, err
	}
	u.mu.Lock()
	u.stats.Reads++
	u.stats.StallNanos += res.StallCost()
	u.mu.Unlock()
	return binary.LittleEndian.Uint32(res.Data[wordIdx*4:]), nil
}

// WriteWord writes one word through the bus (column 9 or, with
// broadcast, column 10). An owning cache captures the write; with
// broadcast, holders may connect and update their copies.
func (u *Uncached) WriteWord(addr bus.Addr, wordIdx int, val uint32) error {
	if wordIdx < 0 || (wordIdx+1)*4 > u.bus.LineSize() {
		return fmt.Errorf("uncached %d: word %d outside line", u.id, wordIdx)
	}
	sig := core.SigIM
	if u.broadcast {
		sig |= core.SigBC
	}
	tx := bus.Transaction{
		MasterID: u.id,
		Signals:  sig,
		Addr:     addr,
		Op:       core.BusWrite,
		Partial:  true, Word: wordIdx, Val: val,
	}
	u.bus.Acquire(addr, u.id)
	res, err := u.bus.ExecuteHeld(tx)
	if err == nil && u.onWrite != nil {
		u.onWrite(addr, wordIdx, val)
	}
	u.bus.Release(addr)
	if err != nil {
		return err
	}
	u.mu.Lock()
	u.stats.Writes++
	u.stats.StallNanos += res.StallCost()
	u.mu.Unlock()
	return nil
}
