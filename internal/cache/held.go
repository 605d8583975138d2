package cache

import (
	"fmt"

	"futurebus/internal/bus"
	"futurebus/internal/core"
)

// Bus-held line operations for multi-bus bridges (internal/hierarchy).
// All of these require the caller to hold the bus (a shared Arbiter in
// a hierarchy), because they are invoked from inside other
// transactions — a cluster miss being served by the bridge's memory
// port, or a write-back being absorbed mid-transaction.

// FetchLineHeld ensures the line is present (performing a normal
// read-miss fill if not) and copies its data into dst, a buffer of the
// line size. The bus must be held by the caller.
func (c *Cache) FetchLineHeld(addr bus.Addr, dst []byte) error {
	if len(dst) != c.lineSize {
		return fmt.Errorf("cache %d: fetch into %d bytes, line size %d", c.id, len(dst), c.lineSize)
	}
	sh := c.shard(addr)
	c.lock(sh)
	if l := c.lookup(addr); l != nil {
		copy(dst, c.lineData(l))
		c.touch(sh, l)
		c.unlock(sh)
		return nil
	}
	c.unlock(sh)
	data, err := c.fillLine(addr, core.LocalRead)
	if err != nil {
		return err
	}
	copy(dst, data)
	return nil
}

// AbsorbLineHeld makes this cache the Modified owner of the line with
// the given contents: the Table 1 invalidate-style write sequence
// ("M,CA,IM" upgrade on a shared hit, "M,CA,IM,R" read-for-modify on a
// miss, silent on M/E), followed by a full-line overwrite. A bridge
// uses it to take ownership of a write-back arriving from its cluster.
// The bus must be held by the caller. The OnWrite hook is NOT invoked:
// absorption relays data already recorded by the original writer.
func (c *Cache) AbsorbLineHeld(addr bus.Addr, data []byte) error {
	if len(data) != c.lineSize {
		return fmt.Errorf("cache %d: absorb of %d bytes, line size %d", c.id, len(data), c.lineSize)
	}
	sh := c.shard(addr)
	c.lock(sh)
	l := c.lookup(addr)
	if l != nil && l.state.MayModifySilently() {
		copy(c.lineData(l), data)
		c.setState(sh, l, core.Modified, "absorb")
		c.touch(sh, l)
		c.unlock(sh)
		return nil
	}
	hit := l != nil
	c.unlock(sh)

	if hit {
		// Shared hit: address-only invalidate (column 6), then own it.
		if _, err := c.bus.ExecuteHeld(bus.Transaction{
			MasterID: c.id,
			Signals:  core.SigCA | core.SigIM,
			Op:       core.BusAddrOnly,
			Addr:     addr,
		}); err != nil {
			return err
		}
	} else {
		// Miss: read-for-modify fill.
		rfo, err := core.ParseLocalAction("M,CA,IM,R")
		if err != nil {
			return err
		}
		if _, err := c.fillLineWith(addr, rfo); err != nil {
			return err
		}
	}

	c.lock(sh)
	defer c.unlock(sh)
	l = c.lookup(addr)
	if l == nil {
		return fmt.Errorf("cache %d: absorbed line %#x vanished", c.id, uint64(addr))
	}
	copy(c.lineData(l), data)
	c.setState(sh, l, core.Modified, "absorb")
	c.touch(sh, l)
	return nil
}

// InvalidateHeld drops the line without any bus traffic (note 11: any
// bus-event transition may be weakened to I). A bridge uses it when a
// foreign transaction has already superseded the line globally. The
// caller must hold the bus.
func (c *Cache) InvalidateHeld(addr bus.Addr) {
	sh := c.shard(addr)
	c.lock(sh)
	defer c.unlock(sh)
	if l := c.lookup(addr); l != nil {
		c.setState(sh, l, core.Invalid, "invalidate-held")
	}
}
