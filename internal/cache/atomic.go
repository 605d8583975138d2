package cache

import (
	"futurebus/internal/bus"
	"futurebus/internal/core"
)

// Atomic read-modify-write operations. The arbiter of a line's home
// fabric shard is the serialisation point for that line, so an RMW is
// implemented by holding that shard's mastership across the read and
// the write: no other master can slip a transaction on the line (and
// thus a conflicting write) in between.
// This is the classic bus-locked RMW of the era's multiprocessors and
// is what makes spinlocks and shared counters implementable on the
// coherent memory image (see examples/spinlock).

// Update atomically applies f to one word: it reads the current value,
// computes f(old), writes it, and returns (old, new). The whole
// operation is one critical section on the bus. In the cache's
// statistics it counts as one read and one write. On a non-caching
// cache (protocols.NonCaching) the read is a column-7 fetch and the
// write goes past the cache; an owning cache supplies the one and
// captures the other, so the RMW is atomic and coherent even against
// dirty cached copies.
func (c *Cache) Update(addr bus.Addr, wordIdx int, f func(uint32) uint32) (old, updated uint32, err error) {
	if err := c.checkWord(wordIdx); err != nil {
		return 0, 0, err
	}
	c.bus.Acquire(addr, c.id)
	defer c.bus.Release(addr)

	// Read phase: local copy if present, otherwise a normal read-miss
	// fill (still under the held bus).
	sh := c.shard(addr)
	c.lock(sh)
	sh.stats.Reads++
	if l := c.lookup(addr); l != nil {
		old = word(c.lineData(l), wordIdx)
		c.touch(sh, l)
		sh.stats.ReadHits++
		c.unlock(sh)
	} else {
		sh.stats.ReadMisses++
		c.unlock(sh)
		data, ferr := c.fillLine(addr, core.LocalRead)
		if ferr != nil {
			return 0, 0, ferr
		}
		old = word(data, wordIdx)
	}

	updated = f(old)
	c.lock(sh)
	sh.stats.Writes++
	c.unlock(sh)
	if err := c.writeHeld(addr, wordIdx, updated); err != nil {
		return 0, 0, err
	}
	return old, updated, nil
}

// CompareAndSwap atomically replaces the word with new if it equals
// old, reporting whether the swap happened.
func (c *Cache) CompareAndSwap(addr bus.Addr, wordIdx int, old, new uint32) (bool, error) {
	swapped := false
	_, _, err := c.Update(addr, wordIdx, func(cur uint32) uint32 {
		if cur == old {
			swapped = true
			return new
		}
		return cur
	})
	return swapped, err
}

// FetchAdd atomically adds delta to the word and returns the previous
// value.
func (c *Cache) FetchAdd(addr bus.Addr, wordIdx int, delta uint32) (uint32, error) {
	old, _, err := c.Update(addr, wordIdx, func(cur uint32) uint32 { return cur + delta })
	return old, err
}
