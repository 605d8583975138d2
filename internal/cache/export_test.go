package cache

import (
	"futurebus/internal/bus"
	"futurebus/internal/core"
)

// forceLine installs a line directly in the directory (tests only): the
// conformance harness uses it to place a cache in an exact MOESI state
// before firing one event at it. The line's way is tagged with its
// sector, as a fill would tag it.
func (c *Cache) forceLine(addr bus.Addr, s core.State, data []byte) {
	sh := c.shard(addr)
	c.lock(sh)
	defer c.unlock(sh)
	if !s.Valid() {
		if l := c.lookup(addr); l != nil {
			c.place(sh, l, core.Invalid)
		}
		return
	}
	way, v, _ := c.victim(addr)
	for i := range way {
		if way[i].addr/bus.Addr(c.subs) != addr/bus.Addr(c.subs) {
			c.place(sh, &way[i], core.Invalid)
		}
	}
	c.claim(sh, way, v, addr)
	c.place(sh, v, s)
	copy(c.lineData(v), data)
}

// FlushAll pushes every dirty line and drops every clean one, leaving
// the cache empty and memory holding the image of everything it owned.
func (c *Cache) FlushAll() error {
	var addrs []bus.Addr
	c.ForEachLine(func(addr bus.Addr, _ core.State, _ []byte) { addrs = append(addrs, addr) })
	for _, addr := range addrs {
		if err := c.Flush(addr); err != nil {
			return err
		}
	}
	return nil
}

// StateCensus returns the number of valid lines per state.
func (c *Cache) StateCensus() map[core.State]int {
	census := make(map[core.State]int)
	c.ForEachLine(func(_ bus.Addr, s core.State, _ []byte) { census[s]++ })
	return census
}
