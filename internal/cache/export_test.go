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
	sh.mu.Lock()
	defer sh.mu.Unlock()
	if !s.Valid() {
		if l := c.lookup(addr); l != nil {
			l.state = core.Invalid
		}
		return
	}
	way, v, _ := c.victim(addr)
	c.claim(sh, way, v, addr)
	v.state = s
	v.data = append(v.data[:0], data...)
}
