package hierarchy

import "futurebus/internal/cache"

// SetErr defers err on the bridge, as a failing memory-port or snoop
// hook does.
func (b *Bridge) SetErr(err error) { b.setErr(err) }

// Proc returns cluster ci's pi-th cache.
func (s *System) Proc(ci, pi int) *cache.Cache { return s.Clusters[ci].Caches[pi] }
