package protocols

import "futurebus/internal/core"

// Illinois returns the Illinois protocol as adapted to the Futurebus in
// Table 6 ([Papa84]), extended to the full event set. Two features of
// the original cannot be implemented exactly: memory cannot be updated
// during a dirty cache-to-cache transfer (replaced by BS abort, push,
// restart), and all-caches-respond-with-priority selection is not
// permitted (only the unique owner or memory responds). The S state
// here does NOT imply consistency with memory, unlike the original
// (§4.4).
func Illinois() core.Policy { return illinois() }

var illinois = shared(func() core.Policy {
	t := Extend(core.PaperTable6(), StyleInvalidate)
	t.Name = "Illinois"
	return NewPreferred("Illinois", core.CopyBack, mustInClass(t, core.CopyBack))
})
