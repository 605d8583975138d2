package protocols

import "futurebus/internal/core"

// FireflyTable returns the Firefly protocol as adapted to the Futurebus
// in Table 7 (the DEC SRC Firefly, defined only in [Arch85]). The
// original updates memory whenever an intervening cache provides data;
// here that becomes a BS abort + push, after which the old owner holds
// E and the retried read finds memory valid, leaving both caches in S
// (§4.5). Firefly is update-based: writes to shared lines broadcast and
// nobody is invalidated.
func FireflyTable() *core.Table { return core.PaperTable7() }

// Firefly returns the adapted Firefly protocol extended to the full
// event set.
func Firefly() core.Policy { return firefly() }

var firefly = shared(func() core.Policy {
	t := Extend(core.PaperTable7(), StyleUpdate)
	t.Name = "Firefly"
	return NewPreferred("Firefly", core.CopyBack, mustInClass(t, core.CopyBack))
})
