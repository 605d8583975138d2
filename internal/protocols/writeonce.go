package protocols

import "futurebus/internal/core"

// WriteOnceTable returns the Write-Once protocol as adapted to the
// Futurebus in Table 5 ([Good83], the first bus consistency protocol).
// The original requires memory to be updated while an intervening cache
// supplies data, which the Futurebus cannot do; intervention is
// replaced by a BS abort followed by an immediate push, after which the
// restarted transaction is served by memory (§4.3). The protocol
// therefore needs the BS extension.
func WriteOnceTable() *core.Table { return core.PaperTable5() }

// WriteOnce returns the adapted Write-Once protocol extended to the
// full event set. Its signature move survives: the FIRST write to an S
// line is written through (E,CA,IM,W — invalidating other copies and
// updating memory at once), and only the second write dirties the line.
func WriteOnce() core.Policy { return writeOnce() }

var writeOnce = shared(func() core.Policy {
	t := Extend(core.PaperTable5(), StyleInvalidate)
	t.Name = "Write-Once"
	return NewPreferred("Write-Once", core.CopyBack, mustInClass(t, core.CopyBack))
})
