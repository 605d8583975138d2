package protocols

import "futurebus/internal/core"

// DragonTable returns the Dragon protocol exactly as the paper defines
// it in Table 4 (the Xerox PARC Dragon [McCr84], via [Arch85]). It is
// implementable almost exactly on the Futurebus; the one difference is
// that Futurebus broadcast writes also update main memory, an extra
// update that causes no incompatibility (§4.2). It is a class member.
func DragonTable() *core.Table { return core.PaperTable4() }

// Dragon returns the Dragon protocol extended to the full Futurebus
// event set (update style) and wrapped in a preferred-choice policy.
func Dragon() core.Policy { return dragon() }

var dragon = shared(func() core.Policy {
	t := Extend(core.PaperTable4(), StyleUpdate)
	t.Name = "Dragon"
	return NewPreferred("Dragon", core.CopyBack, mustInClass(t, core.CopyBack))
})
