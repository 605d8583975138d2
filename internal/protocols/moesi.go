package protocols

import "futurebus/internal/core"

// moesiSnoopCells is the full Table 2 with the preferred (first)
// alternative in each cell; shared by every MOESI variant — the
// variants differ only in their local write behaviour.
func moesiSnoopCells(style Style) [][]string {
	deal := func(update, invalidate string) string {
		if style == StyleUpdate {
			return update
		}
		return invalidate
	}
	return [][]string{
		// col5        col6    col7          col8                         col9         col10
		{"O,CH,DI", "I,DI", "M,CH?,DI", "-", "M,CH?,DI", "M,CH?,SL"},
		{"O,CH,DI", "I,DI", "CH:O/M,DI", deal("S,CH,SL", "I"), "O,CH?,DI", "O,CH,SL"},
		{"S,CH", "I", "E,CH?", "-", "I", deal("E,CH?,SL", "I")},
		{"S,CH", "I", "S,CH", deal("S,CH,SL", "I"), "I", deal("S,CH,SL", "I")},
		{"I", "I", "I", "I", "I", "I"},
	}
}

func moesiTable(name string, writeO, writeS, writeI string, style Style) *core.Table {
	states := core.States[:]
	return core.TableFromCells(name, states, core.LocalEvents[:], core.BusEvents[:],
		[][]string{
			{"M", "M", "E,CA,BC?,W", "I,BC?,W"},
			{"O", writeO, "CH:S/E,CA,BC?,W", "I,BC?,W"},
			{"E", "M", "-", "I"},
			{"S", writeS, "-", "I"},
			{"CH:S/E,CA,R", writeI, "-", "-"},
		},
		moesiSnoopCells(style))
}

// MOESI returns the paper's preferred protocol: the first entry of
// every cell of Tables 1 and 2. Writes to shared lines broadcast the
// modification (the observation from [Arch85] that §5.2 endorses:
// "it was desirable to broadcast writes to other caches rather than to
// invalidate them"); write misses fetch with intent to modify.
func MOESI() core.Policy { return moesi() }

var moesi = shared(func() core.Policy {
	t := mustInClass(moesiTable("MOESI",
		"CH:O/M,CA,IM,BC,W", "CH:O/M,CA,IM,BC,W", "M,CA,IM,R", StyleUpdate), core.CopyBack)
	return NewPreferred("MOESI", core.CopyBack, t)
})

// MOESIInvalidate returns the invalidation-based member of the class:
// writes to shared lines invalidate the other copies with an
// address-only transaction (Table 1's second alternative, "M,CA,IM"),
// like Berkeley but keeping the E state.
func MOESIInvalidate() core.Policy { return moesiInvalidate() }

var moesiInvalidate = shared(func() core.Policy {
	t := mustInClass(moesiTable("MOESI-invalidate",
		"M,CA,IM", "M,CA,IM", "M,CA,IM,R", StyleInvalidate), core.CopyBack)
	return NewPreferred("MOESI-invalidate", core.CopyBack, t)
})

// MOESIUpdate returns the fully update-based member: like the preferred
// protocol, but write misses load the line first and then broadcast
// ("Read>Write"), keeping every sharer's copy live — Dragon's
// behaviour expressed over the full class.
func MOESIUpdate() core.Policy { return moesiUpdate() }

var moesiUpdate = shared(func() core.Policy {
	t := mustInClass(moesiTable("MOESI-update",
		"CH:O/M,CA,IM,BC,W", "CH:O/M,CA,IM,BC,W", "Read>Write", StyleUpdate), core.CopyBack)
	return NewPreferred("MOESI-update", core.CopyBack, t)
})
