package core

// Variant is a bitmask describing which kinds of bus client may use a
// class entry. Table 1 marks write-through entries with "*" and
// non-caching entries with "**"; unmarked entries are for copy-back
// caches. §3.4 notes a single board may mix variants (e.g. some pages
// copy-back, some write-through, some uncacheable, as in the CLIPPER).
type Variant uint8

const (
	// CopyBack — a copy-back cache (the unmarked rows of Table 1).
	CopyBack Variant = 1 << iota
	// WriteThrough — a write-through cache ("*"). Its V state is
	// equated with S; it is not capable of ownership.
	WriteThrough
	// NonCaching — a processor without a cache ("**"). It never
	// responds to bus events.
	NonCaching
)

// AnyVariant permits every kind of client.
const AnyVariant = CopyBack | WriteThrough | NonCaching

func (v Variant) String() string {
	switch v {
	case CopyBack:
		return "copy-back"
	case WriteThrough:
		return "write-through"
	case NonCaching:
		return "non-caching"
	case WriteThrough | NonCaching:
		return "write-through/non-caching"
	case AnyVariant:
		return "any"
	}
	return "variant-mix"
}

// Marker returns the paper's footnote marker for the variant set.
func (v Variant) Marker() string {
	switch {
	case v == WriteThrough:
		return "*"
	case v == NonCaching:
		return "**"
	case v == WriteThrough|NonCaching:
		return "*,**"
	default:
		return ""
	}
}

// LocalClassEntry is one permitted local action in the class, together
// with the clients that may use it and where it comes from in the paper.
type LocalClassEntry struct {
	Action  LocalAction
	Variant Variant
	// Origin cites the paper: "Table 1" for a printed cell, or the
	// relaxation note ("note 9" … "note 12") that admits it.
	Origin string
}

// SnoopClassEntry is one permitted snoop action in the class.
type SnoopClassEntry struct {
	Action SnoopAction
	Origin string
}

var (
	localClass [numStates][numLocalEvents][]LocalClassEntry
	snoopClass [numStates][numBusEvents][]SnoopClassEntry

	// localChoices and snoopChoices are the class's action lists,
	// computed once at init: localChoices per variant mask (every
	// combination of the three Variant bits), state and event,
	// snoopChoices per state and bus event. LocalChoicesFor and
	// SnoopChoices hand them out shared.
	localChoices [AnyVariant + 1][numStates][numLocalEvents][]LocalAction
	snoopChoices [numStates][numBusEvents][]SnoopAction
)

// mustLocal parses a canonical local action string or panics; class
// construction runs at init time from the paper's cells.
func mustLocal(cell string) LocalAction {
	a, err := ParseLocalAction(cell)
	if err != nil {
		panic(err)
	}
	return a
}

func mustSnoop(cell string) SnoopAction {
	a, err := ParseSnoopAction(cell)
	if err != nil {
		panic(err)
	}
	return a
}

func addLocal(s State, e LocalEvent, variant Variant, origin, cell string) {
	localClass[s][e] = append(localClass[s][e], LocalClassEntry{
		Action:  mustLocal(cell),
		Variant: variant,
		Origin:  origin,
	})
}

func addSnoop(s State, e BusEvent, origin, cell string) {
	snoopClass[s][e] = append(snoopClass[s][e], SnoopClassEntry{
		Action: mustSnoop(cell),
		Origin: origin,
	})
}

func init() {
	buildLocalClass()
	buildSnoopClass()
	buildChoices()
}

// buildChoices precomputes the choice lists from the class entries.
// Each list is clipped to its length, so a caller's append copies it
// instead of writing into a list another board is reading.
func buildChoices() {
	for v := range localChoices {
		for s := range localChoices[v] {
			for e := range localChoices[v][s] {
				var out []LocalAction
				for _, ent := range localClass[s][e] {
					if ent.Variant&Variant(v) != 0 {
						out = append(out, ent.Action)
					}
				}
				localChoices[v][s][e] = out[:len(out):len(out)]
			}
		}
	}
	for s := range snoopChoices {
		for e := range snoopChoices[s] {
			var out []SnoopAction
			for _, ent := range snoopClass[s][e] {
				out = append(out, ent.Action)
			}
			snoopChoices[s][e] = out[:len(out):len(out)]
		}
	}
}

// buildLocalClass enumerates Table 1 in the paper's preference order
// (first entry preferred, §3.3), then the relaxations of notes 9–12.
func buildLocalClass() {
	const t1 = "Table 1"

	// --- Read (note 1) ---
	addLocal(Modified, LocalRead, CopyBack, t1, "M")
	addLocal(Owned, LocalRead, CopyBack, t1, "O")
	addLocal(Exclusive, LocalRead, CopyBack, t1, "E")
	addLocal(Shared, LocalRead, CopyBack|WriteThrough, t1, "S")
	addLocal(Invalid, LocalRead, CopyBack, t1, "CH:S/E,CA,R")
	addLocal(Invalid, LocalRead, WriteThrough, t1, "S,CA,R")
	addLocal(Invalid, LocalRead, NonCaching, t1, "I,R")
	// note 10: CH:S/E may be replaced by S — a copy-back cache may load
	// every miss shareable (this is what makes Berkeley's read miss a
	// class member).
	addLocal(Invalid, LocalRead, CopyBack, "note 10", "S,CA,R")
	// note 12: E may be replaced by M (exclusivity still guaranteed by
	// the absence of CH), at the cost of an eventual write-back.
	addLocal(Invalid, LocalRead, CopyBack, "note 12", "CH:S/M,CA,R")

	// --- Write (note 2) ---
	addLocal(Modified, LocalWrite, CopyBack, t1, "M")
	addLocal(Owned, LocalWrite, CopyBack, t1, "CH:O/M,CA,IM,BC,W")
	addLocal(Owned, LocalWrite, CopyBack, t1, "M,CA,IM")
	addLocal(Owned, LocalWrite, CopyBack, "note 9", "O,CA,IM,BC,W")
	addLocal(Exclusive, LocalWrite, CopyBack, t1, "M")
	addLocal(Shared, LocalWrite, CopyBack, t1, "CH:O/M,CA,IM,BC,W")
	addLocal(Shared, LocalWrite, CopyBack, t1, "M,CA,IM")
	addLocal(Shared, LocalWrite, WriteThrough, t1, "S,IM,BC,W")
	addLocal(Shared, LocalWrite, WriteThrough, t1, "S,IM,W")
	addLocal(Shared, LocalWrite, CopyBack, "note 9", "O,CA,IM,BC,W")
	addLocal(Invalid, LocalWrite, CopyBack, t1, "M,CA,IM,R")
	addLocal(Invalid, LocalWrite, CopyBack, t1, "Read>Write")
	addLocal(Invalid, LocalWrite, WriteThrough|NonCaching, t1, "I,IM,BC,W")
	addLocal(Invalid, LocalWrite, WriteThrough|NonCaching, t1, "I,IM,W")
	addLocal(Invalid, LocalWrite, WriteThrough, t1, "Read>Write")

	// --- Pass (note 3): push dirty line, keep copy ---
	addLocal(Modified, Pass, CopyBack, t1, "E,CA,BC?,W")
	// note 10 (prose): E can change at any time to S — a protocol
	// without an E state (Berkeley) keeps the pushed line shareable.
	addLocal(Modified, Pass, CopyBack, "note 10", "S,CA,BC?,W")
	addLocal(Modified, Pass, CopyBack, "note 12", "M,CA,BC?,W")
	addLocal(Owned, Pass, CopyBack, t1, "CH:S/E,CA,BC?,W")
	addLocal(Owned, Pass, CopyBack, "note 10", "S,CA,BC?,W")
	addLocal(Owned, Pass, CopyBack, "note 12", "CH:S/M,CA,BC?,W")

	// --- Flush (note 4): push dirty line, discard copy. The flusher
	// retains nothing, so CA is NOT asserted: sharers of an O line see
	// column 7 and correctly keep their copies while memory resumes
	// ownership. ---
	addLocal(Modified, Flush, CopyBack, t1, "I,BC?,W")
	addLocal(Owned, Flush, CopyBack, t1, "I,BC?,W")
	addLocal(Exclusive, Flush, CopyBack, t1, "I")
	addLocal(Shared, Flush, CopyBack|WriteThrough, t1, "I")
}

// buildSnoopClass enumerates Table 2 in the paper's preference order,
// then the relaxations of notes 9 and 11. Non-caching units never snoop;
// a write-through cache snoops exactly like the S row (its V state).
func buildSnoopClass() {
	const t2 = "Table 2"

	// --- Column 5 (CA,~IM,~BC): read by a cache master ---
	addSnoop(Modified, BusCacheRead, t2, "O,CH,DI")
	addSnoop(Owned, BusCacheRead, t2, "O,CH,DI")
	addSnoop(Exclusive, BusCacheRead, t2, "S,CH")
	addSnoop(Exclusive, BusCacheRead, "note 11", "I")
	addSnoop(Shared, BusCacheRead, t2, "S,CH")
	addSnoop(Shared, BusCacheRead, "note 11", "I")
	addSnoop(Invalid, BusCacheRead, t2, "I")

	// --- Column 6 (CA,IM,~BC): write miss / address-only invalidate ---
	addSnoop(Modified, BusCacheRFO, t2, "I,DI")
	addSnoop(Owned, BusCacheRFO, t2, "I,DI")
	addSnoop(Exclusive, BusCacheRFO, t2, "I")
	addSnoop(Shared, BusCacheRFO, t2, "I")
	addSnoop(Invalid, BusCacheRFO, t2, "I")

	// --- Column 7 (~CA,~IM,~BC): read by a processor without a cache.
	// The owner does not assert CH so that it can listen for CH from
	// other caches (§3.2.2) and resolve CH:O/M. ---
	addSnoop(Modified, BusPlainRead, t2, "M,CH?,DI")
	addSnoop(Owned, BusPlainRead, t2, "CH:O/M,DI")
	addSnoop(Owned, BusPlainRead, "note 9", "O,DI")
	addSnoop(Exclusive, BusPlainRead, t2, "E,CH?")
	addSnoop(Exclusive, BusPlainRead, "note 11", "I")
	addSnoop(Shared, BusPlainRead, t2, "S,CH")
	addSnoop(Shared, BusPlainRead, "note 11", "I")
	addSnoop(Invalid, BusPlainRead, t2, "I")

	// --- Column 8 (CA,IM,BC): broadcast write by a cache master. An
	// exclusive holder (M or E) cannot observe this: the writer must
	// itself have held a copy. ---
	addSnoop(Owned, BusCacheBroadcastWrite, t2, "S,CH,SL")
	addSnoop(Owned, BusCacheBroadcastWrite, t2, "I")
	addSnoop(Shared, BusCacheBroadcastWrite, t2, "S,CH,SL")
	addSnoop(Shared, BusCacheBroadcastWrite, t2, "I")
	addSnoop(Invalid, BusCacheBroadcastWrite, t2, "I")

	// --- Column 9 (~CA,IM,~BC): non-broadcast write by a non-caching
	// unit or past a write-through cache; an owner captures it. ---
	addSnoop(Modified, BusPlainWrite, t2, "M,CH?,DI")
	addSnoop(Owned, BusPlainWrite, t2, "O,CH?,DI")
	addSnoop(Exclusive, BusPlainWrite, t2, "I")
	addSnoop(Shared, BusPlainWrite, t2, "I")
	addSnoop(Invalid, BusPlainWrite, t2, "I")

	// --- Column 10 (~CA,IM,BC): broadcast write by a non-caching unit
	// or past a write-through cache; owners must update themselves. ---
	addSnoop(Modified, BusPlainBroadcastWrite, t2, "M,CH?,SL")
	addSnoop(Owned, BusPlainBroadcastWrite, t2, "O,CH,SL")
	addSnoop(Exclusive, BusPlainBroadcastWrite, t2, "E,CH?,SL")
	addSnoop(Exclusive, BusPlainBroadcastWrite, t2, "I")
	addSnoop(Shared, BusPlainBroadcastWrite, t2, "S,CH,SL")
	addSnoop(Shared, BusPlainBroadcastWrite, t2, "I")
	addSnoop(Invalid, BusPlainBroadcastWrite, t2, "I")
}

// LocalClass returns the permitted local actions for a (state, event)
// cell, in preference order, including variant-restricted and relaxed
// entries. An empty result is the tables' "—".
func LocalClass(s State, e LocalEvent) []LocalClassEntry {
	return localClass[s][e]
}

// SnoopClass returns the permitted snoop actions for a (state, bus
// event) cell.
func SnoopClass(s State, e BusEvent) []SnoopClassEntry {
	return snoopClass[s][e]
}

// LocalChoicesFor returns the permitted local actions usable by the
// given client variant, in preference order (nil for "—"). The list is
// precomputed and shared: callers must not write through it.
func LocalChoicesFor(s State, e LocalEvent, v Variant) []LocalAction {
	return localChoices[v&AnyVariant][s][e]
}

// SnoopChoices returns the permitted snoop actions in preference order
// (nil for "—"). The list is precomputed and shared: callers must not
// write through it.
func SnoopChoices(s State, e BusEvent) []SnoopAction {
	return snoopChoices[s][e]
}
