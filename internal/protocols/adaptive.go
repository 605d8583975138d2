package protocols

import "futurebus/internal/core"

// Adaptive is the §5.2 refinement of the preferred MOESI protocol: on a
// snooped broadcast write, a copy that is recently used in its set is
// updated (it will probably be referenced again), while a copy nearing
// replacement is discarded (updating it would waste a transfer on a
// dying line). All other cells follow the preferred table. Compare with
// the related idea in [Puza83].
type Adaptive struct {
	*Preferred
}

// adaptive is the registry's shared moesi-adaptive policy.
var adaptive = shared(func() core.Policy { return NewAdaptive() })

// NewAdaptive creates the recency-adaptive MOESI policy. It builds a
// fresh, mutable table on every call; the registry's moesi-adaptive
// policy is built once and shared.
func NewAdaptive() *Adaptive {
	t := moesiTable("MOESI-adaptive",
		"CH:O/M,CA,IM,BC,W", "CH:O/M,CA,IM,BC,W", "M,CA,IM,R", StyleUpdate)
	// Carry both class alternatives in the broadcast-write cells so the
	// recency hook can pick between update and discard.
	both := func(s core.State, e core.BusEvent, cell string) {
		alts, err := core.ParseSnoopCell(cell)
		if err != nil {
			panic(err)
		}
		t.SetSnoop(s, e, alts...)
	}
	both(core.Owned, core.BusCacheBroadcastWrite, "S,CH,SL or I")
	both(core.Shared, core.BusCacheBroadcastWrite, "S,CH,SL or I")
	both(core.Exclusive, core.BusPlainBroadcastWrite, "E,CH?,SL or I")
	both(core.Shared, core.BusPlainBroadcastWrite, "S,CH,SL or I")
	return &Adaptive{Preferred: NewPreferred("MOESI-adaptive", core.CopyBack, mustInClass(t, core.CopyBack))}
}

// ChooseSnoopRecency implements core.RecencyAware: on broadcast writes
// (columns 8 and 10) choose update for recently used lines and
// invalidate for lines nearing replacement, wherever the class offers
// the choice.
func (p *Adaptive) ChooseSnoopRecency(s core.State, e core.BusEvent, recentlyUsed bool) (core.SnoopAction, bool) {
	alts := p.Table().Snoop(s, e)
	if len(alts) == 0 {
		return core.SnoopAction{}, false
	}
	if e != core.BusCacheBroadcastWrite && e != core.BusPlainBroadcastWrite {
		return alts[0], true
	}
	// Owners (M, O on column 10) have no invalidate option; for the
	// rest, pick by recency.
	var update, invalidate *core.SnoopAction
	for i := range alts {
		a := alts[i]
		switch {
		case a.AssertSL:
			if update == nil {
				update = &alts[i]
			}
		case !a.Next.Conditional() && a.Next.NoCH == core.Invalid:
			if invalidate == nil {
				invalidate = &alts[i]
			}
		}
	}
	// The adaptive table prefers update; fall back to the class's
	// second alternative (I) for stale lines.
	if !recentlyUsed && invalidate != nil {
		return *invalidate, true
	}
	if update != nil {
		return *update, true
	}
	return alts[0], true
}

var _ core.RecencyAware = (*Adaptive)(nil)
