package protocols

import (
	"fmt"

	"futurebus/internal/core"
)

// Style biases how an extended protocol treats broadcast writes it did
// not originally define (columns 8 and 10): invalidate-based protocols
// discard their copies where the class permits, update-based protocols
// connect and refresh them. All other cells keep the class preference
// order — an owner always intervenes or captures, holders always answer
// reads with CH.
type Style uint8

const (
	// StyleInvalidate discards copies on foreign broadcast writes.
	StyleInvalidate Style = iota
	// StyleUpdate connects (SL) and refreshes copies.
	StyleUpdate
)

// Extend completes a partial protocol table (the paper's Tables 3–7
// define only the columns their own algorithm generates) to the full
// event set of a mixed Futurebus, by filling every undefined cell with
// a class action:
//
//   - only actions whose result states stay within the protocol's own
//     state set are considered (Berkeley never enters E, Illinois never
//     enters O);
//   - cells the class itself leaves undefined (M/E on column 8, Pass of
//     a clean line) stay undefined;
//   - on broadcast-write columns the Style picks between update and
//     invalidate where the class offers both.
//
// The result is a class member by construction (modulo any BS cells the
// original table already contained), which Validate confirms.
func Extend(t *core.Table, style Style) *core.Table {
	out := core.NewTable(t.Name, t.States, core.LocalEvents[:], core.BusEvents[:])
	allowed := make(map[core.State]bool, len(t.States)+1)
	allowed[core.Invalid] = true
	for _, s := range t.States {
		allowed[s] = true
	}
	within := func(c core.CondState) bool { return allowed[c.OnCH] && allowed[c.NoCH] }

	for _, s := range t.States {
		for _, e := range core.LocalEvents {
			if alts := existingLocal(t, s, e); alts != nil {
				out.SetLocal(s, e, alts...)
				continue
			}
			for _, ent := range core.LocalClass(s, e) {
				if ent.Variant&core.CopyBack == 0 {
					continue
				}
				if ent.Action.Op != core.BusReadThenWrite && !within(ent.Action.Next) {
					continue
				}
				out.SetLocal(s, e, ent.Action)
				break
			}
		}
		for _, e := range core.BusEvents {
			if alts := existingSnoop(t, s, e); alts != nil {
				out.SetSnoop(s, e, alts...)
				continue
			}
			var candidates []core.SnoopAction
			for _, ent := range core.SnoopClass(s, e) {
				if within(ent.Action.Next) {
					candidates = append(candidates, ent.Action)
				}
			}
			if len(candidates) == 0 {
				continue // class "—": stays undefined
			}
			if style == StyleInvalidate && broadcastWriteColumn(e) {
				// Prefer discarding over connecting where permitted.
				for i, a := range candidates {
					if !a.Next.Conditional() && a.Next.NoCH == core.Invalid {
						candidates[0], candidates[i] = candidates[i], candidates[0]
						break
					}
				}
			}
			out.SetSnoop(s, e, candidates[0])
		}
	}
	return out
}

func broadcastWriteColumn(e core.BusEvent) bool {
	return e == core.BusCacheBroadcastWrite || e == core.BusPlainBroadcastWrite
}

func existingLocal(t *core.Table, s core.State, e core.LocalEvent) []core.LocalAction {
	for _, have := range t.LocalEvents {
		if have == e {
			return t.Local(s, e)
		}
	}
	return nil
}

func existingSnoop(t *core.Table, s core.State, e core.BusEvent) []core.SnoopAction {
	for _, have := range t.BusEvents {
		if have == e {
			return t.Snoop(s, e)
		}
	}
	return nil
}

// mustInClass panics unless the table validates as a class member (with
// or without the BS extension). Protocol constructors call it so a
// typo in a table is caught at init time.
func mustInClass(t *core.Table, variant core.Variant) *core.Table {
	rep := core.Validate(t, variant)
	if rep.Verdict == core.NotInClass {
		panic(fmt.Sprintf("protocols: %s is not a class member:\n%s", t.Name, rep))
	}
	return t
}
