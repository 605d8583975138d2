package verify

import (
	"fmt"

	"futurebus/internal/core"
)

// Explore runs the exhaustive check over all reachable states of a
// system of the given boards (one choice of Chooser per board, at most
// MaxBoards). It returns the reachable-state count and every invariant
// violation, each with a shortest event path from power-on.
func Explore(boards []Chooser) Result {
	if len(boards) == 0 || len(boards) > MaxBoards {
		panic(fmt.Sprintf("verify: need 1–%d boards, got %d", MaxBoards, len(boards)))
	}
	e := &explorer{boards: boards}
	init := sysState{n: len(boards), memCurrent: true}
	for i := range boards {
		init.boards[i] = boardView{state: core.Invalid}
	}
	e.visit(init, 0, "power-on")
	for len(e.queue) > 0 {
		s := e.queue[0]
		e.queue = e.queue[1:]
		e.expand(s)
	}
	return e.result
}

type explorer struct {
	boards   []Chooser
	seen     map[uint32]prov
	queue    []sysState
	reported map[string]bool
	result   Result
}

// prov records how a state was first reached (for violation traces).
type prov struct {
	prev  uint32
	event string
}

// visit enqueues a state if new and records its provenance.
func (e *explorer) visit(s sysState, prevKey uint32, event string) {
	if e.seen == nil {
		e.seen = make(map[uint32]prov)
	}
	e.result.Transitions++
	k := s.key()
	if _, ok := e.seen[k]; ok {
		return
	}
	e.seen[k] = prov{prev: prevKey, event: event}
	e.result.States++
	e.queue = append(e.queue, s)
	e.checkInvariants(s)
}

// trace reconstructs the event path to a state.
func (e *explorer) trace(s sysState) []string {
	var out []string
	k := s.key()
	for depth := 0; depth < 64; depth++ {
		p, ok := e.seen[k]
		if !ok || p.event == "power-on" {
			break
		}
		out = append([]string{p.event}, out...)
		k = p.prev
	}
	return out
}

func (e *explorer) violate(s sysState, reason string) {
	if e.reported == nil {
		e.reported = make(map[string]bool)
	}
	key := fmt.Sprintf("%d|%s", s.key(), reason)
	if e.reported[key] {
		return
	}
	e.reported[key] = true
	e.result.Violations = append(e.result.Violations, Violation{
		State:  s,
		Reason: reason,
		Trace:  e.trace(s),
	})
}

// checkInvariants applies the §3.1 invariants to one state.
func (e *explorer) checkInvariants(s sysState) {
	owners, valids := 0, 0
	exclusiveAt := -1
	for i := 0; i < s.n; i++ {
		b := s.boards[i]
		if !b.state.Valid() {
			continue
		}
		valids++
		if b.state.OwnedCopy() {
			owners++
		}
		if b.state.ExclusiveCopy() {
			exclusiveAt = i
		}
		if !b.current {
			e.violate(s, fmt.Sprintf("board %d holds a stale %s copy (lost update)", i, b.state.Letter()))
		}
		if b.state == core.Exclusive && !s.memCurrent {
			e.violate(s, fmt.Sprintf("board %d holds E but memory is stale (§3.1.2)", i))
		}
	}
	if owners > 1 {
		e.violate(s, fmt.Sprintf("%d owners (§3.1.3: ownership is unique)", owners))
	}
	if exclusiveAt >= 0 && valids > 1 {
		e.violate(s, fmt.Sprintf("board %d claims exclusivity but %d copies exist (§3.1.2)", exclusiveAt, valids))
	}
	if owners == 0 && !s.memCurrent {
		e.violate(s, "no owner and memory stale (the shared image is lost, §3.1.3)")
	}
}

// expand generates every transition out of a state.
func (e *explorer) expand(s sysState) {
	for i := 0; i < s.n; i++ {
		e.expandLocalRead(s, i)
		e.expandLocalWrite(s, i)
		e.expandPush(s, i, core.Pass)
		e.expandPush(s, i, core.Flush)
	}
	e.expandClean(s)
}

// expandClean models the CmdClean command cycle (§6 extension): any
// owner pushes its line and keeps an unowned shareable copy; afterwards
// memory must hold the image — which the invariant check enforces on
// the resulting state (no owner ⇒ memory current).
func (e *explorer) expandClean(s sysState) {
	out := s
	changed := false
	for i := 0; i < s.n; i++ {
		if s.boards[i].state.OwnedCopy() {
			out.memCurrent = s.boards[i].current
			out.boards[i].state = core.Shared
			changed = true
		}
	}
	if !changed {
		return // no owner: clean is a no-op address cycle
	}
	e.visit(out, s.key(), "CmdClean (owner pushed, kept S)")
}

// snoopPick is one snooper's chosen response.
type snoopPick struct {
	board  int
	action core.SnoopAction
}

// snoopCombos enumerates the cartesian product of every other board's
// permitted snoop responses to (col). An empty permitted set for a
// VALID state is the tables' "—": reaching it is itself a violation
// (the event is illegal for that board's protocol), reported once and
// skipped.
func (e *explorer) snoopCombos(s sysState, master int, col core.BusEvent, label string) [][]snoopPick {
	combos := [][]snoopPick{{}}
	for j := 0; j < s.n; j++ {
		if j == master || !e.boards[j].Snoops() {
			continue
		}
		st := s.boards[j].state
		if st == core.Invalid {
			continue // stays silent and Invalid
		}
		choices := e.boards[j].SnoopChoices(st, col)
		if len(choices) == 0 {
			e.violate(s, fmt.Sprintf("board %d (%s) has no action for col %d in state %s (\"—\" reached) during %s",
				j, e.boards[j].Name(), col.Column(), st.Letter(), label))
			return nil
		}
		var next [][]snoopPick
		for _, combo := range combos {
			for _, a := range choices {
				nc := make([]snoopPick, len(combo), len(combo)+1)
				copy(nc, combo)
				next = append(next, append(nc, snoopPick{board: j, action: a}))
			}
		}
		combos = next
	}
	return combos
}

// resolveSnoops applies a combo to the state: returns the new state,
// the master-visible CH, the DI asserter (-1 none), or aborted=true if
// any snooper asserted BS (in which case the recoveries are applied and
// the master's transaction dies; the retry is a fresh event from the
// post-push state).
func (e *explorer) resolveSnoops(s sysState, master int, combo []snoopPick, isWrite, receivedWord func(a core.SnoopAction) bool) (out sysState, ch bool, di int, aborted bool, ok bool) {
	out = s
	di = -1
	// BS first: any abort kills the attempt.
	for _, p := range combo {
		if p.action.Abort != nil {
			aborted = true
			rec := p.action.Abort
			// The recovery push writes the owner's line to memory.
			out.memCurrent = out.boards[p.board].current
			out.boards[p.board].state = rec.Next
			if !rec.Next.Valid() {
				out.boards[p.board] = boardView{state: core.Invalid}
			}
		}
	}
	if aborted {
		return out, false, -1, true, true
	}

	for _, p := range combo {
		if p.action.AssertCH {
			ch = true
		}
		if p.action.AssertDI {
			if di >= 0 {
				e.violate(s, fmt.Sprintf("boards %d and %d both assert DI (duplicate owners)", di, p.board))
				return out, false, -1, false, false
			}
			di = p.board
		}
	}

	for _, p := range combo {
		otherCH := false
		for _, q := range combo {
			if q.board != p.board && q.action.AssertCH {
				otherCH = true
			}
		}
		next := p.action.Next.Resolve(otherCH)
		if !next.Valid() {
			out.boards[p.board] = boardView{state: core.Invalid}
			continue
		}
		out.boards[p.board].state = next
		if isWrite != nil && isWrite(p.action) {
			// A write event: the copy stays current only if it was
			// current AND receives the written word.
			out.boards[p.board].current = s.boards[p.board].current && receivedWord(p.action)
		}
	}
	return out, ch, di, false, true
}

// expandLocalRead: a read miss (or an uncached read) by board i.
func (e *explorer) expandLocalRead(s sysState, i int) {
	if s.boards[i].state != core.Invalid {
		return // read hits change nothing
	}
	for _, a := range e.boards[i].LocalChoices(core.Invalid, core.LocalRead) {
		if a.Op != core.BusRead {
			continue
		}
		col := core.ClassifyBusEvent(a.Assert)
		label := fmt.Sprintf("board %d read miss (%s, col %d)", i, a, col.Column())
		for _, combo := range e.snoopCombos(s, i, col, label) {
			out, ch, di, aborted, ok := e.resolveSnoops(s, i, combo, nil, nil)
			if !ok {
				continue
			}
			if aborted {
				e.visit(out, s.key(), label+" — aborted (BS), owner pushed")
				continue
			}
			srcCurrent := out.memCurrent
			if di >= 0 {
				srcCurrent = s.boards[di].current
			}
			next := a.Next.Resolve(ch)
			if next.Valid() {
				out.boards[i] = boardView{state: next, current: srcCurrent}
			}
			if !srcCurrent {
				e.violate(out, fmt.Sprintf("board %d read stale data (source %s)", i, source(di)))
			}
			e.visit(out, s.key(), label)
		}
	}
}

func source(di int) string {
	if di < 0 {
		return "memory"
	}
	return fmt.Sprintf("board %d (DI)", di)
}

// expandLocalWrite: every permitted write action of board i.
func (e *explorer) expandLocalWrite(s sysState, i int) {
	st := s.boards[i].state
	for _, a := range e.boards[i].LocalChoices(st, core.LocalWrite) {
		switch a.Op {
		case core.BusNone:
			// Silent write (M/E): every other copy and memory miss the
			// word.
			out := s
			out.memCurrent = false
			out.boards[i].state = a.Next.Resolve(false)
			out.boards[i].current = s.boards[i].current
			e.visit(out, s.key(), fmt.Sprintf("board %d silent write (%s)", i, a))
		case core.BusAddrOnly:
			e.expandBusWrite(s, i, a, false)
		case core.BusWrite:
			e.expandBusWrite(s, i, a, true)
		case core.BusRead:
			e.expandRFO(s, i, a)
		case core.BusReadThenWrite:
			// Covered by a read-miss event followed by a write event.
		}
	}
}

// expandBusWrite handles write-hit announcements (broadcast, address-
// only invalidate, write-through / uncached writes).
func (e *explorer) expandBusWrite(s sysState, i int, a core.LocalAction, hasData bool) {
	col := core.ClassifyBusEvent(a.Assert)
	bc := a.Assert.Has(core.SigBC)
	label := fmt.Sprintf("board %d write (%s, col %d)", i, a, col.Column())
	received := func(p core.SnoopAction) bool {
		return hasData && (p.AssertSL || p.AssertDI)
	}
	for _, combo := range e.snoopCombos(s, i, col, label) {
		out, ch, di, aborted, ok := e.resolveSnoops(s, i, combo, func(core.SnoopAction) bool { return true }, received)
		if !ok {
			continue
		}
		if aborted {
			e.visit(out, s.key(), label+" — aborted (BS), owner pushed")
			continue
		}
		// Memory receives the word on a broadcast, or on a
		// non-broadcast data write nobody captured.
		memReceives := hasData && (bc || di < 0)
		out.memCurrent = s.memCurrent && memReceives
		// The writer's retained copy gets the word; it is current iff
		// its pre-write copy was current. A writer with no prior copy
		// (write-through/uncached miss) retains nothing.
		next := a.Next.Resolve(ch)
		if next.Valid() {
			wasCurrent := s.boards[i].current
			if s.boards[i].state == core.Invalid {
				// Retaining a copy after a miss-write without a fetch
				// would be a partial line; the class has no such
				// action, flag it if a chooser invents one.
				e.violate(out, fmt.Sprintf("board %d retains a copy after a fetchless miss write (%s)", i, a))
				wasCurrent = false
			}
			out.boards[i] = boardView{state: next, current: wasCurrent}
		} else {
			out.boards[i] = boardView{state: core.Invalid}
		}
		e.visit(out, s.key(), label)
	}
}

// expandRFO handles the read-for-modify write miss ("M,CA,IM,R").
func (e *explorer) expandRFO(s sysState, i int, a core.LocalAction) {
	col := core.ClassifyBusEvent(a.Assert) // CA,IM → column 6
	label := fmt.Sprintf("board %d write miss RFO (%s)", i, a)
	for _, combo := range e.snoopCombos(s, i, col, label) {
		out, ch, di, aborted, ok := e.resolveSnoops(s, i, combo, nil, nil)
		if !ok {
			continue
		}
		if aborted {
			e.visit(out, s.key(), label+" — aborted (BS), owner pushed")
			continue
		}
		srcCurrent := out.memCurrent
		if di >= 0 {
			srcCurrent = s.boards[di].current
		}
		if !srcCurrent {
			e.violate(out, fmt.Sprintf("board %d RFO fetched stale data (source %s)", i, source(di)))
		}
		// Fetched line + the new word: current iff the source was.
		out.boards[i] = boardView{state: a.Next.Resolve(ch), current: srcCurrent}
		// Memory missed the new word.
		out.memCurrent = false
		e.visit(out, s.key(), label)
	}
}

// expandPush handles Pass (keep a copy) and Flush (drop it), including
// eviction of clean lines.
func (e *explorer) expandPush(s sysState, i int, ev core.LocalEvent) {
	st := s.boards[i].state
	if st == core.Invalid {
		return
	}
	for _, a := range e.boards[i].LocalChoices(st, ev) {
		if !a.NeedsBus() {
			// Silent drop of a clean line.
			out := s
			out.boards[i] = boardView{state: core.Invalid}
			e.visit(out, s.key(), fmt.Sprintf("board %d %s (silent)", i, ev))
			continue
		}
		if a.Op != core.BusWrite {
			continue
		}
		col := core.ClassifyBusEvent(a.Assert) // col 5 (Pass, CA) or col 7 (Flush)
		label := fmt.Sprintf("board %d %s (%s, col %d)", i, ev, a, col.Column())
		for _, combo := range e.snoopCombos(s, i, col, label) {
			// A write-back is NOT a new write: nobody's currency
			// changes; memory inherits the pusher's.
			out, ch, di, aborted, ok := e.resolveSnoops(s, i, combo, nil, nil)
			if !ok {
				continue
			}
			if aborted {
				e.visit(out, s.key(), label+" — aborted (BS)")
				continue
			}
			if di >= 0 {
				// Another owner capturing our push would mean two
				// owners; the invariant check catches the state, note
				// the event too.
				e.violate(s, fmt.Sprintf("board %d asserted DI against board %d's push", di, i))
			}
			out.memCurrent = s.boards[i].current
			next := a.Next.Resolve(ch)
			if next.Valid() {
				out.boards[i].state = next
				out.boards[i].current = s.boards[i].current
			} else {
				out.boards[i] = boardView{state: core.Invalid}
			}
			e.visit(out, s.key(), label)
		}
	}
}
