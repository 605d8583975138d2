package sim

import (
	"fmt"
	"math"

	"futurebus/internal/bus"
	"futurebus/internal/core"
	"futurebus/internal/obs"
	"futurebus/internal/workload"
)

// DefaultHitLatency is the assumed processor cost of one reference that
// hits in the cache (nanoseconds) — a 20 MHz-class 1986 processor with
// a one-cycle cache.
const DefaultHitLatency = 50

// Engine is the deterministic discrete-event engine: boards execute
// their reference streams in global simulated-time order, contending
// for the bus. One run with the same config, generators and seeds is
// exactly reproducible.
type Engine struct {
	Sys  *System
	Gens []workload.Generator
	// HitLatency is the per-reference processor time; 0 = default.
	HitLatency int64
}

// procEvent is one board's position on the timeline.
type procEvent struct {
	time int64
	// proc is the board, or ^shard for a wait list's token (see
	// eventHeap).
	proc int
	// rank orders simultaneous contenders for a busy shard the way the
	// shard's arbitration Discipline would: it is the discipline key of
	// the board's deferred access, 0 when no discipline is configured
	// (or the event is not a deferred bus access), so the legacy
	// time/seq order is untouched by default.
	rank int64
	seq  int64 // tie-break for determinism
}

// before orders events by (time, rank, seq). The order is strict and
// total: each board has exactly one event, queued or parked, a token
// carries the key of a parked event, and no two events share a seq, so
// any correct heap pops the same sequence.
func (a procEvent) before(b procEvent) bool {
	if a.time != b.time {
		return a.time < b.time
	}
	if a.rank != b.rank {
		return a.rank < b.rank
	}
	return a.seq < b.seq
}

// eventHeap is a binary min-heap of procEvents under before. Besides
// the boards' own events it holds one token per non-empty wait list,
// keyed by the list's earliest waiter; it keeps each token's index in
// its shard's tok (-1 while the list is empty), so a list can re-key its
// token in place.
type eventHeap struct {
	e      []procEvent
	shards []shardState
}

// set stores ev at i, keeping tok current.
func (h *eventHeap) set(i int, ev procEvent) {
	h.e[i] = ev
	if ev.proc < 0 {
		h.shards[^ev.proc].tok = i
	}
}

// replaceTop replaces the earliest event and restores the heap.
func (h *eventHeap) replaceTop(ev procEvent) {
	h.set(0, ev)
	h.down(0)
}

// push adds an event.
func (h *eventHeap) push(ev procEvent) {
	h.e = append(h.e, ev)
	h.up(len(h.e) - 1)
}

// remove deletes the event at i.
func (h *eventHeap) remove(i int) {
	if ev := h.e[i]; ev.proc < 0 {
		h.shards[^ev.proc].tok = -1
	}
	n := len(h.e) - 1
	last := h.e[n]
	h.e = h.e[:n]
	if i < n {
		h.set(i, last)
		h.fix(i)
	}
}

// fix restores the heap after the key at i changed.
func (h *eventHeap) fix(i int) {
	if i > 0 && h.e[i].before(h.e[(i-1)/2]) {
		h.up(i)
	} else {
		h.down(i)
	}
}

// down sifts the event at i toward the leaves until neither child is
// before it.
func (h *eventHeap) down(i int) {
	ev := h.e[i]
	for {
		c := 2*i + 1
		if c >= len(h.e) {
			break
		}
		if r := c + 1; r < len(h.e) && h.e[r].before(h.e[c]) {
			c = r
		}
		if !h.e[c].before(ev) {
			break
		}
		h.set(i, h.e[c])
		i = c
	}
	h.set(i, ev)
}

// up sifts the event at i toward the root until its parent is before it.
func (h *eventHeap) up(i int) {
	ev := h.e[i]
	for i > 0 {
		p := (i - 1) / 2
		if !ev.before(h.e[p]) {
			break
		}
		h.set(i, h.e[p])
		i = p
	}
	h.set(i, ev)
}

// procState is one board's progress through its reference stream.
type procState struct {
	remaining int
	// pending is the board's next reference, drawn from its generator
	// once and held by value (hasPending) across deferrals.
	pending    workload.Ref
	hasPending bool
	time       int64
	// waited accumulates simulated time this board's next bus access
	// was deferred because the bus was busy; blocker is the TxID it was
	// last deferred behind. Reported as one KindBlocked event when the
	// access finally runs — the deterministic engine's equivalent of
	// the concurrent engine's arbitration wait.
	waited  int64
	blocker uint64
	// ticket is the access's sticky arbitration ticket (drawn on its
	// first deferral, kept across re-deferrals so the discipline sees
	// one aging request); -1 = no ticket outstanding. defers counts
	// deferral rounds — Skips for the discipline key.
	ticket int64
	defers int
	// ev is the board's event, in the heap or parked on its home
	// shard's wait list; time math.MaxInt64 once the board is done.
	ev procEvent
	// next links a parked board to the next on its wait list (-1 ends
	// it).
	next int
	// seen is the line state the probe that parked the board saw.
	seen core.State
	// dynamic caches Board.Dynamic: such a board is never parked.
	dynamic bool
}

// shardState is the engine's view of one fabric shard.
type shardState struct {
	// busFreeAt is the shard's occupancy clock: a board only waits when
	// the home shard of its next access is busy, which is how the
	// deterministic engine models the backplane's parallelism while
	// keeping one merged virtual timeline.
	busFreeAt int64
	// waiters heads the shard's wait list, linked through procState.next
	// in no particular order (the heap orders them through the token);
	// -1 when empty. tok is the token's index in the heap, -1 when absent.
	waiters, tok int
	// disc is a private Discipline instance (mirroring the concurrent
	// engine's per-shard arbiter) and tickets its arrival-ticket
	// counter. disc stays nil with no discipline configured, keeping
	// the legacy deferral order bit-exact.
	disc    bus.Discipline
	tickets int64
}

// run is one Engine.Run in progress.
type run struct {
	e      *Engine
	procs  []procState
	shards []shardState
	h      eventHeap
	// dynamic lists the boards whose choices are drawn.
	dynamic []int
}

// Run executes refsPerProc references on every board and returns the
// aggregated metrics. The engine is the only goroutine that touches the
// system's caches while it runs, so it marks them single-owner for the
// run (cache.Cache.SetSingleOwner).
//
// A deferred access waits parked on its home shard's wait list, not in
// the event heap. When an access moves the shard's free time, every
// waiter is re-deferred in one step — what its own probe at its own
// instant would have done, since nothing it depends on can change in
// between — except a waiter whose line changed state since its probe:
// that one goes back to the heap and is probed there. A board whose
// chooser draws is never parked, and while one has an event no later
// than the waiters', every waiter goes back to the heap: its probe may
// say "local" while its access takes the bus.
func (e *Engine) Run(refsPerProc int) (Metrics, error) {
	if len(e.Gens) != len(e.Sys.Boards) {
		return Metrics{}, fmt.Errorf("sim: %d generators for %d boards", len(e.Gens), len(e.Sys.Boards))
	}
	hit := e.HitLatency
	if hit == 0 {
		hit = DefaultHitLatency
	}
	for _, c := range e.Sys.Caches {
		c.SetSingleOwner(true)
	}
	defer func() {
		for _, c := range e.Sys.Caches {
			c.SetSingleOwner(false)
		}
	}()

	r := run{
		e:      e,
		procs:  make([]procState, len(e.Sys.Boards)),
		shards: make([]shardState, e.Sys.Bus.Shards()),
	}
	r.h = eventHeap{e: make([]procEvent, 0, len(r.procs)+len(r.shards)), shards: r.shards}
	// Every board starts at time 0 in seq order: already a heap.
	var seq int64
	for i, b := range e.Sys.Boards {
		p := &r.procs[i]
		p.remaining = refsPerProc
		p.ticket = -1
		p.ev = procEvent{time: 0, proc: i, seq: seq}
		p.dynamic = b.Dynamic()
		if p.dynamic {
			r.dynamic = append(r.dynamic, i)
		}
		r.h.e = append(r.h.e, p.ev)
		seq++
	}
	for i := range r.shards {
		sh := &r.shards[i]
		sh.waiters, sh.tok = -1, -1
		if e.Sys.disc != nil {
			sh.disc = e.Sys.disc()
		}
	}

	var elapsed int64
	var refs int64
	for len(r.h.e) > 0 {
		ev := r.h.e[0]
		if ev.proc < 0 {
			r.unpark(^ev.proc)
			continue
		}
		p := &r.procs[ev.proc]
		p.time = ev.time
		if !p.hasPending {
			p.pending, p.hasPending = e.Gens[ev.proc].Next(), true
		}
		ref := p.pending
		board := e.Sys.Boards[ev.proc]
		si := e.Sys.Bus.HomeShard(busAddr(ref.Line))

		// Bus accesses are executed in global time order: if the home
		// shard is still busy with an earlier transaction, this board
		// waits (other boards with earlier clocks run first).
		if p.time < r.shards[si].busFreeAt && board.UsesBusNext(busAddr(ref.Line), ref.Write) {
			r.deferAccess(ev.proc, &ev, si)
			if p.dynamic {
				p.ev = ev
				r.h.replaceTop(ev)
			} else {
				p.seen = board.LineState(busAddr(ref.Line))
				r.park(ev, si)
			}
			continue
		}
		if p.waited > 0 {
			if rec := e.Sys.Obs; rec != nil {
				rec.Emit(obs.Event{
					TS:      rec.Clock(),
					Dur:     p.waited,
					Kind:    obs.KindBlocked,
					Bus:     int32(e.Sys.Bus.SegmentID(busAddr(ref.Line))),
					Proc:    int32(ev.proc),
					Addr:    uint64(busAddr(ref.Line)),
					CauseID: p.blocker,
				})
			}
			p.waited, p.blocker = 0, 0
		}

		before := board.Stall()
		var busyBefore int64
		if e.Sys.split {
			busyBefore = e.Sys.Bus.Shard(si).BusyNanos()
		}
		var err error
		if ref.Write {
			err = board.Write(busAddr(ref.Line), ref.Word, ref.Val)
		} else {
			_, err = board.Read(busAddr(ref.Line), ref.Word)
		}
		if err != nil {
			return Metrics{}, fmt.Errorf("sim: board %d ref %s: %w", ev.proc, ref, err)
		}
		busCost := board.Stall() - before
		p.hasPending = false
		p.remaining--
		refs++
		e.Sys.noteRef()

		p.time += hit + busCost
		sh := &r.shards[si]
		freed := sh.busFreeAt
		if busCost > 0 {
			if sh.disc != nil {
				sh.disc.Granted(ev.proc)
			}
			if e.Sys.split {
				// Split mode: the shard is occupied only for the on-bus
				// portion (address tenure, drained data tenures, NACK
				// cycles) — the occupancy-clock delta — while the board's
				// own clock also absorbs the off-bus service it stalled
				// on. Overlapped tenures fall out: the next contender may
				// start before this board's stall ends.
				if free := ev.time + (e.Sys.Bus.Shard(si).BusyNanos() - busyBefore); free > sh.busFreeAt {
					sh.busFreeAt = free
				}
			} else {
				sh.busFreeAt = p.time
			}
		}
		p.ticket, p.defers = -1, 0
		if p.time > elapsed {
			elapsed = p.time
		}

		if p.remaining > 0 {
			p.ev = procEvent{time: p.time, proc: ev.proc, seq: seq}
			seq++
			r.h.replaceTop(p.ev)
		} else {
			p.ev.time = math.MaxInt64
			r.h.remove(0)
		}
		if sh.busFreeAt > freed {
			r.settle(si)
		}
	}

	// Retire any split-mode responses still pending so the final stats
	// account every owed data tenure.
	e.Sys.Bus.DrainPending()
	return e.metrics(refs, elapsed, hit), nil
}

// deferAccess moves a board's event for its access on shard si to the
// shard's free time: it accounts the wait and, under a discipline,
// draws the access's ticket or ages it and re-keys the event.
func (r *run) deferAccess(proc int, ev *procEvent, si int) {
	p, sh := &r.procs[proc], &r.shards[si]
	if r.e.Sys.Obs != nil {
		p.waited += sh.busFreeAt - ev.time
		p.blocker = r.e.Sys.Bus.Shard(si).LastTxID()
	}
	if sh.disc != nil {
		if p.ticket < 0 {
			p.ticket = sh.tickets
			sh.tickets++
			p.defers = 0
		} else {
			p.defers++
		}
		ev.rank = sh.disc.Key(bus.Waiter{Board: proc, Ticket: p.ticket, Skips: p.defers})
	}
	ev.time = sh.busFreeAt
}

// park moves the deferred event at the top of the heap onto shard si's
// wait list.
func (r *run) park(ev procEvent, si int) {
	p, sh := &r.procs[ev.proc], &r.shards[si]
	p.ev = ev
	p.next, sh.waiters = sh.waiters, ev.proc
	tok := ev
	tok.proc = ^si
	if sh.tok < 0 {
		// The list's first waiter: its token takes the event's place.
		r.h.replaceTop(tok)
		return
	}
	r.h.remove(0)
	if i := sh.tok; ev.before(r.h.e[i]) {
		r.h.set(i, tok)
		r.h.up(i)
	}
}

// earliest returns shard si's earliest waiter and the waiter linked
// before it (-1 when it heads the list). The list is not empty.
func (r *run) earliest(si int) (proc, prev int) {
	proc, prev = r.shards[si].waiters, -1
	for q, w := proc, r.procs[proc].next; w >= 0; q, w = w, r.procs[w].next {
		if r.procs[w].ev.before(r.procs[proc].ev) {
			proc, prev = w, q
		}
	}
	return proc, prev
}

// retoken keys shard si's token to its earliest waiter: it pushes a
// token if the list has none in the heap, and removes it if the list is
// empty.
func (r *run) retoken(si int) {
	sh := &r.shards[si]
	switch {
	case sh.waiters < 0 && sh.tok >= 0:
		r.h.remove(sh.tok)
	case sh.waiters >= 0:
		proc, _ := r.earliest(si)
		tok := r.procs[proc].ev
		tok.proc = ^si
		if sh.tok < 0 {
			r.h.push(tok)
		} else {
			r.h.set(sh.tok, tok)
			r.h.fix(sh.tok)
		}
	}
}

// unpark takes the earliest waiter off shard si's wait list when its
// token reaches the top of the heap: the waiter's own event takes the
// token's place (same key), and the rest of the list gets a new token.
func (r *run) unpark(si int) {
	sh := &r.shards[si]
	proc, prev := r.earliest(si)
	if prev < 0 {
		sh.waiters = r.procs[proc].next
	} else {
		r.procs[prev].next = r.procs[proc].next
	}
	sh.tok = -1
	r.h.set(0, r.procs[proc].ev)
	r.retoken(si)
}

// settle brings shard si's wait list up to date after an access moved
// the shard's free time later. A waiter whose turn was before the new
// free time would, at its own pop, probe again, still need the bus,
// and defer to the new free time; settle does that for it, unless its
// line changed state since its probe (the probe might now say "local"),
// or a dynamic board has an event no later than the waiters' — its
// probe may say "local" while its access takes the bus, moving the
// free time, the shard's last transaction and the discipline between
// two waiters' pops. Those waiters go back to the heap at their own
// key, to be probed there. A line the waiter did not hold cannot have
// changed: no snoop installs a line (Table 2's Invalid row is all "I"),
// and only the waiter's own access could.
func (r *run) settle(si int) {
	sh := &r.shards[si]
	if sh.waiters < 0 {
		return
	}
	free := sh.busFreeAt
	requeue := false
	if len(r.dynamic) > 0 {
		var latest int64 = math.MinInt64
		for w := sh.waiters; w >= 0; w = r.procs[w].next {
			if t := r.procs[w].ev.time; t < free && t > latest {
				latest = t
			}
		}
		for _, d := range r.dynamic {
			if r.procs[d].ev.time <= latest {
				requeue = true
				break
			}
		}
	}
	w := sh.waiters
	sh.waiters = -1
	for w >= 0 {
		p := &r.procs[w]
		next := p.next
		switch {
		case p.ev.time >= free:
			p.next, sh.waiters = sh.waiters, w
		case requeue || p.seen.Valid() && r.e.Sys.Boards[w].LineState(busAddr(p.pending.Line)) != p.seen:
			r.h.push(p.ev)
		default:
			r.deferAccess(w, &p.ev, si)
			p.next, sh.waiters = sh.waiters, w
		}
		w = next
	}
	r.retoken(si)
}

func (e *Engine) metrics(refs, elapsed, hit int64) Metrics {
	return Metrics{
		System:       e.Sys.Describe(),
		Procs:        len(e.Sys.Boards),
		Refs:         refs,
		ElapsedNanos: elapsed,
		HitLatency:   hit,
		Bus:          e.Sys.Bus.Stats(),
		Memory:       e.Sys.Memory.Stats(),
		Cache:        aggregate(e.Sys.Caches),
		Hist:         histSummaries(e.Sys.Obs),
		Perf:         perfSnapshot(e.Sys.Obs),
	}
}
