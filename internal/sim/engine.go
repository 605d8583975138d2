package sim

import (
	"fmt"

	"futurebus/internal/bus"
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
// total: each board has exactly one queued event and no two events
// share a seq, so any correct heap pops the same sequence.
func (a procEvent) before(b procEvent) bool {
	if a.time != b.time {
		return a.time < b.time
	}
	if a.rank != b.rank {
		return a.rank < b.rank
	}
	return a.seq < b.seq
}

// eventHeap is a binary min-heap of procEvents under before.
type eventHeap []procEvent

func (h eventHeap) top() procEvent { return h[0] }

// replaceTop replaces the earliest event and restores the heap.
func (h eventHeap) replaceTop(e procEvent) {
	h[0] = e
	h.down(0)
}

// pop removes the earliest event.
func (h *eventHeap) pop() {
	n := len(*h) - 1
	(*h)[0] = (*h)[n]
	*h = (*h)[:n]
	if n > 0 {
		h.down(0)
	}
}

// down sifts the event at i toward the leaves until neither child is
// before it.
func (h eventHeap) down(i int) {
	e := h[i]
	for {
		c := 2*i + 1
		if c >= len(h) {
			break
		}
		if r := c + 1; r < len(h) && h[r].before(h[c]) {
			c = r
		}
		if !h[c].before(e) {
			break
		}
		h[i] = h[c]
		i = c
	}
	h[i] = e
}

// Run executes refsPerProc references on every board and returns the
// aggregated metrics.
func (e *Engine) Run(refsPerProc int) (Metrics, error) {
	if len(e.Gens) != len(e.Sys.Boards) {
		return Metrics{}, fmt.Errorf("sim: %d generators for %d boards", len(e.Gens), len(e.Sys.Boards))
	}
	hit := e.HitLatency
	if hit == 0 {
		hit = DefaultHitLatency
	}

	type procState struct {
		remaining int
		// pending is the board's next reference, drawn from its
		// generator once and held by value (hasPending) across
		// deferrals.
		pending    workload.Ref
		hasPending bool
		time       int64
		// waited accumulates simulated time this board's next bus access
		// was deferred because the bus was busy; blocker is the TxID it
		// was last deferred behind. Reported as one KindBlocked event
		// when the access finally runs — the deterministic engine's
		// equivalent of the concurrent engine's arbitration wait.
		waited  int64
		blocker uint64
		// ticket is the access's sticky arbitration ticket (drawn on its
		// first deferral, kept across re-deferrals so the discipline sees
		// one aging request); -1 = no ticket outstanding. defers counts
		// deferral rounds — Skips for the discipline key.
		ticket int64
		defers int
	}
	procs := make([]procState, len(e.Sys.Boards))
	// Every board starts at time 0 in seq order: already a heap.
	h := make(eventHeap, 0, len(procs))
	var seq int64
	for i := range procs {
		procs[i].remaining = refsPerProc
		procs[i].ticket = -1
		h = append(h, procEvent{time: 0, proc: i, seq: seq})
		seq++
	}

	// Per-shard arbitration state: a private Discipline instance per
	// shard (mirroring the concurrent engine's per-shard arbiter) and
	// its arrival-ticket counter. discs stays nil with no discipline
	// configured, keeping the legacy deferral order bit-exact.
	var discs []bus.Discipline
	var tickets []int64
	if e.Sys.disc != nil {
		discs = make([]bus.Discipline, e.Sys.Bus.Shards())
		for i := range discs {
			discs[i] = e.Sys.disc()
		}
		tickets = make([]int64, e.Sys.Bus.Shards())
	}

	// Each fabric shard has its own occupancy clock: a board only
	// waits when the home shard of its next access is busy, which is
	// how the deterministic engine models the backplane's parallelism
	// while keeping one merged virtual timeline.
	busFreeAt := make([]int64, e.Sys.Bus.Shards())
	var elapsed int64
	var refs int64

	for len(h) > 0 {
		ev := h.top()
		p := &procs[ev.proc]
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
		if p.time < busFreeAt[si] && board.UsesBusNext(busAddr(ref.Line), ref.Write) {
			if e.Sys.Obs != nil {
				p.waited += busFreeAt[si] - ev.time
				p.blocker = e.Sys.Bus.Shard(si).LastTxID()
			}
			if discs != nil {
				if p.ticket < 0 {
					p.ticket = tickets[si]
					tickets[si]++
					p.defers = 0
				} else {
					p.defers++
				}
				ev.rank = discs[si].Key(bus.Waiter{Board: ev.proc, Ticket: p.ticket, Skips: p.defers})
			}
			ev.time = busFreeAt[si]
			h.replaceTop(ev)
			continue
		}
		if p.waited > 0 {
			if rec := e.Sys.Obs; rec != nil {
				rec.Emit(obs.Event{
					TS:      rec.Clock(),
					Dur:     p.waited,
					Kind:    obs.KindBlocked,
					Bus:     e.Sys.Bus.SegmentID(busAddr(ref.Line)),
					Proc:    ev.proc,
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
		if busCost > 0 {
			if discs != nil {
				discs[si].Granted(ev.proc)
			}
			if e.Sys.split {
				// Split mode: the shard is occupied only for the on-bus
				// portion (address tenure, drained data tenures, NACK
				// cycles) — the occupancy-clock delta — while the board's
				// own clock also absorbs the off-bus service it stalled
				// on. Overlapped tenures fall out: the next contender may
				// start before this board's stall ends.
				if free := ev.time + (e.Sys.Bus.Shard(si).BusyNanos() - busyBefore); free > busFreeAt[si] {
					busFreeAt[si] = free
				}
			} else {
				busFreeAt[si] = p.time
			}
		}
		p.ticket, p.defers = -1, 0
		if p.time > elapsed {
			elapsed = p.time
		}

		if p.remaining > 0 {
			ev.time = p.time
			ev.rank = 0
			ev.seq = seq
			seq++
			h.replaceTop(ev)
		} else {
			h.pop()
		}
	}

	// Retire any split-mode responses still pending so the final stats
	// account every owed data tenure.
	e.Sys.Bus.DrainPending()
	return e.metrics(refs, elapsed, hit), nil
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
