package watch

import (
	"math/bits"
	"runtime"
	"testing"

	"futurebus/internal/core"
	"futurebus/internal/obs"
)

// migrations is the clean stream of lines lines, each filled Modified by
// proc 0 and then taken by moves read-for-ownership migrations around
// four procs, in the order a bus emits them: the old owner's snoop
// invalidation, the transaction, the new owner's fill.
func migrations(lines, moves int) []obs.Event {
	moesi := obs.NameOf("moesi")
	var events []obs.Event
	var txid uint64
	var ts int64
	st := func(proc int, addr uint64, from, to core.State, cause obs.Cause) obs.Event {
		return obs.Event{TS: ts, Kind: obs.KindState, Proc: int32(proc), Addr: addr,
			From: from, To: to, Cause: cause, Proto: moesi, TxID: txid}
	}
	for l := 0; l < lines; l++ {
		addr := uint64(l) * 0x40
		txid++
		ts++
		events = append(events,
			obs.Event{TS: ts, Kind: obs.KindTx, Proc: 0, Addr: addr, Col: 6, Op: obs.OpRead, TxID: txid},
			st(0, addr, core.Invalid, core.Modified, obs.CauseFill))
		for m := 1; m <= moves; m++ {
			from, to := (m-1)%4, m%4
			txid++
			ts++
			events = append(events,
				st(from, addr, core.Modified, core.Invalid, obs.CauseSnoopCacheRFO),
				obs.Event{TS: ts, Kind: obs.KindTx, Proc: int32(to), Addr: addr, Col: 6, Op: obs.OpRead, DI: true, TxID: txid},
				st(to, addr, core.Invalid, core.Modified, obs.CauseFill))
		}
	}
	return events
}

func feed(m *Monitor, events []obs.Event) {
	for i := range events {
		m.Consume(&events[i])
	}
}

// TestSecondEpochAllocatesNothing: a sweep's next system over the same
// lines reuses every line's states, context ring and held list, and the
// monitor's pending tables and protocol rows.
func TestSecondEpochAllocatesNothing(t *testing.T) {
	epoch := append([]obs.Event{{Kind: obs.KindEpoch, Proc: -1}}, migrations(64, 12)...)
	m := New(Config{})
	feed(m, epoch)
	if n := testing.AllocsPerRun(5, func() { feed(m, epoch) }); n != 0 {
		t.Errorf("a second epoch over the same 64 lines made %.0f allocations, want 0", n)
	}
	if rep := m.Report(); rep.Total != 0 || rep.Lines != 64 {
		t.Errorf("after 7 epochs: %d lines, %d violations (first: %v)", rep.Lines, rep.Total, rep.First)
	}
}

var indexSink map[uint64]int32

// TestFreshMonitorAllocsPerChunk: a fresh monitor over n lines
// allocates what it does over one line, plus what an index of n lines
// makes on its own, plus one chunk per 64 lines for each of the line
// table and the per-proc states, one per 56 context rings (a ring of
// the default 8 events is 1,152 bytes; a chunk holds 64 KiB), and the
// doubling of the table's chunk list. Nothing is allocated per line.
func TestFreshMonitorAllocsPerChunk(t *testing.T) {
	const n = 1000
	one, many := migrations(1, 2), migrations(n, 2)
	index := testing.AllocsPerRun(10, func() {
		indexSink = make(map[uint64]int32)
		for i := range many {
			indexSink[many[i].Addr] = int32(i)
		}
	})
	fixed := testing.AllocsPerRun(10, func() { feed(New(Config{}), one) })
	fresh := testing.AllocsPerRun(10, func() { feed(New(Config{}), many) })
	chunks := 2*((n+63)/64) + (n+55)/56
	list := bits.Len(uint((n+63)/64-1)) + 1
	if bound := fixed + index + float64(chunks+list); fresh > bound {
		t.Errorf("a fresh monitor over %d lines made %.0f allocations, want at most %.0f: %.0f over one line, %.0f for the index, %d chunks and %d for their list",
			n, fresh, bound, fixed, index, chunks, list)
	}
}

// TestStateEventPastMaxIDBounded: a trace may name any int32 bus and
// proc. A state event whose bus or proc lies outside [0, obs.MaxID) is
// counted as truncated and gets no line or protocol row, so it cannot
// make the monitor allocate in proportion to an id.
func TestStateEventPastMaxIDBounded(t *testing.T) {
	for _, id := range []struct{ bus, proc int32 }{
		{0, obs.MaxID}, {0, 1 << 20}, {1 << 20, 0}, {0, -1}, {-1, 0},
	} {
		e := obs.Event{TS: 1, Kind: obs.KindState, Bus: id.bus, Proc: id.proc, Addr: 0x40,
			From: core.Invalid, To: core.Modified, Cause: obs.CauseFill, Proto: obs.NameOf("moesi"), TxID: 1}
		m := New(Config{})
		if b := bytesAllocated(func() { m.Consume(&e) }); b >= 64<<10 {
			t.Errorf("bus %d proc %d: one state event allocated %d bytes", id.bus, id.proc, b)
		}
		if rep := m.Report(); rep.States != 1 || rep.Lines != 0 || rep.TruncatedEvents != 1 || rep.Total != 0 {
			t.Errorf("bus %d proc %d: %d states, %d lines, %d truncated, %d violations",
				id.bus, id.proc, rep.States, rep.Lines, rep.TruncatedEvents, rep.Total)
		}
	}
}

// bytesAllocated returns the heap bytes f allocates.
func bytesAllocated(f func()) uint64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	f()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}
