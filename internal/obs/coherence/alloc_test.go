package coherence

import (
	"math/bits"
	"runtime"
	"testing"

	"futurebus/internal/obs"
)

// migrations is the stream of lines lines, each filled Modified by proc
// 0 and then taken by moves read-for-ownership migrations around four
// procs, in the order a bus emits them: the old owner's snoop
// invalidation, the transaction, the new owner's fill. Every migration
// is a direct ownership move and adds a chain link.
func migrations(lines, moves int) []obs.Event {
	var events []obs.Event
	var txid uint64
	var ts int64
	for l := 0; l < lines; l++ {
		addr := uint64(l) * 0x40
		txid++
		ts++
		events = append(events,
			obs.Event{TS: ts, Kind: obs.KindTx, Proc: 0, Addr: addr, Col: 6, Op: obs.OpRead, TxID: txid},
			state(ts, 0, addr, "I", "M", "fill", "moesi", txid))
		for m := 1; m <= moves; m++ {
			from, to := (m-1)%4, m%4
			txid++
			ts++
			events = append(events,
				state(ts, from, addr, "M", "I", "snoop-cache-rfo", "moesi", txid),
				obs.Event{TS: ts, Kind: obs.KindTx, Proc: int32(to), Addr: addr, Col: 6, Op: obs.OpRead, DI: true, TxID: txid},
				state(ts, to, addr, "I", "M", "fill", "moesi", txid))
		}
	}
	return events
}

// TestSecondEpochAllocatesNothing: a sweep's next system over the same
// lines reuses every line's slots, the masters and their fan-out
// histograms, and the pending table. The lines' chains are full, so no
// link is stored either.
func TestSecondEpochAllocatesNothing(t *testing.T) {
	epoch := append([]obs.Event{{Kind: obs.KindEpoch, Proc: -1}}, migrations(64, MaxChainLen+8)...)
	var a Analyzer
	feed(&a, epoch...)
	if n := testing.AllocsPerRun(5, func() { feed(&a, epoch...) }); n != 0 {
		t.Errorf("a second epoch over the same 64 lines made %.0f allocations, want 0", n)
	}
	if an := a.Analyze(-1); an.Lines != 64 || an.Protocols["moesi"].OwnershipMoves != 7*64*(MaxChainLen+8) {
		t.Errorf("after 7 epochs: %d lines, %d ownership moves", an.Lines, an.Protocols["moesi"].OwnershipMoves)
	}
}

var indexSink map[uint64]int32

// TestFreshAnalyzerAllocsPerChunk: a fresh analyzer over n lines
// allocates what it does over one line, plus what an index of n lines
// makes on its own, plus one chunk per 64 lines for each of the line
// table, the per-proc slots and the chain blocks, and the doubling of
// the table's chunk list. Nothing is allocated per line.
func TestFreshAnalyzerAllocsPerChunk(t *testing.T) {
	const n = 1000
	one, many := migrations(1, 2), migrations(n, 2)
	index := testing.AllocsPerRun(10, func() {
		indexSink = make(map[uint64]int32)
		for i := range many {
			indexSink[many[i].Addr] = int32(i)
		}
	})
	fixed := testing.AllocsPerRun(10, func() { feed(&Analyzer{}, one...) })
	fresh := testing.AllocsPerRun(10, func() { feed(&Analyzer{}, many...) })
	chunks := (n + 63) / 64
	list := bits.Len(uint(chunks-1)) + 1
	if bound := fixed + index + float64(3*chunks+list); fresh > bound {
		t.Errorf("a fresh analyzer over %d lines made %.0f allocations, want at most %.0f: %.0f over one line, %.0f for the index, %d chunks and %d for their list",
			n, fresh, bound, fixed, index, 3*chunks, list)
	}
}

// TestStateEventPastMaxIDBounded: a trace may name any int32 proc. A
// state event from a proc past obs.MaxID still counts in the matrices,
// but it is counted as truncated and gets no line, so it cannot make
// the analyzer allocate in proportion to its proc.
func TestStateEventPastMaxIDBounded(t *testing.T) {
	for _, proc := range []int{obs.MaxID, 1 << 20} {
		e := state(1, proc, 0x40, "I", "M", "fill", "moesi", 1)
		var a Analyzer
		if b := bytesAllocated(func() { a.Consume(&e) }); b >= 64<<10 {
			t.Errorf("proc %d: one state event allocated %d bytes", proc, b)
		}
		an := a.Analyze(0)
		if an.StateEvents != 1 || an.Protocols["moesi"].Transitions != 1 || an.Lines != 0 || an.TruncatedLines != 1 {
			t.Errorf("proc %d: %d state events, %d lines, %d truncated", proc, an.StateEvents, an.Lines, an.TruncatedLines)
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
