package obs

import "testing"

// txEvent builds a KindTx event with a phase breakdown whose occupancy
// phases sum to dur.
func txEvent(seq uint64, proc int, dur, arb, addr, data, intv, mem, retry int64) *Event {
	return &Event{
		Seq: seq, Kind: KindTx, Proc: int32(proc), Dur: dur, Op: OpRead, Col: 6,
		ArbNS: arb, AddrNS: addr, DataNS: data, IntvNS: intv, MemNS: mem, RetryNS: retry,
	}
}

// TestSpanFromEvent: only tx events reconstruct, and the phase fields
// land in the right slots.
func TestSpanFromEvent(t *testing.T) {
	if _, ok := SpanFromEvent(&Event{Kind: KindState}); ok {
		t.Error("state event produced a span")
	}
	span, ok := SpanFromEvent(txEvent(7, 3, 645, 50, 125, 320, 0, 200, 0))
	if !ok {
		t.Fatal("tx event did not produce a span")
	}
	if span.Seq != 7 || span.Proc != 3 || span.Dur != 645 {
		t.Errorf("span header: %+v", span)
	}
	want := [NumPhases]int64{PhaseArb: 50, PhaseAddr: 125, PhaseData: 320, PhaseMemory: 200}
	if span.Phases != want {
		t.Errorf("phases = %v, want %v", span.Phases, want)
	}
	var sum int64
	for ph := PhaseAddr; ph < NumPhases; ph++ {
		sum += span.Phases[ph]
	}
	if sum != span.Dur {
		t.Errorf("occupancy phases sum to %d, dur is %d", sum, span.Dur)
	}
}
