package obs

import (
	"testing"

	"futurebus/internal/obs/leaktest"
)

// txEvent builds a KindTx event with a phase breakdown whose occupancy
// phases sum to dur.
func txEvent(seq uint64, proc int, dur, arb, addr, data, intv, mem, retry int64) *Event {
	return &Event{
		Seq: seq, Kind: KindTx, Proc: proc, Dur: dur, Op: "R", Col: 6,
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

// TestAttributionSink: histograms, per-proc attribution and the top-K
// ring all see the same stream.
func TestAttributionSink(t *testing.T) {
	a := NewAttributionSink(2)
	a.SetProcLabel(0, "moesi")
	a.SetProcLabel(1, "dragon")
	a.Consume(txEvent(1, 0, 645, 0, 125, 320, 0, 200, 0))
	a.Consume(txEvent(2, 0, 770, 50, 125, 320, 0, 200, 125))
	a.Consume(txEvent(3, 1, 565, 10, 125, 320, 120, 0, 0))
	a.Consume(&Event{Kind: KindStall, Dur: 999}) // ignored

	sums := a.PhaseSummaries()
	if sums["addr"].Count != 3 || sums["addr"].Max != 125 {
		t.Errorf("addr summary: %+v", sums["addr"])
	}
	// Arb is observed for every tx (zero wait is a real sample)...
	if sums["arb"].Count != 3 || sums["arb"].Max != 50 {
		t.Errorf("arb summary: %+v", sums["arb"])
	}
	// ...but intervention/memory/retry only when they happened.
	if sums["intervention"].Count != 1 || sums["memory"].Count != 2 || sums["retry"].Count != 1 {
		t.Errorf("conditional phases: intv=%+v mem=%+v retry=%+v",
			sums["intervention"], sums["memory"], sums["retry"])
	}

	rep := a.Report()
	if len(rep.Procs) != 2 || rep.Procs[0].Proc != 0 || rep.Procs[0].Tx != 2 {
		t.Fatalf("procs: %+v", rep.Procs)
	}
	if rep.Procs[0].Label != "moesi" || rep.Procs[1].Label != "dragon" {
		t.Errorf("labels: %+v", rep.Procs)
	}
	if got := rep.Procs[0].Phases[PhaseRetry]; got != 125 {
		t.Errorf("proc 0 retry attribution = %d", got)
	}
	if rep.PhasesByLabel["dragon"]["intervention"].Count != 1 {
		t.Errorf("per-label histograms: %+v", rep.PhasesByLabel)
	}

	// Top-K keeps the 2 slowest of the 3, slowest first.
	slow := a.Slowest()
	if len(slow) != 2 || slow[0].Dur != 770 || slow[1].Dur != 645 {
		t.Errorf("slowest: %+v", slow)
	}
	if slow[0].Phases[PhaseRetry] != 125 {
		t.Errorf("slow span lost its breakdown: %+v", slow[0])
	}

	arb, transfer := a.ArbVsTransfer()
	if arb != 60 || transfer != 320*3+120+400 {
		t.Errorf("arb/transfer = %d/%d", arb, transfer)
	}
}

// TestAttributionFind: FindAttribution locates the sink on a recorder.
func TestAttributionFind(t *testing.T) {
	leaktest.Check(t)
	a := NewAttributionSink(0)
	rec := New(NewHistogramSink(), a)
	if FindAttribution(rec) != a {
		t.Error("attribution sink not found")
	}
	rec.Emit(*txEvent(1, 0, 645, 0, 125, 320, 0, 200, 0))
	if err := rec.Close(); err != nil {
		t.Fatal(err)
	}
	if got := a.PhaseSummaries()["addr"].Count; got != 1 {
		t.Errorf("drained tx count = %d", got)
	}
	if FindAttribution(nil) != nil {
		t.Error("nil recorder has an attribution sink")
	}
}
