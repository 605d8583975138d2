package bus

import (
	"runtime"
	"testing"

	"futurebus/internal/core"
	"futurebus/internal/obs"
)

// TestPhaseDecompositionRead: a memory-served read decomposes into one
// address cycle, the data beats and the memory first-word, and the
// parts sum back to the cost.
func TestPhaseDecompositionRead(t *testing.T) {
	mem := newFakeMemory(16)
	b := New(mem, Config{LineSize: 16})
	ti := b.Timing()

	res, err := b.Execute(Transaction{MasterID: 0, Signals: core.SigCA, Op: core.BusRead, Addr: 1, Data: make([]byte, b.LineSize())})
	if err != nil {
		t.Fatal(err)
	}
	p := res.Phases
	if p.Occupancy() != res.Cost {
		t.Errorf("phases sum to %d, cost is %d (%+v)", p.Occupancy(), res.Cost, p)
	}
	if p.Addr != ti.AddressCycleCost() {
		t.Errorf("addr phase = %d, want %d", p.Addr, ti.AddressCycleCost())
	}
	words := int64(16 / ti.WordBytes)
	if p.Data != words*ti.DataPerWord {
		t.Errorf("data phase = %d, want %d", p.Data, words*ti.DataPerWord)
	}
	if p.Memory != ti.MemoryFirstWord || p.Intervention != 0 {
		t.Errorf("memory/intervention = %d/%d", p.Memory, p.Intervention)
	}
	if p.Retry != 0 || p.Arb != 0 {
		t.Errorf("retry/arb = %d/%d", p.Retry, p.Arb)
	}
}

// TestPhaseDecompositionIntervention: a DI owner shifts the first-word
// latency from the memory phase to the intervention phase.
func TestPhaseDecompositionIntervention(t *testing.T) {
	b := New(newFakeMemory(16), Config{LineSize: 16})
	b.Attach(&fakeSnooper{id: 1, resp: respond("O,CH,DI", lineOf(16, 0xBEEF))})

	res, err := b.Execute(Transaction{MasterID: 0, Signals: core.SigCA, Op: core.BusRead, Addr: 7, Data: make([]byte, b.LineSize())})
	if err != nil {
		t.Fatal(err)
	}
	p := res.Phases
	if p.Intervention != b.Timing().InterventionFirstWord || p.Memory != 0 {
		t.Errorf("intervention/memory = %d/%d", p.Intervention, p.Memory)
	}
	if p.Occupancy() != res.Cost {
		t.Errorf("phases sum to %d, cost is %d", p.Occupancy(), res.Cost)
	}
}

// TestPhaseDecompositionRetry: a BS abort charges the aborted address
// cycle to the retry phase, and the tx event carries the breakdown.
func TestPhaseDecompositionRetry(t *testing.T) {
	var events []obs.Event
	rec := obs.New(obs.SinkFunc(func(e *obs.Event) {
		if e.Kind == obs.KindTx {
			events = append(events, *e)
		}
	}))
	mem := newFakeMemory(16)
	b := New(mem, Config{LineSize: 16, Obs: rec})
	owner := &abortingSnooper{fakeSnooper: fakeSnooper{id: 1}, data: lineOf(16, 0xCAFE)}
	b.Attach(owner)

	res, err := b.Execute(Transaction{MasterID: 0, Signals: core.SigCA, Op: core.BusRead, Addr: 11, Data: make([]byte, b.LineSize())})
	if err != nil {
		t.Fatal(err)
	}
	if err := rec.Close(); err != nil {
		t.Fatal(err)
	}
	p := res.Phases
	if p.Retry != b.Timing().AddressCycleCost() {
		t.Errorf("retry phase = %d, want one address cycle (%d)", p.Retry, b.Timing().AddressCycleCost())
	}
	if p.Occupancy() != res.Cost {
		t.Errorf("phases sum to %d, cost is %d", p.Occupancy(), res.Cost)
	}
	// Two tx events drained: the nested recovery push, then the retried
	// master transaction with the retry overhead attributed.
	if len(events) != 2 {
		t.Fatalf("tx events = %d", len(events))
	}
	last := events[len(events)-1]
	if last.RetryNS != p.Retry || last.AddrNS != p.Addr || last.MemNS != p.Memory {
		t.Errorf("event phases %+v != result phases %+v", last, p)
	}
	if last.AddrNS+last.DataNS+last.IntvNS+last.MemNS+last.RetryNS != last.Dur {
		t.Errorf("event phases do not sum to Dur: %+v", last)
	}
}

// TestArbitrationWait: a master that contends for a held bus while the
// holder's transaction advances the occupancy clock sees exactly that
// advance as its arbitration-wait phase. Deterministic: the contender
// is provably queued (pending ticket) before the holder runs its
// transaction, and its wait-start clock was read before it took the
// ticket.
func TestArbitrationWait(t *testing.T) {
	var spans []obs.Event
	rec := obs.New(obs.SinkFunc(func(e *obs.Event) {
		if e.Kind == obs.KindTx {
			spans = append(spans, *e)
		}
	}))
	b := New(newFakeMemory(16), Config{LineSize: 16, Obs: rec})

	b.Acquire(5, -1) // hold the bus before the contender arrives
	done := make(chan Result, 1)
	go func() {
		res, err := b.Execute(Transaction{MasterID: 1, Signals: core.SigCA, Op: core.BusRead, Addr: 3, Data: make([]byte, b.LineSize())})
		if err != nil {
			t.Error(err)
		}
		done <- res
	}()
	for b.arb.mu.pending() < 2 {
		runtime.Gosched()
	}

	held, err := b.ExecuteHeld(Transaction{MasterID: 0, Signals: core.SigCA, Op: core.BusRead, Addr: 5, Data: make([]byte, b.LineSize())})
	if err != nil {
		t.Fatal(err)
	}
	if held.Phases.Arb != 0 {
		t.Errorf("holder arb = %d, want 0", held.Phases.Arb)
	}
	b.Release(5)

	res := <-done
	if res.Phases.Arb != held.Cost {
		t.Errorf("contender arb = %d, want the holder's occupancy %d", res.Phases.Arb, held.Cost)
	}
	if res.Phases.Occupancy() != res.Cost {
		t.Errorf("phases sum to %d, cost is %d", res.Phases.Occupancy(), res.Cost)
	}
	if err := rec.Close(); err != nil {
		t.Fatal(err)
	}
	if len(spans) != 2 || spans[1].ArbNS != held.Cost {
		t.Errorf("events: want 2 with contender ArbNS=%d, got %+v", held.Cost, spans)
	}
	// A fresh mastership must not inherit the old wait.
	clean, err := b.Execute(Transaction{MasterID: 0, Signals: core.SigCA, Op: core.BusRead, Addr: 9, Data: make([]byte, b.LineSize())})
	if err != nil {
		t.Fatal(err)
	}
	if clean.Phases.Arb != 0 {
		t.Errorf("uncontended arb = %d, want 0", clean.Phases.Arb)
	}
}

// TestDataPhasePartsMatchCost: the decomposition and the legacy total
// agree on every op shape.
func TestDataPhasePartsMatchCost(t *testing.T) {
	ti := DefaultTiming()
	cases := []struct {
		tx Transaction
		r  Result
	}{
		{Transaction{Op: core.BusRead}, Result{}},
		{Transaction{Op: core.BusRead}, Result{DI: true}},
		{Transaction{Op: core.BusWrite}, Result{}},
		{Transaction{Op: core.BusWrite, Signals: core.SigBC}, Result{DI: true}},
		{Transaction{Op: core.BusWrite, Partial: true}, Result{DI: true}},
		{Transaction{Op: core.BusAddrOnly}, Result{}},
	}
	for i, c := range cases {
		beats, firstWord, _ := ti.DataPhaseParts(&c.tx, &c.r, 32)
		if got := ti.DataPhaseCost(&c.tx, &c.r, 32); beats+firstWord != got {
			t.Errorf("case %d: parts %d+%d != cost %d", i, beats, firstWord, got)
		}
	}
}
