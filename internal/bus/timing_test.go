package bus

import (
	"runtime"
	"testing"

	"futurebus/internal/core"
)

// TestAddressCycleIncludesBroadcastPenalty: every Futurebus address
// cycle is broadcast (§2.3a), so the 25 ns wired-OR penalty always
// applies.
func TestAddressCycleIncludesBroadcastPenalty(t *testing.T) {
	tm := DefaultTiming()
	if got := tm.AddressCycleCost(); got != tm.AddressCycle+tm.WiredORPenalty {
		t.Errorf("address cycle cost = %d", got)
	}
}

// TestDataPhaseCosts pins the relative costs the protocol preferences
// depend on (§5.2): intervention beats memory, broadcast pays the
// wired-OR penalty per word, partial writes move one word.
func TestDataPhaseCosts(t *testing.T) {
	tm := DefaultTiming()
	const lineSize = 32
	words := int64(lineSize / tm.WordBytes)

	memRead := tm.DataPhaseCost(&Transaction{Op: core.BusRead}, &Result{}, lineSize)
	diRead := tm.DataPhaseCost(&Transaction{Op: core.BusRead}, &Result{DI: true}, lineSize)
	if memRead != tm.MemoryFirstWord+words*tm.DataPerWord {
		t.Errorf("memory read cost = %d", memRead)
	}
	if diRead >= memRead {
		t.Errorf("intervention (%d) not faster than memory (%d)", diRead, memRead)
	}

	addrOnly := tm.DataPhaseCost(&Transaction{Op: core.BusAddrOnly}, &Result{}, lineSize)
	if addrOnly != 0 {
		t.Errorf("address-only data cost = %d", addrOnly)
	}

	partial := tm.DataPhaseCost(&Transaction{
		Op: core.BusWrite, Signals: core.SigIM,
		Partial: true,
	}, &Result{}, lineSize)
	full := tm.DataPhaseCost(&Transaction{Op: core.BusWrite, Data: make([]byte, lineSize)}, &Result{}, lineSize)
	if partial >= full {
		t.Errorf("partial write (%d) not cheaper than full line (%d)", partial, full)
	}

	bc := tm.DataPhaseCost(&Transaction{
		Op: core.BusWrite, Signals: core.SigIM | core.SigBC,
		Partial: true,
	}, &Result{SL: true}, lineSize)
	if bc != partial+tm.WiredORPenalty {
		t.Errorf("broadcast word cost = %d, want %d (+penalty)", bc, partial+tm.WiredORPenalty)
	}

	captured := tm.DataPhaseCost(&Transaction{
		Op: core.BusWrite, Signals: core.SigIM, Partial: true,
	}, &Result{DI: true}, lineSize)
	if captured >= partial {
		t.Errorf("DI capture (%d) not faster than memory write (%d)", captured, partial)
	}
}

// TestStatsRecordAndAdd covers the counters the experiments report.
func TestStatsRecordAndAdd(t *testing.T) {
	var s Stats
	s.record(&Transaction{Op: core.BusRead, Signals: core.SigCA}, &Result{Cost: 100}, 32)
	s.record(&Transaction{Op: core.BusWrite, Signals: core.SigIM, Partial: true}, &Result{Cost: 50}, 32)
	s.record(&Transaction{Op: core.BusWrite, Data: make([]byte, 32)}, &Result{Cost: 70}, 32)
	s.record(&Transaction{Op: core.BusAddrOnly, Signals: core.SigCA | core.SigIM}, &Result{Cost: 10}, 32)

	if s.Transactions != 4 || s.Reads != 1 || s.Writes != 2 || s.AddrOnly != 1 {
		t.Errorf("counters: %+v", s)
	}
	if s.BytesTransferred != 32+4+32 {
		t.Errorf("bytes = %d", s.BytesTransferred)
	}
	if s.BusyNanos != 230 {
		t.Errorf("busy = %d", s.BusyNanos)
	}
	if s.ByEvent[core.BusCacheRead] != 1 || s.ByEvent[core.BusCacheRFO] != 1 {
		t.Errorf("by-event: %v", s.ByEvent)
	}

	var sum Stats
	sum.Add(s)
	sum.Add(s)
	if sum.Transactions != 8 || sum.BytesTransferred != 2*s.BytesTransferred {
		t.Errorf("Add: %+v", sum)
	}
	if got := s.String(); got == "" {
		t.Error("empty stats string")
	}
}

// TestFIFOMutexOrder: with no discipline installed the arbiter grants
// strictly in arrival order (the pre-Discipline ticket-lock contract).
func TestFIFOMutexOrder(t *testing.T) {
	var m arbMutex
	m.Lock(-1)
	order := make(chan int, 2)
	ready := make(chan struct{}, 2)
	go func() {
		ready <- struct{}{}
		m.Lock(1)
		order <- 1
		m.Unlock()
	}()
	<-ready
	// Wait until the first contender is parked with its ticket.
	for !waitersParked(&m, 1) {
		runtime.Gosched()
	}
	go func() {
		ready <- struct{}{}
		m.Lock(2)
		order <- 2
		m.Unlock()
	}()
	<-ready
	for !waitersParked(&m, 2) {
		runtime.Gosched()
	}
	m.Unlock()
	first, second := <-order, <-order
	if first != 1 || second != 2 {
		t.Errorf("grant order %d,%d", first, second)
	}
}

func waitersParked(m *arbMutex, n int) bool {
	m.mu.Lock()
	defer m.mu.Unlock()
	return len(m.waiters) >= n
}
