package bus

import (
	"testing"

	"futurebus/internal/core"
)

// TestStatsRecord: record classifies each transaction by data phase and
// Table 2 column, and accumulates bytes and busy time.
func TestStatsRecord(t *testing.T) {
	var s Stats
	const lineSize = 16

	read := &Transaction{MasterID: 0, Op: core.BusRead, Addr: 1}
	s.record(read, &Result{Cost: 100}, lineSize)
	partial := &Transaction{MasterID: 0, Op: core.BusWrite, Addr: 2, Partial: true, Word: 0, Val: 7}
	s.record(partial, &Result{Cost: 50}, lineSize)
	full := &Transaction{MasterID: 0, Op: core.BusWrite, Addr: 3, Data: make([]byte, lineSize)}
	s.record(full, &Result{Cost: 50}, lineSize)
	addrOnly := &Transaction{MasterID: 0, Op: core.BusAddrOnly, Addr: 4, Signals: core.SigCA | core.SigIM}
	s.record(addrOnly, &Result{Cost: 25}, lineSize)

	if s.Transactions != 4 {
		t.Errorf("transactions = %d, want 4", s.Transactions)
	}
	if s.Reads != 1 || s.Writes != 2 || s.AddrOnly != 1 {
		t.Errorf("split = R%d/W%d/A%d, want 1/2/1", s.Reads, s.Writes, s.AddrOnly)
	}
	// Read moves a line, partial write one word, full write a line,
	// address-only nothing.
	if want := int64(lineSize + 4 + lineSize); s.BytesTransferred != want {
		t.Errorf("bytes = %d, want %d", s.BytesTransferred, want)
	}
	if s.BusyNanos != 225 {
		t.Errorf("busy = %d, want 225", s.BusyNanos)
	}
	var byEvent int64
	for _, n := range s.ByEvent {
		byEvent += n
	}
	if byEvent != 4 {
		t.Errorf("ByEvent total = %d, want 4", byEvent)
	}
}

// TestStatsAdd: Add accumulates every field, including the per-column
// array.
func TestStatsAdd(t *testing.T) {
	a := Stats{
		Transactions: 10, Reads: 5, Writes: 3, AddrOnly: 2,
		Interventions: 1, Updates: 2, Aborts: 3,
		BytesTransferred: 100, BusyNanos: 1000,
	}
	a.ByEvent[0] = 4
	a.ByEvent[5] = 6
	b := Stats{
		Transactions: 1, Reads: 1,
		Interventions: 1, BytesTransferred: 16, BusyNanos: 50,
	}
	b.ByEvent[5] = 1

	a.Add(b)
	if a.Transactions != 11 || a.Reads != 6 || a.Writes != 3 || a.AddrOnly != 2 {
		t.Errorf("after Add: %+v", a)
	}
	if a.Interventions != 2 || a.Updates != 2 || a.Aborts != 3 {
		t.Errorf("after Add: %+v", a)
	}
	if a.BytesTransferred != 116 || a.BusyNanos != 1050 {
		t.Errorf("after Add: %+v", a)
	}
	if a.ByEvent[0] != 4 || a.ByEvent[5] != 7 {
		t.Errorf("ByEvent after Add: %v", a.ByEvent)
	}
}

// TestTxBytes: payload accounting per op.
func TestTxBytes(t *testing.T) {
	const lineSize = 32
	cases := []struct {
		tx   Transaction
		want int
	}{
		{Transaction{Op: core.BusRead}, lineSize},
		{Transaction{Op: core.BusWrite, Partial: true}, 4},
		{Transaction{Op: core.BusWrite}, lineSize},
		{Transaction{Op: core.BusAddrOnly}, 0},
	}
	for _, c := range cases {
		if got := txBytes(&c.tx, lineSize); got != c.want {
			t.Errorf("txBytes(%v) = %d, want %d", c.tx.Op, got, c.want)
		}
	}
}
