package bus

import (
	"fmt"
	"strings"

	"futurebus/internal/core"
	"futurebus/internal/obs"
)

// Stats accumulates per-bus counters. All fields are totals since the
// bus was created; they are updated under the bus arbiter, so a
// snapshot taken via Bus.Stats is consistent.
type Stats struct {
	// Transactions counts completed (non-aborted) transactions.
	Transactions int64
	// ByEvent counts completed transactions per Table 2 column.
	ByEvent [6]int64
	// Reads, Writes, AddrOnly split completed transactions by data
	// phase.
	Reads, Writes, AddrOnly int64
	// Interventions counts transactions where an owner preempted
	// memory (DI).
	Interventions int64
	// Updates counts snooper copies refreshed by connecting (SL) on a
	// write.
	Updates int64
	// Aborts counts BS aborts (each forces a recovery push + retry).
	Aborts int64
	// Nacks counts split-mode NACKs: a transaction found the pending
	// table full and paid a retry address cycle (the split-mode fold of
	// the BS abort).
	Nacks int64
	// DataTenures counts split-mode data tenures retired: deferred
	// responses that re-arbitrated and moved their beats.
	DataTenures int64
	// RetryExhausted counts transactions that aborted more times than
	// maxRetries allows and failed with ErrTooManyRetries — a wedged
	// protocol, surfaced as futurebus_retry_exhausted_total.
	RetryExhausted int64
	// BytesTransferred counts data-phase bytes.
	BytesTransferred int64
	// BusyNanos is total bus-occupied time under the Timing model,
	// including split-mode data tenures and NACK cycles.
	BusyNanos int64
}

func (s *Stats) record(tx *Transaction, r *Result, lineSize int) {
	s.Transactions++
	s.ByEvent[tx.Event()]++
	switch tx.Op {
	case core.BusRead:
		s.Reads++
	case core.BusWrite:
		s.Writes++
	case core.BusAddrOnly:
		s.AddrOnly++
	}
	s.BytesTransferred += int64(txBytes(tx, lineSize))
	s.BusyNanos += r.Cost
}

// txBytes is the data-phase payload size of a transaction: a read
// moves a line, a partial write one word, an address-only cycle
// nothing. Shared by Stats and the obs event emission.
func txBytes(tx *Transaction, lineSize int) int {
	switch tx.Op {
	case core.BusRead:
		return lineSize
	case core.BusWrite:
		if tx.Partial {
			return 4
		}
		return lineSize
	}
	return 0
}

// eventOp is the data phase of op for event streams.
func eventOp(op core.BusOp) obs.Op {
	switch op {
	case core.BusRead:
		return obs.OpRead
	case core.BusWrite:
		return obs.OpWrite
	default:
		return obs.OpAddr
	}
}

// Add accumulates other into s.
func (s *Stats) Add(other Stats) {
	s.Transactions += other.Transactions
	for i := range s.ByEvent {
		s.ByEvent[i] += other.ByEvent[i]
	}
	s.Reads += other.Reads
	s.Writes += other.Writes
	s.AddrOnly += other.AddrOnly
	s.Interventions += other.Interventions
	s.Updates += other.Updates
	s.Aborts += other.Aborts
	s.Nacks += other.Nacks
	s.DataTenures += other.DataTenures
	s.RetryExhausted += other.RetryExhausted
	s.BytesTransferred += other.BytesTransferred
	s.BusyNanos += other.BusyNanos
}

func (s Stats) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "transactions=%d (R=%d W=%d addr=%d)", s.Transactions, s.Reads, s.Writes, s.AddrOnly)
	fmt.Fprintf(&b, " interventions=%d updates=%d aborts=%d", s.Interventions, s.Updates, s.Aborts)
	if s.Nacks > 0 || s.DataTenures > 0 {
		fmt.Fprintf(&b, " nacks=%d dataTenures=%d", s.Nacks, s.DataTenures)
	}
	if s.RetryExhausted > 0 {
		fmt.Fprintf(&b, " retryExhausted=%d", s.RetryExhausted)
	}
	fmt.Fprintf(&b, " bytes=%d busy=%dns", s.BytesTransferred, s.BusyNanos)
	return b.String()
}
