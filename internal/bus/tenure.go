package bus

import (
	"fmt"

	"futurebus/internal/core"
)

// TenurePolicy decides how much of a transaction a bus tenure covers.
//
// The paper's §5 bus (AtomicTenure) holds the master through the whole
// address + data sequence: memory's first-word latency is spent with
// the bus idle but granted, which is what saturates first under heavy
// traffic. SplitTenure decouples the phases: the address tenure ends
// after the broadcast handshake, memory service proceeds off-bus while
// other masters use the bus, and the response later arbitrates for a
// short data tenure of its own. In-flight requests live in a bounded
// per-shard pending-transaction table; when the table is full the bus
// NACKs the requester — the split-mode fold of the BS abort — charging
// it one retry address cycle while the oldest response is force-drained
// to make room, so progress is guaranteed.
//
// Only the timing model splits: data still moves under the address
// tenure, so every per-line ordering and coherence invariant (§3.1)
// holds exactly as in atomic mode. What changes is accounting — bus
// occupancy (Result.Cost) excludes the off-bus service and deferred
// beats, which show up as PhaseCosts.Pend / PhaseCosts.Deferred and in
// the master's Result.StallCost.
type TenurePolicy interface {
	// Name identifies the policy ("atomic", "split") in reports.
	Name() string
	// Deferrable reports whether a completed attempt's data phase may be
	// decoupled from its address tenure. di is the resolved wired-OR DI
	// line (an owner intervened); called under the shard's arbiter lock.
	Deferrable(tx *Transaction, di bool) bool
	// TableSize bounds the per-shard pending-transaction table; 0 means
	// the policy never defers (atomic mode).
	TableSize() int
}

// DefaultPendingTable is the split-mode pending-transaction table size
// used when none is configured — small, like the request queues of
// real split-transaction backplanes, so the NACK path is reachable.
const DefaultPendingTable = 8

// atomicTenure is the classic single-grant tenure.
type atomicTenure struct{}

// AtomicTenure returns the default policy: one grant covers address,
// data and memory service, exactly the paper's electrical model.
func AtomicTenure() TenurePolicy { return atomicTenure{} }

func (atomicTenure) Name() string                       { return "atomic" }
func (atomicTenure) Deferrable(*Transaction, bool) bool { return false }
func (atomicTenure) TableSize() int                     { return 0 }

// splitTenure is the split-transaction policy.
type splitTenure struct{ table int }

// SplitTenure returns a split-transaction policy with the given
// pending-table bound per shard (0 = DefaultPendingTable).
func SplitTenure(table int) TenurePolicy {
	if table <= 0 {
		table = DefaultPendingTable
	}
	return splitTenure{table: table}
}

func (splitTenure) Name() string { return "split" }

// Deferrable: whole-line transfers serviced by memory split; everything
// that must resolve during the address tenure stays atomic — address-
// only cycles have no data phase, partial (single-word) writes and
// broadcast updates complete in one beat anyway, and an intervening
// owner (DI) supplies cache-to-cache during the tenure it snooped.
func (splitTenure) Deferrable(tx *Transaction, di bool) bool {
	if tx.Op == core.BusAddrOnly || tx.Partial {
		return false
	}
	if tx.Signals.Has(core.SigBC) {
		return false
	}
	switch tx.Op {
	case core.BusRead, core.BusWrite:
		return !di
	}
	return false
}

func (s splitTenure) TableSize() int { return s.table }

// NewTenure resolves a tenure-mode name ("", "atomic", "split") to a
// policy; table bounds the split pending table (0 = default).
func NewTenure(name string, table int) (TenurePolicy, error) {
	switch name {
	case "", "atomic":
		return AtomicTenure(), nil
	case "split":
		return SplitTenure(table), nil
	}
	return nil, fmt.Errorf("bus: unknown tenure mode %q (have atomic, split)", name)
}

// pendEntry is one in-flight split transaction: its address tenure is
// over, memory service completes (off-bus) at readyAt on the shard's
// occupancy clock, and the response still owes beats of data tenure.
type pendEntry struct {
	txid   uint64
	master int
	addr   Addr
	// beats is the data-phase transfer time owed by the data tenure.
	beats int64
	// readyAt is the shard occupancy-clock (Stats.BusyNanos) value at
	// which the off-bus memory service is complete and the response may
	// win a data tenure.
	readyAt int64
}
