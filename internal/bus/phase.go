package bus

// PhaseCosts decomposes one transaction's simulated time by bus phase,
// in nanoseconds — the paper's Table 2 costs broken down to where the
// time actually went. Addr+Data+Intervention+Memory+Retry always equals
// Result.Cost; Arb is waiting time (the bus was occupied by others), so
// it is attributed to the master but not counted as bus occupancy.
type PhaseCosts struct {
	// Arb is the simulated time the master waited for the arbiter's
	// grant while earlier transactions occupied the bus. It is measured
	// against the recorder's occupancy clock, so it is zero when
	// observability is off or the bus was idle.
	Arb int64 `json:"arb"`
	// Addr is the successful broadcast address handshake, including the
	// 25 ns wired-OR glitch-filter penalty (§2.2).
	Addr int64 `json:"addr"`
	// Data is the transfer beats of the data phase: per-word cycles
	// plus the wired-OR penalty on multi-party (broadcast) data cycles.
	Data int64 `json:"data"`
	// Intervention is the first-word latency paid when an owning cache
	// preempted memory (DI) — the cache-to-cache supply path.
	Intervention int64 `json:"intervention"`
	// Memory is the first-word latency paid when main memory responded
	// (reads it served, writes it accepted).
	Memory int64 `json:"memory"`
	// Retry is the BS abort/retry overhead: the address cycles of every
	// aborted attempt. The owner's recovery pushes run as nested
	// transactions and are accounted (and emitted) as their own
	// transactions, charged to the recovering owner. In split mode a
	// NACK (pending table full) charges its extra address cycle here
	// too — the NACK is the split-mode fold of the BS abort.
	Retry int64 `json:"retry"`
	// Pend is the off-bus memory service of a split transaction: the
	// first-word latency spent in the pending-transaction table while
	// other masters use the bus. Zero in atomic mode. Not bus occupancy.
	Pend int64 `json:"pend,omitempty"`
	// Deferred is the data-phase transfer time a split transaction
	// retires in a later data tenure of its own. It is charged to the
	// shard's occupancy clock when that tenure runs (KindData), so it is
	// excluded here from Occupancy to keep Occupancy() == Result.Cost.
	Deferred int64 `json:"deferred,omitempty"`
}

// Occupancy is the bus-occupied portion of the breakdown during the
// address tenure — everything except the arbitration wait and the
// split-mode off-bus phases. It equals Result.Cost.
func (p PhaseCosts) Occupancy() int64 {
	return p.Addr + p.Data + p.Intervention + p.Memory + p.Retry
}
