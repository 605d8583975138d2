package bus

import "futurebus/internal/core"

// Timing is the transaction cost model, in nanoseconds. The absolute
// values are representative of the paper's era (1986 backplane, DRAM
// main memory, SRAM cache arrays); the experiments depend only on their
// ratios. §5.2 notes the preferred protocol choice is sensitive to
// exactly these relative costs, which is why they are configurable.
type Timing struct {
	// AddressCycle is the broadcast address handshake: master drives
	// the address and AS*, all units acknowledge (AK*), and the cycle
	// completes when the wired-OR AI* rises (§2.1–2.2).
	AddressCycle int64
	// WiredORPenalty is the asymmetric inertial-delay filter cost that
	// makes broadcast handshaking 25 ns slower than single-slave
	// transactions (§2.2). Charged on every address cycle (addresses
	// are always broadcast) and again on multi-party data phases.
	WiredORPenalty int64
	// DataPerWord is the per-word transfer cost of the data phase
	// between two parties.
	DataPerWord int64
	// MemoryFirstWord is the first-word access latency of main memory.
	MemoryFirstWord int64
	// InterventionFirstWord is the first-word latency when an owning
	// cache intervenes (DI) — a cache array is faster than DRAM.
	InterventionFirstWord int64
	// WordBytes is the bus width in bytes.
	WordBytes int
}

// DefaultTiming returns the cost model used by the experiments.
func DefaultTiming() Timing {
	return Timing{
		AddressCycle:          100,
		WiredORPenalty:        25,
		DataPerWord:           40,
		MemoryFirstWord:       200,
		InterventionFirstWord: 120,
		WordBytes:             4,
	}
}

// AddressCycleCost is the cost of one broadcast address cycle. Every
// Futurebus address cycle is broadcast, so the wired-OR penalty always
// applies (§2.3a).
func (t Timing) AddressCycleCost() int64 {
	return t.AddressCycle + t.WiredORPenalty
}

// DataPhaseCost is the cost of the data phase of a completed
// transaction: the transfer beats plus the responder's first-word
// latency. See DataPhaseParts for the decomposition.
func (t Timing) DataPhaseCost(tx *Transaction, r *Result, lineSize int) int64 {
	beats, firstWord, _ := t.DataPhaseParts(tx, r, lineSize)
	return beats + firstWord
}

// DataPhaseParts decomposes the data-phase cost of a completed
// transaction into the transfer beats (per-word cycles, plus the
// wired-OR penalty on multi-party data cycles) and the responder's
// first-word latency; fromOwner reports whether that latency was paid
// by an intervening cache (DI) rather than main memory. The sum of the
// parts is exactly DataPhaseCost.
func (t Timing) DataPhaseParts(tx *Transaction, r *Result, lineSize int) (beats, firstWord int64, fromOwner bool) {
	if tx.Op == core.BusAddrOnly {
		return 0, 0, false
	}
	words := int64((lineSize + t.WordBytes - 1) / t.WordBytes)
	if tx.Partial {
		words = 1
	}
	beats = words * t.DataPerWord
	switch tx.Op {
	case core.BusRead:
		fromOwner = r.DI
	case core.BusWrite:
		// Writes complete when the slowest participant accepts; memory
		// participates unless preempted by DI.
		fromOwner = r.DI && !tx.Signals.Has(core.SigBC)
	}
	if fromOwner {
		firstWord = t.InterventionFirstWord
	} else {
		firstWord = t.MemoryFirstWord
	}
	// Multi-party transfers (broadcast writes, connected SL slaves)
	// pay the wired-OR handshake on data cycles too (§2.3b: only
	// participating units monitor data cycles, so two-party transfers
	// run at full speed).
	if tx.Signals.Has(core.SigBC) {
		beats += t.WiredORPenalty * words
	}
	return beats, firstWord, fromOwner
}
