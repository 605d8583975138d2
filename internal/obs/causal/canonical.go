package causal

import (
	"sort"

	"futurebus/internal/obs"
)

// Canonicalize rewrites an event stream into a scheduler-independent
// normal form so two recordings of the same logical run compare equal.
//
// The concurrent engine's goroutines race for the FIFO arbiter, so two
// same-seed runs interleave differently: global sequence numbers,
// occupancy timestamps, arbitration waits and TxIDs all differ even
// when every board performed the identical transaction sequence.
// Canonicalize keeps exactly the per-board program-order facts:
//
//   - only KindTx events survive (grants, waits and instants are
//     interleaving artifacts);
//   - events sort by (Proc, Seq) — each board's own emission order is
//     its program order;
//   - timestamps are re-derived as each board's cumulative occupancy,
//     and the arbitration-wait field (pure interleaving) is zeroed;
//   - Seq, TxID are renumbered densely in canonical order, and CauseID
//     is remapped through the same table (unknown references drop to 0).
//
// The result is a valid event stream: feed it to AnalyzeEvents (or any
// sink) to get a canonical Analysis whose critical path is comparable
// across runs.
func Canonicalize(events []obs.Event) []obs.Event {
	out := make([]obs.Event, 0, len(events))
	for i := range events {
		if events[i].Kind == obs.KindTx {
			out = append(out, events[i])
		}
	}
	sort.SliceStable(out, func(i, j int) bool {
		if out[i].Proc != out[j].Proc {
			return out[i].Proc < out[j].Proc
		}
		return out[i].Seq < out[j].Seq
	})

	remap := make(map[uint64]uint64, len(out))
	for i := range out {
		if out[i].TxID != 0 {
			remap[out[i].TxID] = uint64(i + 1)
		}
	}
	clock := make(map[int32]int64)
	for i := range out {
		e := &out[i]
		e.Seq = uint64(i)
		e.TS = clock[e.Proc]
		clock[e.Proc] += e.Dur
		e.ArbNS = 0
		e.TxID = remap[e.TxID]
		e.CauseID = remap[e.CauseID]
	}
	return out
}
