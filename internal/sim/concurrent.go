package sim

import (
	"fmt"
	"sync"

	"futurebus/internal/bus"
	"futurebus/internal/workload"
)

// busAddr converts a workload line number to a bus address.
func busAddr(line uint64) bus.Addr { return bus.Addr(line) }

// RunConcurrent drives every board from its own goroutine — the natural
// Go mapping of concurrent cache agents — until each has executed
// refsPerProc references, then quiesces and runs the consistency
// checker. Interleavings are scheduler-dependent, so metrics vary
// between runs; correctness (the checker) must not.
func RunConcurrent(sys *System, gens []workload.Generator, refsPerProc int) (Metrics, error) {
	if len(gens) != len(sys.Boards) {
		return Metrics{}, fmt.Errorf("sim: %d generators for %d boards", len(gens), len(sys.Boards))
	}
	errs := make([]error, len(sys.Boards))
	var wg sync.WaitGroup
	for i, board := range sys.Boards {
		wg.Add(1)
		go func(i int, board Board, gen workload.Generator) {
			defer wg.Done()
			for n := 0; n < refsPerProc; n++ {
				ref := gen.Next()
				var err error
				if ref.Write {
					err = board.Write(busAddr(ref.Line), ref.Word, ref.Val)
				} else {
					_, err = board.Read(busAddr(ref.Line), ref.Word)
				}
				if err != nil {
					errs[i] = fmt.Errorf("board %d ref %s: %w", i, ref, err)
					return
				}
				sys.noteRef()
			}
		}(i, board, gens[i])
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return Metrics{}, err
		}
	}
	// Retire any split-mode responses still pending before snapshotting
	// stats, so every owed data tenure is accounted.
	sys.Bus.DrainPending()

	m := Metrics{
		System:     sys.Describe(),
		Procs:      len(sys.Boards),
		Refs:       int64(refsPerProc) * int64(len(sys.Boards)),
		HitLatency: DefaultHitLatency,
		Bus:        sys.Bus.Stats(),
		Memory:     sys.Memory.Stats(),
		Cache:      aggregate(sys.Caches),
		Hist:       histSummaries(sys.Obs),
		Perf:       perfSnapshot(sys.Obs),
	}
	// Shards serve transactions in parallel, so the backplane's
	// contribution to completion time is the busiest shard, not the sum.
	var busiest int64
	for i := 0; i < sys.Bus.Shards(); i++ {
		if busy := sys.Bus.Shard(i).Stats().BusyNanos; busy > busiest {
			busiest = busy
		}
	}
	m.ElapsedNanos = busiest + m.Refs*DefaultHitLatency/int64(max(1, len(sys.Boards)))

	if err := sys.Checker().MustPass(); err != nil {
		return m, err
	}
	return m, nil
}
