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
// refsPerProc references (none when refsPerProc ≤ 0), then quiesces
// and returns the metrics (on a tree, the arbiter its buses share
// serialises the tree). Like Engine.Run it returns only a run's errors
// and judges nothing: System.Check does. Interleavings are
// scheduler-dependent, so metrics vary between runs; the verdict must
// not.
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
	m, err := sys.finish(int64(max(refsPerProc, 0))*int64(len(sys.Boards)), 0)
	// Shards, and a tree's buses, serve transactions in parallel (a
	// tree's shared arbiter serialises only the host), so the buses'
	// contribution to completion time is the busiest one's, not the sum.
	var busiest int64
	for _, b := range sys.buses {
		busiest = max(busiest, b.Stats().BusyNanos)
	}
	m.ElapsedNanos = busiest + m.Refs*DefaultHitLatency/int64(max(1, len(sys.Boards)))
	return m, err
}
