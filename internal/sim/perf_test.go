package sim

import (
	"testing"
	"time"

	"futurebus/internal/bus"
	"futurebus/internal/core"
	"futurebus/internal/obs"
	"futurebus/internal/obs/perf"
)

// Both engines must fill Metrics.Perf when a perf sink rides the
// recorder: tenure is sampled for every transaction, and the epoch
// window (not the cumulative one) is what lands in the metrics, so a
// sweep sharing one recorder gets per-system quantiles.
func TestDetEnginePerfMetrics(t *testing.T) {
	rec := obs.New(perf.NewSink())
	defer rec.Close()
	cfg := Homogeneous("moesi", 4)
	cfg.Obs = rec
	sys, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	eng := Engine{Sys: sys, Gens: abGens(sys, 0.3, 0.3, 99)}
	m, err := eng.Run(2000)
	if err != nil {
		t.Fatal(err)
	}
	checkPerfMetrics(t, m)
}

// TestConcurrentEnginePerfMetrics is the same check on the concurrent
// engine, where a run with no arbitration wait at all is a legal
// outcome: the boards may happen to take turns without ever
// finding the bus busy, and then there is no queue to report. So the
// test forces one. Before the boards start it takes the bus as an extra
// master. Every board's first reference misses its empty cache and
// must arbitrate, so boards park behind it; once the arbiter shows one
// parked (depth 2: the holder plus a waiter), the holder runs one read
// and releases. The parked board read its wait-start clock before the
// read's cost advanced that clock, so its grant carries a wait > 0 and
// the queue telemetry a depth ≥ 1. The read is an ordinary transaction
// and counts toward both the tenure samples and the bus's total.
func TestConcurrentEnginePerfMetrics(t *testing.T) {
	rec := obs.New(perf.NewSink())
	defer rec.Close()
	cfg := Homogeneous("moesi", 4)
	cfg.Obs = rec
	sys, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	const holder, addr = 99, bus.Addr(1 << 30) // no board's id, no board's line
	sys.Bus.Acquire(addr, holder)
	type result struct {
		m   Metrics
		err error
	}
	done := make(chan result, 1)
	go func() {
		m, err := RunConcurrent(sys, abGens(sys, 0.4, 0.4, 7), 1500)
		done <- result{m, err}
	}()
	for deadline := time.Now().Add(10 * time.Second); sys.Bus.Shard(0).ArbQueueDepth() < 2; {
		if time.Now().After(deadline) {
			t.Fatal("no board queued behind the held bus")
		}
		time.Sleep(100 * time.Microsecond)
	}
	_, err = sys.Bus.ExecuteHeld(bus.Transaction{
		MasterID: holder, Addr: addr, Op: core.BusRead, Data: make([]byte, sys.Bus.LineSize()),
	})
	sys.Bus.Release(addr)
	if err != nil {
		t.Fatal(err)
	}
	res := <-done
	if res.err != nil {
		t.Fatal(res.err)
	}
	if err := sys.Check(); err != nil {
		t.Fatal(err)
	}
	checkPerfMetrics(t, res.m)
}

func checkPerfMetrics(t *testing.T, m Metrics) {
	t.Helper()
	if m.Perf == nil {
		t.Fatal("Metrics.Perf nil on an instrumented run")
	}
	ten := m.Perf.Latency[perf.MetricTenure]
	if ten.Count != m.Bus.Transactions {
		t.Errorf("tenure samples = %d, bus transactions = %d", ten.Count, m.Bus.Transactions)
	}
	if ten.P50 <= 0 || ten.P99 < ten.P50 {
		t.Errorf("tenure quantiles implausible: %+v", ten)
	}
	if len(m.Perf.Queue) == 0 || m.Perf.PeakQueueDepth() < 1 {
		t.Errorf("no arbitration queue telemetry: %+v", m.Perf.Queue)
	}
}

// A cell that reads Metrics.Perf (P1 under ExperimentOpts.Perf) gets a
// private sink, so Metrics.Perf arrives without the caller wiring a
// recorder.
func TestExperimentOptsPerf(t *testing.T) {
	opts := ExperimentOpts{RefsPerProc: 800, Seed: 3, Perf: true}
	m, err := opts.run(Homogeneous("moesi", 4), abModel(0.3, 0.3, opts.Seed), opts.Perf)
	if err != nil {
		t.Fatal(err)
	}
	if m.Perf == nil {
		t.Fatal("ExperimentOpts.Perf did not fill Metrics.Perf")
	}
	if m.Perf.Latency[perf.MetricTenure].Count == 0 {
		t.Error("perf snapshot has no tenure samples")
	}
}
