package sim

import (
	"strings"
	"testing"
	"time"

	"futurebus/internal/obs"
	"futurebus/internal/obs/obshttp"
	"futurebus/internal/workload"
)

// TestLiveMetricsDuringRun polls LiveMetrics from a second goroutine
// while the concurrent engine runs — under -race this is the proof the
// snapshot only touches race-safe state — then checks the final
// snapshot agrees with the engine's Metrics.
func TestLiveMetricsDuringRun(t *testing.T) {
	svc := obshttp.NewService(4)
	rec := obs.New(svc.Sinks()...)
	svc.ObserveRecorder(rec)
	cfg := Homogeneous("moesi", 4)
	cfg.Obs = rec
	sys, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	sys.RegisterLiveGauges(svc.Registry, 0)

	stop := make(chan struct{})
	polled := make(chan LiveMetrics, 1)
	go func() {
		var last LiveMetrics
		for {
			select {
			case <-stop:
				polled <- last
				return
			default:
				last = sys.LiveMetrics(0)
				time.Sleep(50 * time.Microsecond)
			}
		}
	}()

	const refsPerProc = 2000
	gens := sys.Generators(func(proc int) workload.Generator {
		return workload.MustModel(workload.Model{
			Proc: proc, SharedLines: 16, PrivateLines: 32,
			WordsPerLine: sys.WordsPerLine(),
			PShared:      0.3, PWrite: 0.3, Locality: 0.5,
		}, 42)
	})
	m, err := RunConcurrent(sys, gens, refsPerProc)
	if err != nil {
		t.Fatal(err)
	}
	close(stop)
	<-polled

	live := sys.LiveMetrics(0)
	if live.Refs != m.Refs {
		t.Errorf("live refs = %d, metrics refs = %d", live.Refs, m.Refs)
	}
	if live.Bus.Transactions != m.Bus.Transactions {
		t.Errorf("live tx = %d, metrics tx = %d", live.Bus.Transactions, m.Bus.Transactions)
	}
	if live.ElapsedEstimate() != m.ElapsedNanos {
		t.Errorf("elapsed estimate %d != concurrent-engine elapsed %d",
			live.ElapsedEstimate(), m.ElapsedNanos)
	}
	if u := live.BusUtilization(); u <= 0 || u > 1 {
		t.Errorf("live utilization = %v", u)
	}

	// The registered gauges render into the exposition.
	var b strings.Builder
	if err := svc.Registry.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	text := b.String()
	for _, want := range []string{
		"futurebus_bus_utilization ",
		"futurebus_refs_done 8000",
		"futurebus_recorder_dropped_events 0",
		obshttp.MetricPhaseLatency + `{phase="arb",quantile="0.5"}`,
	} {
		if !strings.Contains(text, want) {
			t.Errorf("exposition missing %q", want)
		}
	}
	if err := rec.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestLiveMetricsDeterministic: the deterministic engine feeds the same
// counter.
func TestLiveMetricsDeterministic(t *testing.T) {
	sys, err := New(Homogeneous("moesi", 2))
	if err != nil {
		t.Fatal(err)
	}
	gens := sys.Generators(func(proc int) workload.Generator {
		return workload.MustModel(workload.Model{
			Proc: proc, SharedLines: 8, PrivateLines: 16,
			WordsPerLine: sys.WordsPerLine(),
			PShared:      0.2, PWrite: 0.3, Locality: 0.5,
		}, 7)
	})
	eng := Engine{Sys: sys, Gens: gens}
	m, err := eng.Run(500)
	if err != nil {
		t.Fatal(err)
	}
	if got := sys.RefsDone(); got != m.Refs {
		t.Errorf("RefsDone = %d, want %d", got, m.Refs)
	}
	live := sys.LiveMetrics(0)
	if live.Dropped != 0 {
		t.Errorf("dropped = %d", live.Dropped)
	}
}
