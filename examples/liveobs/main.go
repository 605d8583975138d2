// Liveobs: run a short four-processor MOESI workload with the embedded
// observability server attached, then scrape our own /metrics endpoint
// over real HTTP and decompose where the bus time went — arbitration
// wait versus actual data transfer — the split §6 of the paper cares
// about when it argues for the distributed arbiter.
//
// Run with: go run ./examples/liveobs
package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"log"
	"net/http"
	"strings"

	"futurebus/internal/obs"
	"futurebus/internal/obs/causal"
	"futurebus/internal/obs/obshttp"
	"futurebus/internal/sim"
	"futurebus/internal/workload"
)

func main() {
	// The Service bundles all live-observability sinks: the metrics
	// registry, its own fold of the stream (counts, phase histograms,
	// the /slow ring), the causal, coherence and saturation analyzers
	// and the SSE event stream. Its endpoints read the sinks through
	// the recorder they are attached to, so the service observes that
	// recorder before it serves.
	svc := obshttp.NewService(8)
	rec := obs.New(svc.Sinks()...)
	svc.ObserveRecorder(rec)

	cfg := sim.Homogeneous("moesi", 4)
	cfg.Obs = rec
	sys, err := sim.New(cfg)
	must(err)
	sys.RegisterLiveGauges(svc.Registry)

	// ":0" binds an ephemeral port; URL() reports where we landed.
	srv, err := svc.Serve("127.0.0.1:0")
	must(err)
	defer srv.Close()
	fmt.Printf("observability endpoint: %s\n\n", srv.URL())

	// Drive a write-heavy shared workload through the concurrent
	// engine: four goroutines contending for the bus is what makes
	// arbitration wait non-trivial.
	gens := sys.Generators(func(proc int) workload.Generator {
		return workload.MustModel(workload.Model{
			Proc: proc, SharedLines: 16, PrivateLines: 32,
			WordsPerLine: sys.WordsPerLine(),
			PShared:      0.5, PWrite: 0.4, Locality: 0.5,
		}, 1986)
	})
	m, err := sim.RunConcurrent(sys, gens, 5000)
	must(err)
	must(sys.Check())

	// Scrape ourselves exactly like Prometheus would: the scrape covers
	// every event the run emitted, buffered or not.
	resp, err := http.Get(srv.URL() + "/metrics")
	must(err)
	defer resp.Body.Close()
	fmt.Println("self-scraped /metrics (phase latency and utilization series):")
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		line := sc.Text()
		if strings.HasPrefix(line, obshttp.MetricPhaseLatency+"{") ||
			strings.HasPrefix(line, "futurebus_bus_utilization") ||
			strings.HasPrefix(line, "futurebus_bus_transactions_total") {
			fmt.Println("  " + line)
		}
	}
	must(sc.Err())

	// The causal analysis answers the §6 question directly: of all the
	// time processors spent on the bus, how much was waiting for the
	// arbiter versus actually moving data? Its per-phase totals hold
	// the split; read them the way the endpoints do, inside the
	// recorder's View.
	var an *causal.Analysis
	rec.View(func() { an = svc.Causal.Analyze() })
	phase := func(ph int) int64 { return an.ByPhase[obs.PhaseNames[ph]] }
	arb := phase(obs.PhaseArb)
	transfer := phase(obs.PhaseData) + phase(obs.PhaseIntervention) + phase(obs.PhaseMemory)
	fmt.Printf("\nbus time decomposition over %d refs (%d transactions):\n",
		m.Refs, m.Bus.Transactions)
	fmt.Printf("  arbitration wait: %12d ns\n", arb)
	fmt.Printf("  data transfer:    %12d ns\n", transfer)
	if transfer > 0 {
		fmt.Printf("  wait/transfer:    %12.3f\n", float64(arb)/float64(transfer))
	}

	// /slow serves the service's ring of the slowest transactions, each
	// with its phase decomposition.
	resp, err = http.Get(srv.URL() + "/slow")
	must(err)
	defer resp.Body.Close()
	var slowest []obs.TxSpan
	must(json.NewDecoder(resp.Body).Decode(&slowest))
	fmt.Println("\nslowest transactions and where their time went:")
	for _, span := range slowest[:3] {
		fmt.Printf("  proc %d %s addr %#x: %d ns (addr=%d data=%d intv=%d mem=%d retry=%d, waited %d)\n",
			span.Proc, span.Op, span.Addr, span.Dur,
			span.Phases[obs.PhaseAddr], span.Phases[obs.PhaseData],
			span.Phases[obs.PhaseIntervention], span.Phases[obs.PhaseMemory],
			span.Phases[obs.PhaseRetry], span.Phases[obs.PhaseArb])
	}

	must(rec.Close())
	must(srv.Close())
}

func must(err error) {
	if err != nil {
		log.Fatal(err)
	}
}
