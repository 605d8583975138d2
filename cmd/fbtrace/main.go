// Command fbtrace reproduces Figures 1 and 2 of the paper: it simulates
// one broadcast address handshake on the open-collector AS*/AK*/AI*
// lines and prints the event trace, then optionally traces live bus
// transactions from a small simulation.
//
// Usage:
//
//	fbtrace [-slaves 3] [-filter 25] [-txns 12]
package main

import (
	"flag"
	"fmt"
	"os"

	"futurebus/internal/bus"
	"futurebus/internal/obs"
	"futurebus/internal/sim"
	"futurebus/internal/workload"
)

func main() {
	slaves := flag.Int("slaves", 3, "number of responding modules")
	filter := flag.Int64("filter", 25, "wired-OR glitch filter delay (ns)")
	txns := flag.Int("txns", 12, "live bus transactions to trace (0 to skip)")
	flag.Parse()

	cfg := bus.DefaultHandshakeConfig()
	cfg.GlitchFilter = *filter
	for len(cfg.Slaves) < *slaves {
		n := int64(len(cfg.Slaves))
		cfg.Slaves = append(cfg.Slaves, bus.SlaveTiming{AckDelay: 5 + n, ProcessTime: 40 + 17*n})
	}
	cfg.Slaves = cfg.Slaves[:*slaves]

	fmt.Print(bus.SimulateBroadcastHandshake(cfg).Render())

	if *txns <= 0 {
		return
	}
	fmt.Printf("\nLive transaction trace (4×moesi + 1 uncached DMA):\n")
	// The live trace is an obs sink: the bus emits a structured event
	// per completed transaction and the sink renders it. Events arrive
	// in bus order (the recorder preserves emission sequence).
	count := 0
	printer := obs.SinkFunc(func(e *obs.Event) {
		if e.Kind != obs.KindTx || count >= *txns {
			return
		}
		count++
		fmt.Printf("  %2d. t=%-7d m%-2d %s %#x -> col %d, CH=%t DI=%t SL=%t retries=%d cost=%dns\n",
			count, e.TS, e.Proc, e.Op, e.Addr, e.Col, e.CH, e.DI, e.SL, e.Retries, e.Dur)
	})
	rec := obs.New(printer)

	sysCfg := sim.Homogeneous("moesi", 4)
	sysCfg.Boards = append(sysCfg.Boards, sim.BoardSpec{Protocol: "uncached"})
	sysCfg.Obs = rec
	sys, err := sim.New(sysCfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, "fbtrace:", err)
		os.Exit(1)
	}
	gens := sys.Generators(func(proc int) workload.Generator {
		return workload.MustModel(workload.Model{
			Proc: proc, SharedLines: 8, PrivateLines: 16,
			WordsPerLine: sys.WordsPerLine(), PShared: 0.5, PWrite: 0.4,
		}, 7)
	})
	eng := sim.Engine{Sys: sys, Gens: gens}
	if _, err := eng.Run(*txns); err != nil {
		fmt.Fprintln(os.Stderr, "fbtrace:", err)
		os.Exit(1)
	}
	if err := rec.Close(); err != nil {
		fmt.Fprintln(os.Stderr, "fbtrace:", err)
		os.Exit(1)
	}
}
