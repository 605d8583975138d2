// Command fbsim runs one Futurebus multiprocessor simulation and prints
// its metrics: protocol mix, processor count, workload model, engine.
//
// Usage:
//
//	fbsim -protocols moesi,moesi,dragon,uncached -refs 20000 \
//	      -pshared 0.2 -pwrite 0.3 -workload ab -engine det
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"

	"futurebus/cmd/internal/session"
	"futurebus/internal/bus"
	"futurebus/internal/faults"
	"futurebus/internal/obs"
	"futurebus/internal/obs/perf"
	"futurebus/internal/sim"
	"futurebus/internal/workload"
)

func main() {
	var shared session.Flags
	shared.Register(flag.CommandLine)
	protos := flag.String("protocols", "moesi,moesi,moesi,moesi",
		"comma-separated board protocols (registry names, 'uncached', 'uncached-broadcast')")
	pshared := flag.Float64("pshared", 0.2, "probability a reference touches shared data (ab workload)")
	pwrite := flag.Float64("pwrite", 0.3, "probability a reference is a write")
	wl := flag.String("workload", "ab", "workload: ab, migratory, producer-consumer, read-mostly, ping-pong, zipf")
	engine := flag.String("engine", "det", "engine: det (deterministic) or conc (goroutine per board)")
	lineSize := flag.Int("line", 32, fmt.Sprintf("system line size in bytes (a multiple of 4, at most %d)", sim.MaxLineSize))
	sets := flag.Int("sets", 64, "cache sets")
	ways := flag.Int("ways", 2, "cache ways")
	checkConsistency := flag.Bool("check", true, "run the consistency checker at the end")
	paranoid := flag.Bool("paranoid", false, "validate every snoop response against the class at runtime")
	transitions := flag.Bool("transitions", false, "print the aggregated MOESI state-transition table")
	watchLine := flag.Uint64("watch-line", 0, "print a per-board state timeline for this line address (0 = off)")
	record := flag.String("record", "", "record each board's reference stream to <prefix>.<board>.trace")
	replay := flag.String("replay", "", "replay reference streams from <prefix>.<board>.trace (overrides -workload)")
	jsonlOut := flag.String("jsonl-out", "", "write the raw event stream as JSON Lines")
	audit := flag.Uint64("audit", 0, "print the event history of this line address after the run (0 = off)")
	ledgerPath := flag.String("ledger", "", "with -serve: judge the live run against this run ledger's rolling baseline on /trend (see fbtrend)")
	flag.Parse()
	fail(probability("pshared", *pshared))
	fail(probability("pwrite", *pwrite))

	var boards []sim.BoardSpec
	for _, name := range strings.Split(*protos, ",") {
		spec := sim.BoardSpec{Protocol: strings.TrimSpace(name)}
		// "moesi+drop-inv" = the protocol wrapped in an internal/faults
		// mutation — the fault-injection counterpart of -watch.
		spec.Protocol, spec.Fault = faults.Split(spec.Protocol)
		// "moesi.s4" = a sector cache with 4 sub-sectors per tag.
		if base, subs, ok := strings.Cut(spec.Protocol, ".s"); ok {
			n, err := strconv.Atoi(subs)
			fail(err)
			spec.Protocol, spec.SectorSubs = base, n
		}
		boards = append(boards, spec)
	}
	// The fingerprint captures everything that shapes the event stream,
	// so fbt causal diff can warn when two traces are not comparable
	// runs.
	o := session.Options{
		Tool: "fbsim",
		Fingerprint: fmt.Sprintf("fbsim protocols=%s refs=%d workload=%s engine=%s shards=%d bus=%s discipline=%s line=%d sets=%d ways=%d seed=%d pshared=%g pwrite=%g",
			*protos, shared.Refs, *wl, *engine, shared.Shards, shared.Bus, shared.Discipline, *lineSize, *sets, *ways, shared.Seed, *pshared, *pwrite),
		JSONLOut: *jsonlOut,
		Ledger:   *ledgerPath,
	}
	var auditSink *obs.LineAuditSink
	if *audit != 0 {
		auditSink = obs.NewLineAuditSink(0)
		o.Sinks = append(o.Sinks, auditSink)
	}
	// The recorder is only created (and the emission paths only pay
	// their cost) when something consumes the events.
	s, err := session.Start(&shared, o)
	fail(err)

	cfg := sim.Config{
		LineSize:     *lineSize,
		CacheSets:    *sets,
		CacheWays:    *ways,
		Boards:       boards,
		Shadow:       *checkConsistency,
		Paranoid:     *paranoid,
		Obs:          s.Rec,
		Shards:       shared.Shards,
		Tenure:       shared.Bus,
		Discipline:   shared.Discipline,
		PendingTable: shared.PendingTable,
	}
	sys, err := sim.New(cfg)
	fail(err)
	if s.Svc != nil {
		sys.RegisterLiveGauges(s.Svc.Registry, sim.DefaultHitLatency)
	}

	if *watchLine != 0 {
		watchAddr := bus.Addr(*watchLine)
		fmt.Printf("watching line %#x: txn# master col | per-board state\n", *watchLine)
		count := 0
		sys.Bus.SetTrace(func(tx *bus.Transaction, r *bus.Result) {
			if tx.Addr != watchAddr {
				return
			}
			count++
			states := make([]string, len(sys.Caches))
			for i, c := range sys.Caches {
				states[i] = c.State(watchAddr).Letter()
			}
			fmt.Printf("  %4d: m%-3d col%-2d | %s  CH=%-5t DI=%-5t cost=%dns\n",
				count, tx.MasterID, tx.Event().Column(), strings.Join(states, " "), r.CH, r.DI, r.Cost)
		})
	}

	gens := sys.Generators(func(proc int) workload.Generator {
		if *replay != "" {
			f, err := os.Open(fmt.Sprintf("%s.%d.trace", *replay, proc))
			fail(err)
			defer f.Close()
			trace, err := workload.ReadTrace(f)
			fail(err)
			return workload.NewReplay(trace)
		}
		switch *wl {
		case "ab":
			return workload.MustModel(workload.Model{
				Proc: proc, SharedLines: 32, PrivateLines: 80,
				WordsPerLine: sys.WordsPerLine(),
				PShared:      *pshared, PWrite: *pwrite, Locality: 0.5,
			}, shared.Seed)
		case "migratory":
			return workload.NewMigratory(proc, len(boards), 16, 24, sys.WordsPerLine(), shared.Seed)
		case "producer-consumer":
			return workload.NewProducerConsumer(proc, 16, sys.WordsPerLine(), shared.Seed)
		case "read-mostly":
			return workload.NewReadMostly(proc, 32, sys.WordsPerLine(), 0.02, shared.Seed)
		case "ping-pong":
			return workload.NewPingPong(proc, 8, sys.WordsPerLine(), shared.Seed)
		case "zipf":
			return workload.NewZipf(proc, 64, sys.WordsPerLine(), 1.1, *pwrite, shared.Seed)
		default:
			fail(fmt.Errorf("unknown workload %q", *wl))
			return nil
		}
	})

	if *record != "" {
		// Materialise each board's stream, write it out, and replay it
		// for the actual run so the recorded file is exactly what ran.
		for i := range gens {
			trace := workload.Record(gens[i], shared.Refs)
			f, err := os.Create(fmt.Sprintf("%s.%d.trace", *record, i))
			fail(err)
			_, werr := trace.WriteTo(f)
			fail(werr)
			fail(f.Close())
			gens[i] = workload.NewReplay(trace)
		}
		fmt.Printf("recorded %d boards × %d refs to %s.*.trace\n", len(gens), shared.Refs, *record)
	}

	var m sim.Metrics
	switch *engine {
	case "det":
		eng := sim.Engine{Sys: sys, Gens: gens}
		m, err = eng.Run(shared.Refs)
	case "conc":
		m, err = sim.RunConcurrent(sys, gens, shared.Refs)
	default:
		err = fmt.Errorf("unknown engine %q", *engine)
	}
	fail(err)

	// With -metrics-json - the machine-readable document owns stdout,
	// so the human-readable summary moves to stderr to keep stdout
	// parseable (fbsim ... -metrics-json - | jq).
	sum := io.Writer(os.Stdout)
	if shared.MetricsJSON == "-" {
		sum = os.Stderr
	}
	if *checkConsistency {
		fail(sys.Checker().MustPass())
		fmt.Fprintln(sum, "consistency: all invariants hold")
	}
	fmt.Fprintln(sum, m)
	fmt.Fprintf(sum, "bus: %s\n", m.Bus)
	fmt.Fprintf(sum, "memory: reads=%d writes=%d\n", m.Memory.Reads, m.Memory.Writes)
	fmt.Fprintf(sum, "caches: hits=%d misses=%d upgrades=%d flushes=%d snoopHits=%d inv=%d upd=%d captured=%d\n",
		m.Cache.ReadHits+m.Cache.WriteHits, m.Cache.ReadMisses+m.Cache.WriteMisses,
		m.Cache.WriteUpgrades, m.Cache.Flushes, m.Cache.SnoopHits,
		m.Cache.InvalidationsReceived, m.Cache.UpdatesReceived, m.Cache.WritesCaptured)
	if *transitions {
		fmt.Fprintf(sum, "state transitions:\n%s", m.TransitionTable())
	}

	fail(s.Close())
	if shared.Hist {
		if h := obs.FindHistogram(s.Rec); h != nil {
			fmt.Fprintf(sum, "latency histograms:\n%s", h.Render())
		}
	}
	if shared.Perf {
		if p := perf.FindSink(s.Rec); p != nil {
			fmt.Fprintf(sum, "saturation telemetry:\n%s", p.Snapshot().Render())
		}
	}
	if auditSink != nil {
		fmt.Fprint(sum, auditSink.Explain(*audit))
	}
	if shared.MetricsJSON != "" {
		fail(session.WriteJSON(os.Stdout, shared.MetricsJSON, m))
	}
	// The invariant verdict comes last so every other artifact (metrics
	// JSON, traces) is written even when the run was dirty; the exit
	// status is what CI gates on.
	if s.Verdict(sum, "") {
		os.Exit(1)
	}
}

// probability checks that the named flag's value is a probability.
func probability(name string, p float64) error {
	if p >= 0 && p <= 1 {
		return nil
	}
	return fmt.Errorf("-%s %g: want a probability in [0, 1]", name, p)
}

func fail(err error) {
	if err != nil {
		fmt.Fprintln(os.Stderr, "fbsim:", err)
		os.Exit(1)
	}
}
