// Command fbsim runs one Futurebus multiprocessor simulation and prints
// its metrics: protocol mix, processor count, workload model, engine.
//
// Usage:
//
//	fbsim -protocols moesi,moesi,dragon,uncached -refs 20000 \
//	      -pshared 0.2 -pwrite 0.3 -workload ab -engine det
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"

	"futurebus/internal/bus"
	"futurebus/internal/faults"
	"futurebus/internal/obs"
	"futurebus/internal/obs/ledger"
	"futurebus/internal/obs/obshttp"
	"futurebus/internal/obs/perf"
	"futurebus/internal/obs/watch"
	"futurebus/internal/sim"
	"futurebus/internal/workload"
)

func main() {
	protos := flag.String("protocols", "moesi,moesi,moesi,moesi",
		"comma-separated board protocols (registry names, 'uncached', 'uncached-broadcast')")
	refs := flag.Int("refs", 20000, "references per board")
	pshared := flag.Float64("pshared", 0.2, "probability a reference touches shared data (ab workload)")
	pwrite := flag.Float64("pwrite", 0.3, "probability a reference is a write")
	wl := flag.String("workload", "ab", "workload: ab, migratory, producer-consumer, read-mostly, ping-pong, zipf")
	engine := flag.String("engine", "det", "engine: det (deterministic) or conc (goroutine per board)")
	shards := flag.Int("shards", 1, "fabric shards: 1 = single Futurebus, N>1 = address-interleaved multi-bus backplane")
	busMode := flag.String("bus", "", "bus tenure policy: atomic (one grant covers the whole transaction; default) or split (address and data phases are separate grants)")
	discipline := flag.String("discipline", "", "arbitration discipline: fcfs (default), rr, priority or bounded")
	pendingTable := flag.Int("pending-table", 0, "split-mode pending-transaction table size per shard (0 = default)")
	lineSize := flag.Int("line", 32, "system line size in bytes")
	sets := flag.Int("sets", 64, "cache sets")
	ways := flag.Int("ways", 2, "cache ways")
	seed := flag.Uint64("seed", 1986, "workload seed")
	checkConsistency := flag.Bool("check", true, "run the consistency checker at the end")
	paranoid := flag.Bool("paranoid", false, "validate every snoop response against the class at runtime")
	transitions := flag.Bool("transitions", false, "print the aggregated MOESI state-transition table")
	watchFlag := flag.Bool("watch", false, "run the live invariant monitor; print violations and exit 1 if any")
	watchLine := flag.Uint64("watch-line", 0, "print a per-board state timeline for this line address (0 = off)")
	record := flag.String("record", "", "record each board's reference stream to <prefix>.<board>.trace")
	replay := flag.String("replay", "", "replay reference streams from <prefix>.<board>.trace (overrides -workload)")
	traceOut := flag.String("trace-out", "", "write a Chrome trace-event JSON file (open in Perfetto / chrome://tracing)")
	jsonlOut := flag.String("jsonl-out", "", "write the raw event stream as JSON Lines")
	recordOut := flag.String("record-out", "", "write the full event stream as a compact binary .fbt trace (analyze offline with fbcausal)")
	metricsJSON := flag.String("metrics-json", "", "write the run metrics as JSON to this file ('-' = stdout)")
	hist := flag.Bool("hist", false, "print p50/p95/p99 latency/stall/retry histograms")
	perfFlag := flag.Bool("perf", false, "collect saturation telemetry (arb-wait/tenure/retry/mem-service quantiles, arbitration queue depths) and print the report")
	audit := flag.Uint64("audit", 0, "print the event history of this line address after the run (0 = off)")
	serveAddr := flag.String("serve", "", "serve live observability on this address ("+obshttp.EndpointList()+")")
	serveLinger := flag.Duration("serve-linger", 0, "keep the -serve endpoint up this long after the run finishes (SIGINT or SIGTERM ends it early)")
	ledgerPath := flag.String("ledger", "", "with -serve: judge the live run against this run ledger's rolling baseline on /trend (see fbtrend)")
	flag.Parse()

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
	// Assemble observability sinks; the recorder is only created (and
	// the emission paths only pay their cost) when something consumes
	// the events.
	var sinks []obs.Sink
	var toClose []*os.File
	if *traceOut != "" {
		f, err := os.Create(*traceOut)
		fail(err)
		toClose = append(toClose, f)
		sinks = append(sinks, obs.NewChromeTraceSink(f))
	}
	if *jsonlOut != "" {
		f, err := os.Create(*jsonlOut)
		fail(err)
		toClose = append(toClose, f)
		sinks = append(sinks, obs.NewJSONLSink(f))
	}
	if *recordOut != "" {
		f, err := os.Create(*recordOut)
		fail(err)
		toClose = append(toClose, f)
		// The fingerprint captures everything that shapes the event
		// stream, so fbcausal diff can warn when two traces are not
		// comparable runs.
		fp := fmt.Sprintf("fbsim protocols=%s refs=%d workload=%s engine=%s shards=%d bus=%s discipline=%s line=%d sets=%d ways=%d seed=%d pshared=%g pwrite=%g",
			*protos, *refs, *wl, *engine, *shards, *busMode, *discipline, *lineSize, *sets, *ways, *seed, *pshared, *pwrite)
		sinks = append(sinks, obs.NewRecordSink(f, obs.TraceMeta{Fingerprint: fp}))
	}
	if *hist {
		sinks = append(sinks, obs.NewHistogramSink())
	}
	if *perfFlag && *serveAddr == "" {
		// Served runs get their perf sink from the obshttp service (which
		// also exports the histograms on /metrics and the /perf document);
		// a standalone -perf run attaches the bare sink.
		sinks = append(sinks, perf.NewSink(0))
	}
	var auditSink *obs.LineAuditSink
	if *audit != 0 {
		auditSink = obs.NewLineAuditSink(0)
		sinks = append(sinks, auditSink)
	}
	var svc *obshttp.Service
	var mon *watch.Monitor
	if *serveAddr != "" {
		svc = obshttp.NewService(0)
		if *watchFlag {
			// Served runs route the monitor through the service so
			// /violations and the violation metrics are live.
			mon = svc.EnableWatch(watch.Config{}).Monitor
		}
		if *ledgerPath != "" {
			_, err := svc.EnableTrend(*ledgerPath, "", ledger.GateOpts{})
			fail(err)
		}
		sinks = append(sinks, svc.Sinks()...)
	} else if *ledgerPath != "" {
		fail(fmt.Errorf("-ledger requires -serve (the verdict lives on /trend)"))
	}
	if *watchFlag && mon == nil {
		mon = watch.New(watch.Config{})
		sinks = append(sinks, mon)
	}
	var rec *obs.Recorder
	if len(sinks) > 0 {
		rec = obs.New(sinks...)
	}

	cfg := sim.Config{
		LineSize:     *lineSize,
		CacheSets:    *sets,
		CacheWays:    *ways,
		Boards:       boards,
		Shadow:       *checkConsistency,
		Paranoid:     *paranoid,
		Obs:          rec,
		Shards:       *shards,
		Tenure:       *busMode,
		Discipline:   *discipline,
		PendingTable: *pendingTable,
	}
	sys, err := sim.New(cfg)
	fail(err)

	var srv *obshttp.Server
	if svc != nil {
		svc.ObserveRecorder(rec)
		for i, spec := range boards {
			svc.Attr.SetProcLabel(i, spec.Protocol)
		}
		sys.RegisterLiveGauges(svc.Registry, sim.DefaultHitLatency)
		srv, err = svc.Serve(*serveAddr)
		fail(err)
		fmt.Fprintf(os.Stderr, "fbsim: serving observability on %s (%s)\n", srv.URL(), obshttp.EndpointList())
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
			}, *seed)
		case "migratory":
			return workload.NewMigratory(proc, len(boards), 16, 24, sys.WordsPerLine(), *seed)
		case "producer-consumer":
			return workload.NewProducerConsumer(proc, 16, sys.WordsPerLine(), *seed)
		case "read-mostly":
			return workload.NewReadMostly(proc, 32, sys.WordsPerLine(), 0.02, *seed)
		case "ping-pong":
			return workload.NewPingPong(proc, 8, sys.WordsPerLine(), *seed)
		case "zipf":
			return workload.NewZipf(proc, 64, sys.WordsPerLine(), 1.1, *pwrite, *seed)
		default:
			fail(fmt.Errorf("unknown workload %q", *wl))
			return nil
		}
	})

	if *record != "" {
		// Materialise each board's stream, write it out, and replay it
		// for the actual run so the recorded file is exactly what ran.
		for i := range gens {
			trace := workload.Record(gens[i], *refs)
			f, err := os.Create(fmt.Sprintf("%s.%d.trace", *record, i))
			fail(err)
			_, werr := trace.WriteTo(f)
			fail(werr)
			fail(f.Close())
			gens[i] = workload.NewReplay(trace)
		}
		fmt.Printf("recorded %d boards × %d refs to %s.*.trace\n", len(gens), *refs, *record)
	}

	var m sim.Metrics
	switch *engine {
	case "det":
		eng := sim.Engine{Sys: sys, Gens: gens}
		m, err = eng.Run(*refs)
	case "conc":
		m, err = sim.RunConcurrent(sys, gens, *refs)
	default:
		err = fmt.Errorf("unknown engine %q", *engine)
	}
	fail(err)

	// With -metrics-json - the machine-readable document owns stdout,
	// so the human-readable summary moves to stderr to keep stdout
	// parseable (fbsim ... -metrics-json - | jq).
	sum := io.Writer(os.Stdout)
	if *metricsJSON == "-" {
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

	if srv != nil {
		if *serveLinger > 0 {
			fmt.Fprintf(os.Stderr, "fbsim: run finished; observability endpoint stays up for %s\n", *serveLinger)
			srv.Linger(*serveLinger)
		}
		fail(srv.Close())
	}
	if rec != nil {
		fail(rec.Close())
		obs.WarnDropped(os.Stderr, "fbsim", rec)
		if *hist {
			if h := obs.FindHistogram(rec); h != nil {
				fmt.Fprintf(sum, "latency histograms:\n%s", h.Render())
			}
		}
		if *perfFlag {
			if p := perf.FindSink(rec); p != nil {
				fmt.Fprintf(sum, "saturation telemetry:\n%s", p.Snapshot().Render())
			}
		}
		if auditSink != nil {
			fmt.Fprint(sum, auditSink.Explain(*audit))
		}
		for _, f := range toClose {
			fail(f.Close())
		}
		if *traceOut != "" {
			fmt.Fprintf(os.Stderr, "fbsim: wrote Chrome trace to %s (open in https://ui.perfetto.dev)\n", *traceOut)
		}
		if *recordOut != "" {
			fmt.Fprintf(os.Stderr, "fbsim: wrote binary trace to %s (fbcausal analyze %s)\n", *recordOut, *recordOut)
		}
	}
	if *metricsJSON != "" {
		out, err := json.MarshalIndent(m, "", "  ")
		fail(err)
		out = append(out, '\n')
		if *metricsJSON == "-" {
			_, err = os.Stdout.Write(out)
		} else {
			err = os.WriteFile(*metricsJSON, out, 0o644)
		}
		fail(err)
	}

	// The invariant verdict comes last so every other artifact (metrics
	// JSON, traces) is written even when the run was dirty; the exit
	// status is what CI gates on.
	if mon != nil {
		rep := mon.Report()
		fmt.Fprintf(sum, "invariants: %s\n", rep.Summary())
		if rep.Total > 0 {
			for i := range rep.Violations {
				fmt.Fprintf(os.Stderr, "fbsim: %s\n", rep.Violations[i].String())
			}
			os.Exit(1)
		}
	}
}

func fail(err error) {
	if err != nil {
		fmt.Fprintln(os.Stderr, "fbsim:", err)
		os.Exit(1)
	}
}
