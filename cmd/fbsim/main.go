// Command fbsim runs one Futurebus multiprocessor simulation and prints
// its metrics: protocol mix, processor count, workload model, engine.
//
// Usage:
//
//	fbsim -protocols moesi,moesi,dragon,uncached -refs 20000 \
//	      -pshared 0.2 -pwrite 0.3 -workload ab -engine det
package main

import (
	"errors"
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

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// run is fbsim: it parses args, runs the simulation and returns the
// exit status: 0 clean (or -h), 1 a bad flag value, a failed run or
// check, or a violated invariant, 2 a command line that does not parse.
// Once the observability session has started, every outcome ends
// through session.End, so a failed run still writes its traces and
// prints its verdict.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("fbsim", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var shared session.Flags
	shared.Register(fs)
	protos := fs.String("protocols", "moesi,moesi,moesi,moesi",
		"comma-separated board protocols (registry names, 'uncached', 'uncached-broadcast')")
	pshared := fs.Float64("pshared", 0.2, "probability a reference touches shared data (ab workload)")
	pwrite := fs.Float64("pwrite", 0.3, "probability a reference is a write")
	wl := fs.String("workload", "ab", "workload: ab, migratory, producer-consumer, read-mostly, ping-pong, zipf")
	engine := fs.String("engine", "det", "engine: det (deterministic) or conc (goroutine per board)")
	lineSize := fs.Int("line", 32, fmt.Sprintf("system line size in bytes (a multiple of 4, at most %d)", sim.MaxLineSize))
	sets := fs.Int("sets", 64, "cache sets")
	ways := fs.Int("ways", 2, "cache ways")
	checkConsistency := fs.Bool("check", true, "run the consistency checker at the end")
	paranoid := fs.Bool("paranoid", false, "validate every snoop response against the class at runtime")
	transitions := fs.Bool("transitions", false, "print the aggregated MOESI state-transition table")
	watchLine := fs.Uint64("watch-line", 0, "print a per-board state timeline for this line address (0 = off)")
	record := fs.String("record", "", "record each board's reference stream to <prefix>.<board>.trace")
	replay := fs.String("replay", "", "replay reference streams from <prefix>.<board>.trace (overrides -workload)")
	jsonlOut := fs.String("jsonl-out", "", "write the raw event stream as JSON Lines")
	audit := fs.Uint64("audit", 0, "print the event history of this line address after the run (0 = off)")
	ledgerPath := fs.String("ledger", "", "with -serve: judge the live run against this run ledger's rolling baseline on /trend (see fbtrend)")
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}
	fail := func(err error) int {
		fmt.Fprintln(stderr, "fbsim:", err)
		return 1
	}
	if err := errors.Join(probability("pshared", *pshared), probability("pwrite", *pwrite)); err != nil {
		return fail(err)
	}

	var boards []sim.BoardSpec
	for _, name := range strings.Split(*protos, ",") {
		spec := sim.BoardSpec{Protocol: strings.TrimSpace(name)}
		// "moesi+drop-inv" = the protocol wrapped in an internal/faults
		// mutation — the fault-injection counterpart of -watch.
		spec.Protocol, spec.Fault = faults.Split(spec.Protocol)
		// "moesi.s4" = a sector cache with 4 sub-sectors per tag.
		if base, subs, ok := strings.Cut(spec.Protocol, ".s"); ok {
			n, err := strconv.Atoi(subs)
			if err != nil {
				return fail(err)
			}
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
		auditSink = obs.NewLineAuditSink(*audit)
		o.Sinks = append(o.Sinks, auditSink)
	}
	// The recorder is only created (and the emission paths only pay
	// their cost) when something consumes the events.
	s, err := session.Start(&shared, o, stderr)
	if err != nil {
		return fail(err)
	}
	// With -metrics-json - the machine-readable document owns stdout,
	// so the human-readable summary moves to stderr to keep stdout
	// parseable (fbsim ... -metrics-json - | jq).
	sum := stdout
	if shared.MetricsJSON == "-" {
		sum = stderr
	}

	// From here every exit ends the session, so a failed run still
	// leaves whole traces and prints its verdict.
	end := func(err error) int { return s.End(sum, "", err, nil) }

	sys, err := sim.New(sim.Config{
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
	})
	if err != nil {
		return end(err)
	}
	if s.Svc != nil {
		sys.RegisterLiveGauges(s.Svc.Registry)
	}
	if *watchLine != 0 {
		watchAddr := bus.Addr(*watchLine)
		fmt.Fprintf(stdout, "watching line %#x: txn# master col | per-board state\n", *watchLine)
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
			fmt.Fprintf(stdout, "  %4d: m%-3d col%-2d | %s  CH=%-5t DI=%-5t cost=%dns\n",
				count, tx.MasterID, tx.Event().Column(), strings.Join(states, " "), r.CH, r.DI, r.Cost)
		})
	}

	gens := make([]workload.Generator, len(sys.Boards))
	for proc := range gens {
		if gens[proc], err = generator(sys, proc, *replay, *wl, *pshared, *pwrite, shared.Seed); err != nil {
			return end(err)
		}
	}
	if *record != "" {
		// Materialise each board's stream, write it out, and replay it
		// for the actual run so the recorded file is exactly what ran.
		for i := range gens {
			trace := workload.Record(gens[i], shared.Refs)
			f, err := os.Create(fmt.Sprintf("%s.%d.trace", *record, i))
			if err == nil {
				_, err = trace.WriteTo(f)
				err = errors.Join(err, f.Close())
			}
			if err != nil {
				return end(err)
			}
			gens[i] = workload.NewReplay(trace)
		}
		fmt.Fprintf(stdout, "recorded %d boards × %d refs to %s.*.trace\n", len(gens), shared.Refs, *record)
	}

	var m sim.Metrics
	switch *engine {
	case "det":
		m, err = (&sim.Engine{Sys: sys, Gens: gens}).Run(shared.Refs)
	case "conc":
		m, err = sim.RunConcurrent(sys, gens, shared.Refs)
	default:
		err = fmt.Errorf("unknown engine %q", *engine)
	}
	if err == nil && *checkConsistency {
		err = sys.Check()
	}
	if err != nil {
		return end(err)
	}
	if *checkConsistency {
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

	// The invariant verdict comes last so every other artifact (metrics
	// JSON, traces) is written even when the run was dirty; the exit
	// status is what CI gates on.
	return s.End(sum, "", nil, func() error {
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
			fmt.Fprint(sum, auditSink.Explain())
		}
		if shared.MetricsJSON != "" {
			return session.WriteJSON(stdout, shared.MetricsJSON, m)
		}
		return nil
	})
}

// generator builds board proc's reference stream: the -replay trace
// when one is named, else the -workload model.
func generator(sys *sim.System, proc int, replay, wl string, pshared, pwrite float64, seed uint64) (workload.Generator, error) {
	if replay != "" {
		path := fmt.Sprintf("%s.%d.trace", replay, proc)
		f, err := os.Open(path)
		if err != nil {
			return nil, err
		}
		trace, err := workload.ReadTrace(f)
		f.Close()
		if err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		if len(trace) == 0 {
			return nil, fmt.Errorf("%s: trace holds no references", path)
		}
		return workload.NewReplay(trace), nil
	}
	words := sys.WordsPerLine()
	switch wl {
	case "ab":
		return workload.NewModel(workload.Model{
			Proc: proc, SharedLines: 32, PrivateLines: 80,
			WordsPerLine: words,
			PShared:      pshared, PWrite: pwrite, Locality: 0.5,
		}, seed)
	case "migratory":
		return workload.NewMigratory(proc, len(sys.Boards), 16, 24, words, seed), nil
	case "producer-consumer":
		return workload.NewProducerConsumer(proc, 16, words, seed), nil
	case "read-mostly":
		return workload.NewReadMostly(proc, 32, words, 0.02, seed), nil
	case "ping-pong":
		return workload.NewPingPong(proc, 8, words, seed), nil
	case "zipf":
		return workload.NewZipf(proc, 64, words, 1.1, pwrite, seed), nil
	}
	return nil, fmt.Errorf("unknown workload %q", wl)
}

// probability checks that the named flag's value is a probability.
func probability(name string, p float64) error {
	if p >= 0 && p <= 1 {
		return nil
	}
	return fmt.Errorf("-%s %g: want a probability in [0, 1]", name, p)
}
