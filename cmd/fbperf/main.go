// Command fbperf measures what the host pays to run the simulator and
// what the simulated bus pays to run the workload.
//
//	fbperf run -battery ab -refs 5000 -out perf.json \
//	    -cpuprofile cpu.pprof -heapprofile heap.pprof
//
// `run` drives a named workload battery with a saturation-telemetry
// sink attached (internal/obs/perf), samples the Go runtime around the
// run (allocations per reference, GC pauses, goroutine peak), captures
// optional CPU/heap/mutex/block pprof profiles, and writes a
// structured perf.json report (ledger.PerfReport).
//
// `fbtrend diff old.json new.json` judges two reports and `fbtrend
// gate` judges one against a run ledger. Simulated-time metrics
// (latency quantiles, queue depth) are deterministic for a fixed
// battery/seed/engine, so they gate hard, as do allocations per
// reference; wall-clock metrics are reported but never gate.
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/pprof"
	"sync"
	"time"

	"futurebus/cmd/internal/cli"
	"futurebus/cmd/internal/session"
	"futurebus/internal/obs"
	"futurebus/internal/obs/ledger"
	"futurebus/internal/obs/perf"
	"futurebus/internal/sim"
	"futurebus/internal/workload"
)

// battery is one named workload the runner can drive.
type battery struct {
	desc   string
	boards []sim.BoardSpec
	gens   func(sys *sim.System, procs int, seed uint64) []workload.Generator
}

func homogeneous(protocol string, procs int) []sim.BoardSpec {
	boards := make([]sim.BoardSpec, procs)
	for i := range boards {
		boards[i] = sim.BoardSpec{Protocol: protocol}
	}
	return boards
}

func batteries(procs int) map[string]battery {
	ab := func(sys *sim.System, procs int, seed uint64) []workload.Generator {
		return sys.Generators(func(proc int) workload.Generator {
			return workload.MustModel(workload.Model{
				Proc: proc, SharedLines: 32, PrivateLines: 80,
				WordsPerLine: sys.WordsPerLine(),
				PShared:      0.2, PWrite: 0.3, Locality: 0.5,
			}, seed)
		})
	}
	return map[string]battery{
		"ab": {"Archibald–Baer model on homogeneous MOESI", homogeneous("moesi", procs), ab},
		"migratory": {"migratory sharing on MOESI-invalidate (BS abort/retry heavy)",
			homogeneous("moesi-invalidate", procs),
			func(sys *sim.System, procs int, seed uint64) []workload.Generator {
				return sys.Generators(func(proc int) workload.Generator {
					return workload.NewMigratory(proc, procs, 16, 24, sys.WordsPerLine(), seed)
				})
			}},
		"ping-pong": {"two-line ping-pong on MOESI (arbitration contention heavy)",
			homogeneous("moesi", procs),
			func(sys *sim.System, procs int, seed uint64) []workload.Generator {
				return sys.Generators(func(proc int) workload.Generator {
					return workload.NewPingPong(proc, 8, sys.WordsPerLine(), seed)
				})
			}},
		"mixed": {"heterogeneous bus: moesi+berkeley+dragon+write-through on the AB model",
			[]sim.BoardSpec{{Protocol: "moesi"}, {Protocol: "berkeley"},
				{Protocol: "dragon"}, {Protocol: "write-through"}}, ab},
	}
}

const usage = `usage:
  fbperf run -battery <name> [-refs N] [-procs N] [-engine det|conc] [-seed S]
             [-out perf.json] [-cpuprofile f] [-heapprofile f]
             [-mutexprofile f] [-blockprofile f]

batteries: ab, migratory, ping-pong, mixed

Exit status: 0 clean; 2 on usage, input or I/O errors.
`

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// run executes one fbperf command line and returns its exit status.
func run(args []string, stdout, stderr io.Writer) int {
	if cli.Help(stderr, usage, args) {
		return cli.OK
	}
	if len(args) == 0 {
		fmt.Fprint(stderr, usage)
		return cli.Error
	}
	if args[0] != "run" {
		fmt.Fprintf(stderr, "fbperf: unknown command %q\n\n%s", args[0], usage)
		return cli.Error
	}
	return cli.Status(stderr, "fbperf", false, runBattery(stdout, stderr, args[1:]))
}

// runBattery drives one battery, checks it and writes its report. Its
// batteries run only correct protocols, so a failed check is a fault of
// the program and, like every error it returns, exits 2.
func runBattery(stdout, stderr io.Writer, args []string) (err error) {
	fs := flag.NewFlagSet("fbperf run", flag.ContinueOnError)
	batteryName := fs.String("battery", "ab", "workload battery: ab, migratory, ping-pong, mixed")
	refs := fs.Int("refs", 5000, "references per board")
	procs := fs.Int("procs", 4, "board count (homogeneous batteries; 'mixed' is fixed at 4)")
	engine := fs.String("engine", "det", "engine: det (deterministic, reproducible telemetry) or conc (goroutine per board)")
	seed := fs.Uint64("seed", 1986, "workload seed")
	shards := fs.Int("shards", 1, "fabric shards")
	out := fs.String("out", "perf.json", "report output path ('-' = stdout)")
	cpuProfile := fs.String("cpuprofile", "", "write a CPU profile")
	heapProfile := fs.String("heapprofile", "", "write a post-run heap profile")
	mutexProfile := fs.String("mutexprofile", "", "write a mutex-contention profile")
	blockProfile := fs.String("blockprofile", "", "write a blocking profile")
	sample := fs.Duration("sample", 5*time.Millisecond, "runtime sampling interval (goroutine peak)")
	if err := cli.Parse(stderr, usage, fs, args, 0, 0); err != nil {
		return err
	}
	switch {
	case *refs <= 0:
		return fmt.Errorf("-refs %d: want at least one reference per board", *refs)
	case *procs <= 0:
		return fmt.Errorf("-procs %d: want at least one board", *procs)
	case *sample <= 0:
		return fmt.Errorf("-sample %s: want a positive interval", *sample)
	}

	bat, ok := batteries(*procs)[*batteryName]
	if !ok {
		return fmt.Errorf("unknown battery %q (ab, migratory, ping-pong, mixed)", *batteryName)
	}
	if *engine != "det" && *engine != "conc" {
		return fmt.Errorf("unknown engine %q (det, conc)", *engine)
	}

	// Profile plumbing around the run. Mutex/block profiling must be
	// enabled before the contention happens; rates follow the pprof
	// package's usual guidance (sampled, not exhaustive).
	if *mutexProfile != "" {
		runtime.SetMutexProfileFraction(5)
	}
	if *blockProfile != "" {
		runtime.SetBlockProfileRate(10_000) // one sample per 10µs blocked
	}
	if *cpuProfile != "" {
		f, err := os.Create(*cpuProfile)
		if err != nil {
			return err
		}
		defer func() { err = errors.Join(err, f.Close()) }()
		if err := pprof.StartCPUProfile(f); err != nil {
			return err
		}
		defer pprof.StopCPUProfile()
	}

	rec := obs.New(perf.NewSink())
	defer rec.Close()
	sys, err := sim.New(sim.Config{Boards: bat.boards, Obs: rec, Shards: *shards})
	if err != nil {
		return err
	}
	gens := bat.gens(sys, len(bat.boards), *seed)

	// Bracket the run with host sampling; a ticker tracks the goroutine
	// peak mid-flight (the concurrent engine's fan-out).
	hr := perf.StartHost()
	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		t := time.NewTicker(*sample)
		defer t.Stop()
		for {
			select {
			case <-t.C:
				hr.Sample()
			case <-stop:
				return
			}
		}
	}()

	var m sim.Metrics
	if *engine == "det" {
		m, err = (&sim.Engine{Sys: sys, Gens: gens}).Run(*refs)
	} else {
		m, err = sim.RunConcurrent(sys, gens, *refs)
	}
	close(stop)
	wg.Wait()
	if err != nil {
		return err
	}
	host := hr.Stop(m.Refs)
	// Judged outside the host-cost bracket, on both engines alike.
	if err := errors.Join(sys.Check(), rec.Close()); err != nil {
		return err
	}

	if *heapProfile != "" {
		runtime.GC() // profile live objects, not garbage
	}
	for _, p := range [...][2]string{{*heapProfile, "heap"}, {*mutexProfile, "mutex"}, {*blockProfile, "block"}} {
		if p[0] != "" {
			if err := writeProfile(p[0], p[1]); err != nil {
				return err
			}
		}
	}

	if err := session.WriteJSON(stdout, *out, ledger.PerfReport{
		Meta:    ledger.CurrentMeta(),
		Battery: *batteryName,
		Engine:  *engine,
		Procs:   len(bat.boards),
		Refs:    m.Refs,
		Seed:    *seed,
		Host:    host,
		Sim:     perf.FindSink(rec).Snapshot(),
	}); err != nil {
		return err
	}
	fmt.Fprintf(stderr, "fbperf: %s (%s) — %d refs in %.1f ms, %.1f B/ref, %.0f refs/s\n",
		*batteryName, bat.desc, m.Refs, float64(host.WallNS)/1e6,
		host.AllocBytesPerRef, host.RefsPerSec)
	return nil
}

// writeProfile writes the named pprof profile to path.
func writeProfile(path, name string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	return errors.Join(pprof.Lookup(name).WriteTo(f, 0), f.Close())
}
