// Command fbperf measures what the host pays to run the simulator and
// what the simulated bus pays to run the workload, and gates the two
// against a baseline.
//
//	fbperf run -battery ab -refs 5000 -out perf.json \
//	    -cpuprofile cpu.pprof -heapprofile heap.pprof
//	fbperf compare old.json new.json
//
// `run` drives a named workload battery with a saturation-telemetry
// sink attached (internal/obs/perf), samples the Go runtime around the
// run (allocations per reference, GC pauses, goroutine peak), captures
// optional CPU/heap/mutex/block pprof profiles, and writes a
// structured perf.json report.
//
// `compare` diffs two reports metric by metric. A metric regresses
// when the new value exceeds the old by BOTH the relative threshold
// (-rel) and its absolute slack (-abs-ns / -abs-allocs / -abs-depth) —
// the double condition keeps tiny absolute wobbles on tiny baselines
// from tripping the gate. Simulated-time metrics (latency quantiles,
// queue depth) are deterministic for a fixed battery/seed/engine, so
// they gate hard; wall-clock metrics are reported but never gate.
// Exits 1 on any regression, which is what scripts/bench-compare.sh
// and CI hang the perf gate on.
package main

// The compare fixtures under testdata/ are hand-shaped minimal reports
// (one probe per threshold path); regenerate them after changing the
// report schema with `go generate ./cmd/fbperf`.
//go:generate go run ./testdata/gen

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"sort"
	"sync"
	"time"

	"futurebus/cmd/internal/session"
	"futurebus/internal/obs"
	"futurebus/internal/obs/ledger"
	"futurebus/internal/obs/perf"
	"futurebus/internal/obs/regress"
	"futurebus/internal/sim"
	"futurebus/internal/workload"
)

// Report is the perf.json document.
type Report struct {
	Meta    ledger.Meta `json:"_meta"`
	Battery string      `json:"battery"`
	Engine  string      `json:"engine"`
	Procs   int         `json:"procs"`
	Refs    int64       `json:"refs"`
	Seed    uint64      `json:"seed"`
	// Host is the run's host-cost accounting (wall clock, allocations
	// per reference, GC bill, goroutine peak).
	Host perf.HostReport `json:"host"`
	// Sim is the saturation telemetry in simulated time: latency
	// quantiles and per-shard arbitration queue stats.
	Sim *perf.Snapshot `json:"sim"`
}

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

func main() {
	if len(os.Args) < 2 {
		usage()
		os.Exit(2)
	}
	switch os.Args[1] {
	case "run":
		cmdRun(os.Args[2:])
	case "compare":
		cmdCompare(os.Args[2:])
	default:
		usage()
		os.Exit(2)
	}
}

func usage() {
	fmt.Fprintln(os.Stderr, `usage:
  fbperf run -battery <name> [-refs N] [-procs N] [-engine det|conc] [-seed S]
             [-out perf.json] [-cpuprofile f] [-heapprofile f]
             [-mutexprofile f] [-blockprofile f]
  fbperf compare [-rel R] [-abs-ns N] [-abs-allocs A] [-abs-depth D] old.json new.json

batteries: ab, migratory, ping-pong, mixed`)
}

func cmdRun(args []string) {
	fs := flag.NewFlagSet("fbperf run", flag.ExitOnError)
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
	fail(fs.Parse(args))

	bat, ok := batteries(*procs)[*batteryName]
	if !ok {
		fail(fmt.Errorf("unknown battery %q (ab, migratory, ping-pong, mixed)", *batteryName))
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
		fail(err)
		fail(pprof.StartCPUProfile(f))
		defer func() { fail(f.Close()) }()
		defer pprof.StopCPUProfile()
	}

	rec := obs.New(perf.NewSink(0))
	sys, err := sim.New(sim.Config{Boards: bat.boards, Obs: rec, Shards: *shards})
	fail(err)
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
	switch *engine {
	case "det":
		eng := sim.Engine{Sys: sys, Gens: gens}
		m, err = eng.Run(*refs)
	case "conc":
		m, err = sim.RunConcurrent(sys, gens, *refs)
	default:
		err = fmt.Errorf("unknown engine %q", *engine)
	}
	close(stop)
	wg.Wait()
	fail(err)
	host := hr.Stop(m.Refs)
	fail(rec.Close())

	if *heapProfile != "" {
		f, err := os.Create(*heapProfile)
		fail(err)
		runtime.GC() // profile live objects, not garbage
		fail(pprof.WriteHeapProfile(f))
		fail(f.Close())
	}
	writeLookup := func(path, name string) {
		if path == "" {
			return
		}
		f, err := os.Create(path)
		fail(err)
		fail(pprof.Lookup(name).WriteTo(f, 0))
		fail(f.Close())
	}
	writeLookup(*mutexProfile, "mutex")
	writeLookup(*blockProfile, "block")

	fail(session.WriteJSON(*out, Report{
		Meta:    ledger.CurrentMeta(),
		Battery: *batteryName,
		Engine:  *engine,
		Procs:   len(bat.boards),
		Refs:    m.Refs,
		Seed:    *seed,
		Host:    host,
		Sim:     perf.FindSink(rec).Snapshot(),
	}))
	fmt.Fprintf(os.Stderr, "fbperf: %s (%s) — %d refs in %.1f ms, %.1f B/ref, %.0f refs/s\n",
		*batteryName, bat.desc, m.Refs, float64(host.WallNS)/1e6,
		host.AllocBytesPerRef, host.RefsPerSec)
}

// thresholds configures the compare gate.
type thresholds struct {
	// rel is the relative growth a metric may show before regressing.
	rel float64
	// absNS, absAllocs, absDepth are per-unit absolute slacks: a metric
	// only regresses when it exceeds BOTH rel and its absolute slack.
	absNS     float64
	absAllocs float64
	absDepth  float64
}

// delta is one compared metric.
type delta struct {
	name     string
	old, new float64
	abs      float64 // absolute slack for this metric
	gate     bool    // false = advisory (wall-clock noise)
}

func (d delta) regressed(rel float64) bool {
	if !d.gate {
		return false
	}
	th := regress.Thresholds{Rel: rel, Abs: d.abs}
	return th.Breached(d.old, d.new-d.old)
}

func (d delta) relChange() float64 {
	if d.old == 0 {
		if d.new == 0 {
			return 0
		}
		return 1
	}
	return d.new/d.old - 1
}

// compareReports flattens the two documents into comparable metrics.
func compareReports(old, new *Report, th thresholds) []delta {
	var out []delta
	names := make([]string, 0, len(old.Sim.Latency))
	for name := range old.Sim.Latency {
		if _, ok := new.Sim.Latency[name]; ok {
			names = append(names, name)
		}
	}
	sort.Strings(names)
	for _, name := range names {
		o, n := old.Sim.Latency[name], new.Sim.Latency[name]
		out = append(out,
			delta{name + ".p50", float64(o.P50), float64(n.P50), th.absNS, true},
			delta{name + ".p99", float64(o.P99), float64(n.P99), th.absNS, true},
			delta{name + ".p999", float64(o.P999), float64(n.P999), th.absNS, true},
		)
	}
	out = append(out,
		delta{"queue.peak_depth", float64(old.Sim.PeakQueueDepth()), float64(new.Sim.PeakQueueDepth()), th.absDepth, true},
		delta{"host.alloc_bytes_per_ref", old.Host.AllocBytesPerRef, new.Host.AllocBytesPerRef, th.absAllocs * 16, true},
		delta{"host.alloc_objects_per_ref", old.Host.AllocObjectsPerRef, new.Host.AllocObjectsPerRef, th.absAllocs, true},
		// Wall-clock metrics depend on machine load; report, never gate.
		delta{"host.wall_ns", float64(old.Host.WallNS), float64(new.Host.WallNS), 0, false},
		delta{"host.gc_pause_total_ns", float64(old.Host.GCPauseTotalNS), float64(new.Host.GCPauseTotalNS), 0, false},
	)
	return out
}

func cmdCompare(args []string) {
	fs := flag.NewFlagSet("fbperf compare", flag.ExitOnError)
	rel := fs.Float64("rel", 0.10, "relative growth allowed before a metric regresses")
	absNS := fs.Float64("abs-ns", 1000, "absolute slack for simulated-ns metrics")
	absAllocs := fs.Float64("abs-allocs", 0.5, "absolute slack for allocated objects per reference (bytes get 16x)")
	absDepth := fs.Float64("abs-depth", 2, "absolute slack for queue-depth metrics")
	fail(fs.Parse(args))
	if fs.NArg() != 2 {
		usage()
		os.Exit(2)
	}
	old, err := readReport(fs.Arg(0))
	fail(err)
	new, err := readReport(fs.Arg(1))
	fail(err)
	if old.Battery != new.Battery || old.Engine != new.Engine || old.Seed != new.Seed {
		fmt.Fprintf(os.Stderr, "fbperf: warning: comparing %s/%s/seed=%d against %s/%s/seed=%d — deltas may not be meaningful\n",
			old.Battery, old.Engine, old.Seed, new.Battery, new.Engine, new.Seed)
	}

	th := thresholds{rel: *rel, absNS: *absNS, absAllocs: *absAllocs, absDepth: *absDepth}
	deltas := compareReports(old, new, th)
	regressions := 0
	fmt.Printf("%-32s %14s %14s %8s\n", "metric", "old", "new", "change")
	for _, d := range deltas {
		verdict := ""
		if d.regressed(*rel) {
			verdict = "  REGRESSED"
			regressions++
		} else if !d.gate {
			verdict = "  (advisory)"
		}
		fmt.Printf("%-32s %14.1f %14.1f %+7.1f%%%s\n", d.name, d.old, d.new, 100*d.relChange(), verdict)
	}
	if regressions > 0 {
		fmt.Fprintf(os.Stderr, "fbperf: %d metric(s) regressed beyond rel=%.0f%% plus absolute slack\n", regressions, 100**rel)
		os.Exit(1)
	}
	fmt.Println("fbperf: no regressions")
}

func readReport(path string) (*Report, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var r Report
	if err := json.Unmarshal(data, &r); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if r.Sim == nil {
		return nil, fmt.Errorf("%s: no sim telemetry in report", path)
	}
	return &r, nil
}

func fail(err error) {
	if err != nil {
		fmt.Fprintln(os.Stderr, "fbperf:", err)
		os.Exit(1)
	}
}
