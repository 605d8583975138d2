// Command fbsweep runs the performance experiments (P1–P11 plus the
// handshake-penalty sweep) and prints the paper-style result tables.
//
// Usage:
//
//	fbsweep [-exp P1] [-refs 20000] [-seed 1986] [-bus split] [-discipline rr]
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strings"
	"time"

	"futurebus/internal/obs"
	"futurebus/internal/obs/obshttp"
	"futurebus/internal/obs/watch"
	"futurebus/internal/sim"
)

func main() {
	exp := flag.String("exp", "all", "experiment to run (P1…P11, F1, or 'all')")
	refs := flag.Int("refs", 20000, "references per processor")
	seed := flag.Uint64("seed", 1986, "workload seed")
	jobs := flag.Int("jobs", 0, "worker pool size for -exp all (0 = one per CPU, forced to 1 when tracing so the event stream stays coherent)")
	shards := flag.Int("shards", 1, "fabric shards for every system the sweep builds (1 = single Futurebus)")
	busMode := flag.String("bus", "", "bus tenure policy for every system the sweep builds: atomic or split (default atomic; P11 sweeps its own axis)")
	discipline := flag.String("discipline", "", "arbitration discipline for every system the sweep builds: fcfs, rr, priority or bounded (default fcfs; P11 sweeps its own axis)")
	pendingTable := flag.Int("pending-table", 0, "split-mode pending-transaction table size per shard (0 = default)")
	format := flag.String("format", "table", "output format: table or csv")
	outDir := flag.String("out", "", "also write each report as <dir>/<ID>.csv")
	traceOut := flag.String("trace-out", "", "write a Chrome trace-event JSON of every system the sweep ran")
	metricsJSON := flag.String("metrics-json", "", "write the reports as JSON to this file ('-' = stdout)")
	jsonOut := flag.String("json", "", "write the battery as a machine-readable document to this file ('-' = stdout): {fbsweep, _meta, reports}, ingestable by fbtrend")
	recordOut := flag.String("record-out", "", "write the sweep's full event stream as a compact binary .fbt trace (analyze offline with fbcausal)")
	hist := flag.Bool("hist", false, "print sweep-wide p50/p95/p99 latency/stall/retry histograms")
	perfFlag := flag.Bool("perf", false, "collect per-run saturation telemetry; P1 gains the p99arb and peakQ columns")
	watchFlag := flag.Bool("watch", false, "run the invariant monitor over every system the sweep builds; exit 1 on any violation")
	serveAddr := flag.String("serve", "", "serve live observability on this address ("+obshttp.EndpointList()+")")
	serveLinger := flag.Duration("serve-linger", 0, "keep the -serve endpoint up this long after the sweep finishes (SIGINT or SIGTERM ends it early)")
	flag.Parse()

	// One recorder instruments every system the experiments build, so
	// histograms and traces cover the whole sweep.
	var sinks []obs.Sink
	var traceFile *os.File
	if *traceOut != "" {
		f, err := os.Create(*traceOut)
		fail(err)
		traceFile = f
		sinks = append(sinks, obs.NewChromeTraceSink(f))
	}
	if *hist {
		sinks = append(sinks, obs.NewHistogramSink())
	}
	var recordFile *os.File
	if *recordOut != "" {
		f, err := os.Create(*recordOut)
		fail(err)
		recordFile = f
		fp := fmt.Sprintf("fbsweep exp=%s refs=%d seed=%d shards=%d", strings.ToUpper(*exp), *refs, *seed, *shards)
		sinks = append(sinks, obs.NewRecordSink(f, obs.TraceMeta{Fingerprint: fp}))
	}
	// -serve instruments the whole sweep: the event-fed registry,
	// phase summaries, SSE tail, slow-transaction ring and causal
	// analyzer cover every system the experiments build.
	var svc *obshttp.Service
	var mon *watch.Monitor
	if *serveAddr != "" {
		svc = obshttp.NewService(0)
		if *watchFlag {
			mon = svc.EnableWatch(watch.Config{}).Monitor
		}
		sinks = append(sinks, svc.Sinks()...)
	}
	// Each system the sweep builds emits a KindEpoch marker, so one
	// monitor can watch the whole battery without carrying shadow state
	// from one system into the next.
	if *watchFlag && mon == nil {
		mon = watch.New(watch.Config{})
		sinks = append(sinks, mon)
	}
	var rec *obs.Recorder
	if len(sinks) > 0 {
		rec = obs.New(sinks...)
	}
	// The service's handlers read its sinks through the recorder, so it
	// observes the recorder before it serves.
	var srv *obshttp.Server
	if svc != nil {
		svc.ObserveRecorder(rec)
		var err error
		srv, err = svc.Serve(*serveAddr)
		fail(err)
		fmt.Fprintf(os.Stderr, "fbsweep: serving observability on %s (%s)\n", srv.URL(), obshttp.EndpointList())
	}

	opts := sim.ExperimentOpts{
		RefsPerProc: *refs, Seed: *seed, Obs: rec, Shards: *shards, Perf: *perfFlag,
		Tenure: *busMode, Discipline: *discipline, PendingTable: *pendingTable,
	}

	// Experiments are independent and internally deterministic, so the
	// full battery fans out over a bounded worker pool; reports come
	// back in battery order either way. A recorder serialises the run:
	// interleaving event streams from concurrent systems would make the
	// trace (and its histograms) unreadable.
	workers, forced := effectiveWorkers(*jobs, runtime.NumCPU(), rec != nil)
	if forced {
		fmt.Fprintf(os.Stderr, "fbsweep: -jobs %d ignored — tracing (-record-out/-trace-out/-hist/-serve/-watch) forces a serial sweep so the event stream stays coherent\n", *jobs)
	}

	runners := map[string]func(sim.ExperimentOpts) (*sim.Report, error){
		"P2":  sim.UpdateVsInvalidate,
		"P3":  sim.MixedBus,
		"P4":  sim.RandomChoice,
		"P5":  sim.CopyBackVsWriteThrough,
		"P6":  sim.ReplacementStatusRefinement,
		"P7":  sim.LineSizeSweep,
		"P8":  sim.AbortRetryOverhead,
		"P9":  sim.MultiBusScaling,
		"P10": sim.SectorVsPlain,
		"P11": sim.ArbitrationDisciplines,
		"F1":  sim.HandshakePenalty,
		"F2":  sim.HandshakePenalty,
		"F2B": sim.SlowBoardTax,
	}

	var reports []*sim.Report
	switch key := strings.ToUpper(*exp); key {
	case "ALL":
		all, err := sim.RunBattery(sim.Battery(), opts, workers)
		fail(err)
		reports = all
	case "P1":
		rep, err := sim.ProtocolComparison([]string{
			"moesi", "moesi-invalidate", "moesi-update", "berkeley", "dragon",
			"illinois", "write-once", "firefly", "synapse", "write-through",
		}, []int{1, 2, 4, 8, 16}, opts)
		fail(err)
		reports = []*sim.Report{rep}
	default:
		run, ok := runners[key]
		if !ok {
			fmt.Fprintf(os.Stderr, "unknown experiment %q\n", *exp)
			os.Exit(2)
		}
		rep, err := run(opts)
		fail(err)
		reports = []*sim.Report{rep}
	}

	if *outDir != "" {
		fail(os.MkdirAll(*outDir, 0o755))
		for _, rep := range reports {
			name := strings.ReplaceAll(strings.ToLower(rep.ID), "/", "-")
			fail(os.WriteFile(filepath.Join(*outDir, name+".csv"), []byte(rep.CSV()), 0o644))
		}
		fmt.Fprintf(os.Stderr, "wrote %d CSV files to %s\n", len(reports), *outDir)
	}
	// With -json - the machine-readable document owns stdout and the
	// tables are suppressed, so `fbsweep ... -json - | jq` stays
	// parseable.
	if *jsonOut != "-" {
		for i, rep := range reports {
			if i > 0 {
				fmt.Println()
			}
			if *format == "csv" {
				fmt.Printf("# %s — %s\n", rep.ID, rep.Title)
				fmt.Print(rep.CSV())
			} else {
				fmt.Print(rep.Render())
			}
		}
	}
	if *jsonOut != "" {
		doc := batteryDoc{
			Fbsweep: batteryParams{
				Exp: strings.ToUpper(*exp), Refs: *refs, Seed: *seed, Shards: *shards,
			},
			Meta:    readMeta(),
			Reports: reports,
		}
		out, err := json.MarshalIndent(doc, "", "  ")
		fail(err)
		out = append(out, '\n')
		if *jsonOut == "-" {
			_, err = os.Stdout.Write(out)
		} else {
			err = os.WriteFile(*jsonOut, out, 0o644)
		}
		fail(err)
	}

	if srv != nil {
		if *serveLinger > 0 {
			fmt.Fprintf(os.Stderr, "fbsweep: sweep finished; observability endpoint stays up for %s\n", *serveLinger)
			srv.Linger(*serveLinger)
		}
		fail(srv.Close())
	}
	if rec != nil {
		fail(rec.Close())
		obs.WarnDropped(os.Stderr, "fbsweep", rec)
		if *hist {
			if h := obs.FindHistogram(rec); h != nil {
				fmt.Printf("\nsweep-wide latency histograms:\n%s", h.Render())
			}
		}
		if traceFile != nil {
			fail(traceFile.Close())
			fmt.Fprintf(os.Stderr, "fbsweep: wrote Chrome trace to %s\n", *traceOut)
		}
		if recordFile != nil {
			fail(recordFile.Close())
			fmt.Fprintf(os.Stderr, "fbsweep: wrote binary trace to %s (fbcausal analyze %s)\n", *recordOut, *recordOut)
		}
	}
	if *metricsJSON != "" {
		out, err := json.MarshalIndent(reports, "", "  ")
		fail(err)
		out = append(out, '\n')
		if *metricsJSON == "-" {
			_, err = os.Stdout.Write(out)
		} else {
			err = os.WriteFile(*metricsJSON, out, 0o644)
		}
		fail(err)
	}

	if mon != nil {
		rep := mon.Report()
		fmt.Fprintf(os.Stderr, "fbsweep: invariants: %s\n", rep.Summary())
		if rep.Total > 0 {
			for i := range rep.Violations {
				fmt.Fprintf(os.Stderr, "fbsweep: %s\n", rep.Violations[i].String())
			}
			os.Exit(1)
		}
	}
}

// batteryDoc is the fbsweep -json document: the sweep's parameters,
// run provenance, and every report table. internal/obs/ledger's sweep
// ingester mirrors this shape — keep the two in lockstep.
type batteryDoc struct {
	Fbsweep batteryParams `json:"fbsweep"`
	Meta    batteryMeta   `json:"_meta"`
	Reports []*sim.Report `json:"reports"`
}

type batteryParams struct {
	Exp    string `json:"exp"`
	Refs   int    `json:"refs"`
	Seed   uint64 `json:"seed"`
	Shards int    `json:"shards"`
}

// batteryMeta pins the environment the document was produced in,
// mirroring fbperf's _meta block so the run ledger treats both alike.
type batteryMeta struct {
	GitSHA     string `json:"git_sha,omitempty"`
	Go         string `json:"go"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	CPUs       int    `json:"cpus"`
	DateUTC    string `json:"date_utc"`
}

// readMeta pins the environment. The git SHA is best-effort: the
// sweep may run from an exported tree, and a missing SHA must not
// fail the battery.
func readMeta() batteryMeta {
	m := batteryMeta{
		Go:         runtime.Version(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		CPUs:       runtime.NumCPU(),
		DateUTC:    time.Now().UTC().Format(time.RFC3339),
	}
	if out, err := exec.Command("git", "rev-parse", "--short", "HEAD").Output(); err == nil {
		m.GitSHA = strings.TrimSpace(string(out))
	}
	return m
}

// effectiveWorkers resolves the -jobs flag: 0 means one worker per
// CPU, and an attached recorder forces a serial sweep (interleaving
// event streams from concurrent systems would make the trace and its
// histograms unreadable). forced reports that an explicit parallel
// request was overridden, so main can say so instead of silently
// running slower than asked.
func effectiveWorkers(jobs, numCPU int, tracing bool) (workers int, forced bool) {
	workers = jobs
	if workers == 0 {
		workers = numCPU
	}
	if tracing && workers != 1 {
		return 1, jobs > 1
	}
	return workers, false
}

func fail(err error) {
	if err != nil {
		fmt.Fprintln(os.Stderr, "fbsweep:", err)
		os.Exit(1)
	}
}
