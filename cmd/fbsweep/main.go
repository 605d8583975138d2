// Command fbsweep runs the performance experiments (P1–P11 plus the
// handshake-penalty sweep) and prints the paper-style result tables.
//
// Usage:
//
//	fbsweep [-exp P1] [-refs 20000] [-seed 1986] [-bus split] [-discipline rr]
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"strings"

	"futurebus/cmd/internal/session"
	"futurebus/internal/obs"
	"futurebus/internal/obs/ledger"
	"futurebus/internal/sim"
)

func main() {
	var shared session.Flags
	shared.Register(flag.CommandLine)
	exp := flag.String("exp", "all", "experiment to run (P1…P11, F1/F2 or either part, F2B, or 'all')")
	jobs := flag.Int("jobs", 0, "worker pool size for -exp all (0 = one per CPU, forced to 1 when tracing so the event stream stays coherent)")
	format := flag.String("format", "table", "output format: table or csv")
	outDir := flag.String("out", "", "also write each report as <dir>/<ID>.csv")
	jsonOut := flag.String("json", "", "write the battery as a machine-readable document to this file ('-' = stdout): {fbsweep, _meta, reports}, ingestable by fbtrend")
	flag.Parse()
	if *format != "table" && *format != "csv" {
		fmt.Fprintf(os.Stderr, "unknown format %q (table, csv)\n", *format)
		os.Exit(2)
	}

	// Resolve -exp before the session creates any trace file, so a
	// mistyped name leaves an existing -record-out file as it was.
	list := experiments(*exp)
	if list == nil {
		fmt.Fprintf(os.Stderr, "unknown experiment %q\n", *exp)
		os.Exit(2)
	}
	s, err := startSession(&shared, *exp)
	fail(err)
	opts := experimentOpts(&shared, s.Rec)
	// From here every exit ends the session, so a failed battery still
	// leaves whole traces and prints its verdict.
	end := func(err error, report func() error) { os.Exit(s.End(os.Stderr, "fbsweep: ", err, report)) }
	check := func(err error) {
		if err != nil {
			end(err, nil)
		}
	}

	// Experiments are independent and internally deterministic, so the
	// full battery fans out over a bounded worker pool; reports come
	// back in battery order either way. A recorder serialises the run:
	// interleaving event streams from concurrent systems would make the
	// trace (and its histograms) unreadable.
	workers, forced := effectiveWorkers(*jobs, runtime.NumCPU(), s.Rec != nil)
	if forced {
		fmt.Fprintf(os.Stderr, "fbsweep: -jobs %d ignored — tracing (-record-out/-trace-out/-hist/-serve/-watch) forces a serial sweep so the event stream stays coherent\n", *jobs)
	}

	reports, err := sim.RunBattery(list, opts, workers)
	check(err)

	if *outDir != "" {
		check(os.MkdirAll(*outDir, 0o755))
		for _, rep := range reports {
			name := strings.ReplaceAll(strings.ToLower(rep.ID), "/", "-")
			check(os.WriteFile(filepath.Join(*outDir, name+".csv"), []byte(rep.CSV()), 0o644))
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
		check(session.WriteJSON(os.Stdout, *jsonOut, batteryDoc{
			Fbsweep: batteryParams{
				Exp: strings.ToUpper(*exp), Refs: shared.Refs, Seed: shared.Seed, Shards: shared.Shards,
			},
			Meta:    ledger.CurrentMeta(),
			Reports: reports,
		}))
	}

	end(nil, func() error {
		if shared.Hist {
			if h := obs.FindHistogram(s.Rec); h != nil {
				fmt.Printf("\nsweep-wide latency histograms:\n%s", h.Render())
			}
		}
		if shared.MetricsJSON != "" {
			return session.WriteJSON(os.Stdout, shared.MetricsJSON, reports)
		}
		return nil
	})
}

// startSession opens the sweep's observability session. One recorder
// instruments every system the experiments build, so histograms, traces
// and -serve cover the whole sweep. The experiments collect saturation
// telemetry on private recorders when nothing traces them; a shared
// recorder carries a perf sink in their place.
func startSession(shared *session.Flags, exp string) (*session.Session, error) {
	return session.Start(shared, session.Options{
		Tool:        "fbsweep",
		Fingerprint: fmt.Sprintf("fbsweep exp=%s refs=%d seed=%d shards=%d", strings.ToUpper(exp), shared.Refs, shared.Seed, shared.Shards),
		PerRunPerf:  true,
	}, os.Stderr)
}

// experimentOpts sizes every experiment from the shared flags and
// instruments it with rec (nil = untraced).
func experimentOpts(shared *session.Flags, rec *obs.Recorder) sim.ExperimentOpts {
	return sim.ExperimentOpts{
		RefsPerProc: shared.Refs, Seed: shared.Seed, Obs: rec, Shards: shared.Shards, Perf: shared.Perf,
		Tenure: shared.Bus, Discipline: shared.Discipline, PendingTable: shared.PendingTable,
	}
}

// experiments looks the -exp argument up in the battery, in any case:
// "all" selects every experiment, anything else the experiment whose ID
// or one of whose '/'-separated parts ("F1" of "F1/F2") it names. It
// returns nil for an unknown name.
func experiments(exp string) []sim.NamedExperiment {
	key := strings.ToUpper(exp)
	if key == "ALL" {
		return sim.Battery()
	}
	for _, ne := range sim.Battery() {
		if ne.ID == key || slices.Contains(strings.Split(ne.ID, "/"), key) {
			return []sim.NamedExperiment{ne}
		}
	}
	return nil
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

// batteryMeta is the run provenance the ledger reads from every
// report format.
type batteryMeta = ledger.Meta

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
