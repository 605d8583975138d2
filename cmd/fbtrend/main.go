// Command fbtrend is the longitudinal regression observatory: it folds
// every report format the tree emits into one append-only JSONL run
// ledger, plots per-metric trends across runs, and gates CI on the
// rolling baseline of the last N runs instead of one brittle baseline
// file.
//
// Usage:
//
//	fbtrend ingest [-ledger file] report.json...
//	fbtrend list [-ledger file] [-kind k] [-label l]
//	fbtrend trend [-ledger file] [-kind k] [-label l] [-window N] [-k mult] [-rel frac] metric
//	fbtrend gate [-ledger file] [-kind k] [-label l] [-window N] [-k mult] [-rel frac] [-min-runs N] [-candidate report.json] [-json]
//	fbtrend diff old.json new.json
//	fbtrend report [-ledger file] [-kind k] [-label l] -html out.html
//
// gate exits 1 when the candidate run (the newest ledger record, or
// -candidate's report) regresses any non-advisory metric against the
// rolling median+MAD baseline of the trailing window; diff is the same
// gate over a one-run history, judging new.json against old.json. Both
// exit 2 on usage, input or IO errors, and diff also when the two
// reports are of different kinds. Every verdict comes from
// ledger.Gate, as do fbt's diffs and fbsim's /trend.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
	"strings"

	"futurebus/cmd/internal/session"
	"futurebus/internal/obs/ledger"
	"futurebus/internal/obs/regress"
)

// DefaultLedger is the conventional ledger path scripts/bench.sh
// appends to at the repo root.
const DefaultLedger = "BENCH_LEDGER.jsonl"

func main() {
	if len(os.Args) < 2 {
		usage()
	}
	switch os.Args[1] {
	case "ingest":
		cmdIngest(os.Args[2:])
	case "list":
		cmdList(os.Args[2:])
	case "trend":
		cmdTrend(os.Args[2:])
	case "gate":
		cmdGate(os.Args[2:])
	case "diff":
		os.Exit(runDiff(os.Args[2:], os.Stdout, os.Stderr))
	case "report":
		cmdReport(os.Args[2:])
	case "-h", "-help", "--help", "help":
		usage()
	default:
		fmt.Fprintf(os.Stderr, "fbtrend: unknown subcommand %q\n\n", os.Args[1])
		usage()
	}
}

func usage() {
	fmt.Fprintf(os.Stderr, `fbtrend — cross-run regression observatory over a JSONL run ledger

  fbtrend ingest [-ledger file] report.json...
      fold reports (BENCH_*.json, fbperf run, fbt causal analyze -json,
      fbt lens analyze -json, fbsweep -json) into the ledger

  fbtrend list [-ledger file] [-kind k] [-label l]
      one line per ledger record: kind, label, git SHA, date, metrics

  fbtrend trend [-ledger file] [-kind k] [-label l] [-window N] [-k mult] [-rel frac] metric
      print the metric's run series with slope and changepoints

  fbtrend gate [-ledger file] [-kind k] [-label l] [-window N] [-k mult]
               [-rel frac] [-min-runs N] [-candidate report.json] [-json]
      judge the newest run (or -candidate) against the rolling
      median+MAD baseline of the trailing window; exit 1 on regression

  fbtrend diff old.json new.json
      judge one report against another of the same kind: the gate over
      a one-run history (in causal and lens reports a metric only one
      side has counts as 0); exit 1 on regression

  fbtrend report [-ledger file] [-kind k] [-label l] -html out.html
      self-contained HTML sparkline dashboard per metric family
`)
	os.Exit(2)
}

// ledgerFlags are the flags every subcommand shares.
type ledgerFlags struct {
	path  *string
	kind  *string
	label *string
}

func addLedgerFlags(fs *flag.FlagSet) ledgerFlags {
	return ledgerFlags{
		path:  fs.String("ledger", DefaultLedger, "ledger file (JSON Lines)"),
		kind:  fs.String("kind", "", "filter records by source kind (bench, fbperf, fbcausal, fblens, fbsweep)"),
		label: fs.String("label", "", "filter records by label (battery tuple, fingerprint, report ID)"),
	}
}

// gateFlags are the rolling-baseline knobs gate and trend share.
type gateFlags struct {
	window  *int
	k       *float64
	rel     *float64
	minRuns *int
}

func addGateFlags(fs *flag.FlagSet) gateFlags {
	return gateFlags{
		window:  fs.Int("window", regress.DefaultWindow, "trailing runs in the rolling baseline"),
		k:       fs.Float64("k", regress.DefaultK, "MAD multiplier of the noise envelope"),
		rel:     fs.Float64("rel", 0, "relative regression floor (fraction; 0 = each metric's default: 5% lens rates and bench allocations, 10% the rest)"),
		minRuns: fs.Int("min-runs", 2, "minimum baseline runs before a metric is judged"),
	}
}

func (f ledgerFlags) read() []ledger.Record {
	recs, dropped, err := ledger.Read(*f.path)
	fail(err)
	if dropped > 0 {
		fmt.Fprintf(os.Stderr, "fbtrend: %s: dropped %d truncated trailing record (interrupted append)\n", *f.path, dropped)
	}
	return ledger.Filter(recs, *f.kind, *f.label)
}

func cmdIngest(args []string) {
	fs := flag.NewFlagSet("ingest", flag.ExitOnError)
	lf := addLedgerFlags(fs)
	fail(fs.Parse(args))
	if fs.NArg() == 0 {
		usage()
	}
	total := 0
	for _, path := range fs.Args() {
		data, err := os.ReadFile(path)
		fail(err)
		recs, err := ledger.Ingest(data, path)
		if err != nil {
			fail(fmt.Errorf("%s: %w", path, err))
		}
		fail(ledger.Append(*lf.path, recs...))
		total += len(recs)
	}
	fmt.Printf("fbtrend: appended %d record(s) to %s\n", total, *lf.path)
}

func cmdList(args []string) {
	fs := flag.NewFlagSet("list", flag.ExitOnError)
	lf := addLedgerFlags(fs)
	fail(fs.Parse(args))
	if fs.NArg() != 0 {
		usage()
	}
	recs := lf.read()
	for i, r := range recs {
		label := r.Label
		if label == "" {
			label = "-"
		}
		fmt.Printf("%4d  %-9s %-28s %-9s %-20s %d metrics\n",
			i, r.Kind, label, orDash(r.Meta.GitSHA), orDash(r.Meta.DateUTC), len(r.Metrics))
	}
	if len(recs) == 0 {
		fmt.Println("fbtrend: no matching records")
	}
}

func cmdTrend(args []string) {
	fs := flag.NewFlagSet("trend", flag.ExitOnError)
	lf := addLedgerFlags(fs)
	gf := addGateFlags(fs)
	fail(fs.Parse(args))
	if fs.NArg() != 1 {
		usage()
	}
	key := fs.Arg(0)
	recs := lf.read()
	series := ledger.Series(recs, key)
	if len(series) == 0 {
		fail(fmt.Errorf("metric %q not found in any matching record (try fbtrend list)", key))
	}
	steps := regress.Changepoints(series, *gf.window, *gf.k, regress.ThresholdsFor(key, *gf.rel))
	stepSet := make(map[int]bool, len(steps))
	for _, s := range steps {
		stepSet[s] = true
	}
	fmt.Printf("%s  (%d runs", key, len(series))
	if regress.Advisory(key) {
		fmt.Printf(", advisory")
	}
	if regress.BetterUp(key) {
		fmt.Printf(", better-up")
	}
	fmt.Printf(")\n")
	lo, hi := series[0], series[0]
	for _, v := range series {
		if v < lo {
			lo = v
		}
		if v > hi {
			hi = v
		}
	}
	idx := 0 // index within the metric's own series
	for _, r := range recs {
		v, ok := r.Metrics[key]
		if !ok {
			continue
		}
		mark := ""
		if stepSet[idx] {
			mark = "  << step"
		}
		fmt.Printf("  %4d %-9s %14.3f  %s%s\n", idx, orDash(r.Meta.GitSHA), v, sparkbar(v, lo, hi), mark)
		idx++
	}
	fmt.Printf("slope: %+.4g per run over %d runs; %d changepoint(s)\n",
		regress.Slope(series), len(series), len(steps))
}

// sparkbar renders v's position in [lo,hi] as a crude text bar, enough
// to eyeball a trend in a terminal.
func sparkbar(v, lo, hi float64) string {
	const width = 24
	n := width / 2
	if hi > lo {
		n = int((v - lo) / (hi - lo) * width)
	}
	if n < 0 {
		n = 0
	}
	if n > width {
		n = width
	}
	return strings.Repeat("▪", n) + strings.Repeat("·", width-n)
}

func cmdGate(args []string) {
	fs := flag.NewFlagSet("gate", flag.ExitOnError)
	lf := addLedgerFlags(fs)
	gf := addGateFlags(fs)
	candidate := fs.String("candidate", "", "judge this report instead of the newest ledger record (not appended)")
	asJSON := fs.Bool("json", false, "emit the gate report as JSON")
	fail(fs.Parse(args))
	if fs.NArg() != 0 {
		usage()
	}
	history := lf.read()
	var cand ledger.Record
	if *candidate != "" {
		var err error
		cand, err = ingestOne(*candidate)
		fail(err)
		// Only prior runs of the same series form the baseline.
		history = ledger.Filter(history, cand.Kind, cand.Label)
	} else {
		if len(history) == 0 {
			fail(fmt.Errorf("%s: no matching records to gate (run fbtrend ingest first)", *lf.path))
		}
		cand = history[len(history)-1]
		history = ledger.Filter(history[:len(history)-1], cand.Kind, cand.Label)
	}
	rep := ledger.Gate(history, cand, ledger.GateOpts{
		Window: *gf.window, K: *gf.k, Rel: *gf.rel, MinRuns: *gf.minRuns,
	})
	if *asJSON {
		fail(session.WriteJSON("-", rep))
	} else {
		rep.Render(os.Stdout)
	}
	if rep.Verdict == "regressed" {
		os.Exit(1)
	}
}

// runDiff judges the report at args[1] against the one at args[0],
// writes the rendered verdict to stdout and returns the exit status: 0
// clean, 1 regressed, 2 usage or input error.
func runDiff(args []string, stdout, stderr io.Writer) int {
	if len(args) != 2 {
		fmt.Fprintln(stderr, "usage: fbtrend diff old.json new.json")
		return 2
	}
	old, err := ingestOne(args[0])
	var cand ledger.Record
	if err == nil {
		cand, err = ingestOne(args[1])
	}
	if err == nil && old.Kind != cand.Kind {
		err = fmt.Errorf("%s (kind %s) and %s (kind %s) are different report kinds", args[0], old.Kind, args[1], cand.Kind)
	}
	if err != nil {
		fmt.Fprintln(stderr, "fbtrend:", err)
		return 2
	}
	rep := ledger.Diff(old, cand, 0)
	rep.Render(stdout)
	if rep.Verdict == "regressed" {
		return 1
	}
	return 0
}

// ingestOne reads the report at path as exactly one ledger record.
func ingestOne(path string) (ledger.Record, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return ledger.Record{}, err
	}
	recs, err := ledger.Ingest(data, path)
	if err != nil {
		return ledger.Record{}, fmt.Errorf("%s: %w", path, err)
	}
	if len(recs) != 1 {
		return ledger.Record{}, fmt.Errorf("%s: yields %d records; judge one run at a time", path, len(recs))
	}
	return recs[0], nil
}

func cmdReport(args []string) {
	fs := flag.NewFlagSet("report", flag.ExitOnError)
	lf := addLedgerFlags(fs)
	htmlOut := fs.String("html", "", "output HTML file (required)")
	fail(fs.Parse(args))
	if fs.NArg() != 0 || *htmlOut == "" {
		usage()
	}
	recs := lf.read()
	if len(recs) == 0 {
		fail(fmt.Errorf("%s: no matching records", *lf.path))
	}
	f, err := os.Create(*htmlOut)
	fail(err)
	fail(renderHTML(f, recs))
	fail(f.Close())
	fmt.Printf("fbtrend: wrote %s (%d records)\n", *htmlOut, len(recs))
}

// seriesKeys returns every metric key of the records sorted by family
// prefix then name, so the dashboard groups related sparklines.
func seriesKeys(recs []ledger.Record) []string {
	keys := ledger.Keys(recs)
	sort.SliceStable(keys, func(i, j int) bool {
		fi, fj := family(keys[i]), family(keys[j])
		if fi != fj {
			return fi < fj
		}
		return keys[i] < keys[j]
	})
	return keys
}

// family is the metric key's first dot segment: "perf", "host",
// "bench", "causal", "lens", "sweep", "queue".
func family(key string) string {
	if i := strings.IndexByte(key, '.'); i >= 0 {
		return key[:i]
	}
	return key
}

func orDash(s string) string {
	if s == "" {
		return "-"
	}
	return s
}

func fail(err error) {
	if err != nil {
		fmt.Fprintln(os.Stderr, "fbtrend:", err)
		os.Exit(2)
	}
}
