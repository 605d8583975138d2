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
// gate over a one-run history, judging new.json against old.json.
// Every subcommand exits 2 on a usage, input or I/O error (diff also
// when the two reports are of different kinds) and 0 on -h: the exit
// contract fbt, fbpaper and fbperf share (cmd/internal/cli). Every
// verdict comes from ledger.Gate, as do fbt's diffs and fbsim's /trend.
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
	"strings"

	"futurebus/cmd/internal/cli"
	"futurebus/cmd/internal/session"
	"futurebus/internal/obs/ledger"
	"futurebus/internal/obs/regress"
)

// DefaultLedger is the conventional ledger path scripts/bench.sh
// appends to at the repo root.
const DefaultLedger = "BENCH_LEDGER.jsonl"

const usage = `fbtrend — cross-run regression observatory over a JSONL run ledger

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

Exit status: 0 clean; 1 when gate or diff finds a regression; 2 on
usage, input or I/O errors.
`

// tool is one invocation's output streams.
type tool struct{ stdout, stderr io.Writer }

// commands maps each subcommand to its runner, which reports whether
// gate or diff found a regression. An error it returns is a usage,
// input or I/O error.
var commands = map[string]func(t *tool, args []string) (regressed bool, err error){
	"ingest": ingest,
	"list":   list,
	"trend":  trend,
	"gate":   gate,
	"diff":   diff,
	"report": report,
}

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// run executes one fbtrend command line and returns its exit status.
func run(args []string, stdout, stderr io.Writer) int {
	if len(args) == 0 {
		fmt.Fprint(stderr, usage)
		return cli.Error
	}
	switch args[0] {
	case "-h", "-help", "--help", "help":
		fmt.Fprint(stderr, usage)
		return cli.OK
	}
	cmd, ok := commands[args[0]]
	if !ok {
		fmt.Fprintf(stderr, "fbtrend: unknown subcommand %q\n\n%s", args[0], usage)
		return cli.Error
	}
	regressed, err := cmd(&tool{stdout, stderr}, args[1:])
	return cli.Status(stderr, "fbtrend", regressed, err)
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

func (t *tool) read(f ledgerFlags) ([]ledger.Record, error) {
	recs, dropped, err := ledger.Read(*f.path)
	if err != nil {
		return nil, err
	}
	if dropped > 0 {
		fmt.Fprintf(t.stderr, "fbtrend: %s: dropped %d truncated trailing record (interrupted append)\n", *f.path, dropped)
	}
	return ledger.Filter(recs, *f.kind, *f.label), nil
}

func ingest(t *tool, args []string) (bool, error) {
	fs := flag.NewFlagSet("fbtrend ingest", flag.ContinueOnError)
	lf := addLedgerFlags(fs)
	if err := cli.Parse(t.stderr, usage, fs, args, 1, -1); err != nil {
		return false, err
	}
	total := 0
	for _, path := range fs.Args() {
		data, err := os.ReadFile(path)
		if err != nil {
			return false, err
		}
		recs, err := ledger.Ingest(data, path)
		if err != nil {
			return false, fmt.Errorf("%s: %w", path, err)
		}
		if err := ledger.Append(*lf.path, recs...); err != nil {
			return false, err
		}
		total += len(recs)
	}
	fmt.Fprintf(t.stdout, "fbtrend: appended %d record(s) to %s\n", total, *lf.path)
	return false, nil
}

func list(t *tool, args []string) (bool, error) {
	fs := flag.NewFlagSet("fbtrend list", flag.ContinueOnError)
	lf := addLedgerFlags(fs)
	if err := cli.Parse(t.stderr, usage, fs, args, 0, 0); err != nil {
		return false, err
	}
	recs, err := t.read(lf)
	if err != nil {
		return false, err
	}
	for i, r := range recs {
		label := r.Label
		if label == "" {
			label = "-"
		}
		fmt.Fprintf(t.stdout, "%4d  %-9s %-28s %-9s %-20s %d metrics\n",
			i, r.Kind, label, orDash(r.Meta.GitSHA), orDash(r.Meta.DateUTC), len(r.Metrics))
	}
	if len(recs) == 0 {
		fmt.Fprintln(t.stdout, "fbtrend: no matching records")
	}
	return false, nil
}

func trend(t *tool, args []string) (bool, error) {
	fs := flag.NewFlagSet("fbtrend trend", flag.ContinueOnError)
	lf := addLedgerFlags(fs)
	gf := addGateFlags(fs)
	if err := cli.Parse(t.stderr, usage, fs, args, 1, 1); err != nil {
		return false, err
	}
	key := fs.Arg(0)
	recs, err := t.read(lf)
	if err != nil {
		return false, err
	}
	series := ledger.Series(recs, key)
	if len(series) == 0 {
		return false, fmt.Errorf("metric %q not found in any matching record (try fbtrend list)", key)
	}
	steps := regress.Changepoints(series, *gf.window, *gf.k, regress.ThresholdsFor(key, *gf.rel))
	stepSet := make(map[int]bool, len(steps))
	for _, s := range steps {
		stepSet[s] = true
	}
	fmt.Fprintf(t.stdout, "%s  (%d runs", key, len(series))
	if regress.Advisory(key) {
		fmt.Fprintf(t.stdout, ", advisory")
	}
	if regress.BetterUp(key) {
		fmt.Fprintf(t.stdout, ", better-up")
	}
	fmt.Fprintf(t.stdout, ")\n")
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
		fmt.Fprintf(t.stdout, "  %4d %-9s %14.3f  %s%s\n", idx, orDash(r.Meta.GitSHA), v, sparkbar(v, lo, hi), mark)
		idx++
	}
	fmt.Fprintf(t.stdout, "slope: %+.4g per run over %d runs; %d changepoint(s)\n",
		regress.Slope(series), len(series), len(steps))
	return false, nil
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

func gate(t *tool, args []string) (bool, error) {
	fs := flag.NewFlagSet("fbtrend gate", flag.ContinueOnError)
	lf := addLedgerFlags(fs)
	gf := addGateFlags(fs)
	candidate := fs.String("candidate", "", "judge this report instead of the newest ledger record (not appended)")
	asJSON := fs.Bool("json", false, "emit the gate report as JSON")
	if err := cli.Parse(t.stderr, usage, fs, args, 0, 0); err != nil {
		return false, err
	}
	history, err := t.read(lf)
	if err != nil {
		return false, err
	}
	var cand ledger.Record
	if *candidate != "" {
		if cand, err = ingestOne(*candidate); err != nil {
			return false, err
		}
		// Only prior runs of the same series form the baseline.
		history = ledger.Filter(history, cand.Kind, cand.Label)
	} else {
		if len(history) == 0 {
			return false, fmt.Errorf("%s: no matching records to gate (run fbtrend ingest first)", *lf.path)
		}
		cand = history[len(history)-1]
		history = ledger.Filter(history[:len(history)-1], cand.Kind, cand.Label)
	}
	rep := ledger.Gate(history, cand, ledger.GateOpts{
		Window: *gf.window, K: *gf.k, Rel: *gf.rel, MinRuns: *gf.minRuns,
	})
	if *asJSON {
		if err := session.WriteJSON(t.stdout, "-", rep); err != nil {
			return false, err
		}
	} else {
		rep.Render(t.stdout)
	}
	return rep.Verdict == "regressed", nil
}

// diff judges the report at new.json against the one at old.json and
// writes the rendered verdict.
func diff(t *tool, args []string) (bool, error) {
	fs := flag.NewFlagSet("fbtrend diff", flag.ContinueOnError)
	if err := cli.Parse(t.stderr, usage, fs, args, 2, 2); err != nil {
		return false, err
	}
	old, err := ingestOne(fs.Arg(0))
	if err != nil {
		return false, err
	}
	cand, err := ingestOne(fs.Arg(1))
	if err != nil {
		return false, err
	}
	if old.Kind != cand.Kind {
		return false, fmt.Errorf("%s (kind %s) and %s (kind %s) are different report kinds", fs.Arg(0), old.Kind, fs.Arg(1), cand.Kind)
	}
	rep := ledger.Diff(old, cand, 0)
	rep.Render(t.stdout)
	return rep.Verdict == "regressed", nil
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

func report(t *tool, args []string) (bool, error) {
	fs := flag.NewFlagSet("fbtrend report", flag.ContinueOnError)
	lf := addLedgerFlags(fs)
	htmlOut := fs.String("html", "", "output HTML file (required)")
	if err := cli.Parse(t.stderr, usage, fs, args, 0, 0); err != nil {
		return false, err
	}
	if *htmlOut == "" {
		fmt.Fprint(t.stderr, usage)
		return false, cli.ErrUsage
	}
	recs, err := t.read(lf)
	if err != nil {
		return false, err
	}
	if len(recs) == 0 {
		return false, fmt.Errorf("%s: no matching records", *lf.path)
	}
	f, err := os.Create(*htmlOut)
	if err != nil {
		return false, err
	}
	if err := errors.Join(renderHTML(f, recs), f.Close()); err != nil {
		return false, err
	}
	fmt.Fprintf(t.stdout, "fbtrend: wrote %s (%d records)\n", *htmlOut, len(recs))
	return false, nil
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
