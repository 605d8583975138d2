// Command fbt reads the binary .fbt traces fbsim and fbsweep write
// with -record-out. fbt causal reconstructs a run's dependency DAG and
// critical path with per-phase / per-cause blame; fbt lens its per-line
// MOESI lifetimes: transition matrices, residency, ownership chains and
// write fan-out; fbt watch replays it through the runtime invariant
// monitor, reporting every §3.1 ownership-invariant and Table 1/2
// action-legality violation. Run fbt without arguments for the
// subcommands and their flags.
//
// Every subcommand shares one exit status, so a CI step can gate on a
// recorded run directly: 0 when clean, 1 when a diff metric regressed
// past both thresholds or a trace violated an invariant, 2 on usage,
// I/O or decode errors.
package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"futurebus/internal/obs"
	"futurebus/internal/obs/causal"
	"futurebus/internal/obs/coherence"
	"futurebus/internal/obs/watch"
)

const usage = `fbt — offline analysis of .fbt traces

  fbt causal analyze [-top N] [-canonical] [-json] run.fbt
      reconstruct the dependency DAG and print the critical path,
      cost-by-cause table and per-board blame

  fbt causal diff [-rel frac] [-abs ns] [-canonical] [-json] old.fbt new.fbt
      compare two recordings per phase and per cause

  fbt causal export [-o file] run.fbt
      re-export the raw event stream as JSON Lines

  fbt lens analyze [-top N] [-json] [-html file] run.fbt
      reconstruct per-line MOESI lifetimes and print per-protocol
      transition matrices, residency, ownership chains and write
      fan-out; -html additionally writes a self-contained report

  fbt lens diff [-rel frac] [-abs rate] [-json] old.fbt new.fbt
      compare two recordings' coherence rates per protocol

  fbt watch [-json] [-max N] [-context N] run.fbt [more.fbt ...]
      replay each trace through the shadow-state invariant monitor
      (internal/obs/watch) and print a per-trace verdict

Exit status: 0 clean; 1 when a diff metric regressed past BOTH
thresholds or a trace violated a coherence invariant; 2 on usage, I/O
or decode errors.
`

// Exit statuses shared by every subcommand.
const (
	exitOK    = 0
	exitDirty = 1 // a diff metric regressed or a trace violated an invariant
	exitError = 2 // usage, I/O or decode error
)

// Default lens diff thresholds. The compared metrics are rates (per
// transition, shares, fan-out means), so the absolute gate is a small
// rate delta, not nanoseconds.
const (
	lensRel = 0.05
	lensAbs = 0.001
)

// errUsage marks a command line that did not parse; the parse error or
// the usage text has already been printed.
var errUsage = errors.New("usage")

// tool is one invocation's output streams.
type tool struct{ stdout, stderr io.Writer }

// commands maps each subcommand to its runner, which reports whether a
// diff regressed or a trace violated an invariant.
var commands = map[string]func(t *tool, args []string) (dirty bool, err error){
	"causal analyze": causalAnalyze,
	"causal diff":    causalDiff,
	"causal export":  causalExport,
	"lens analyze":   lensAnalyze,
	"lens diff":      lensDiff,
	"watch":          watchTraces,
}

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// run executes one fbt command line and returns its exit status.
func run(args []string, stdout, stderr io.Writer) int {
	words := 2 // "causal analyze", "lens diff", ...
	if len(args) > 0 && args[0] == "watch" {
		words = 1
	}
	if len(args) < words {
		fmt.Fprint(stderr, usage)
		return exitError
	}
	name := strings.Join(args[:words], " ")
	cmd, ok := commands[name]
	if !ok {
		fmt.Fprintf(stderr, "fbt: unknown command %q\n\n%s", name, usage)
		return exitError
	}
	dirty, err := cmd(&tool{stdout, stderr}, args[words:])
	switch {
	case errors.Is(err, flag.ErrHelp):
		return exitOK
	case errors.Is(err, errUsage):
		return exitError
	case err != nil:
		fmt.Fprintln(stderr, "fbt:", err)
		return exitError
	case dirty:
		return exitDirty
	}
	return exitOK
}

// parse parses a subcommand's args and checks that at least min and
// (max >= 0) at most max trace paths follow the flags.
func (t *tool) parse(fs *flag.FlagSet, args []string, min, max int) error {
	fs.SetOutput(t.stderr)
	if err := fs.Parse(args); err != nil {
		return fmt.Errorf("%w: %w", errUsage, err) // -h wraps flag.ErrHelp
	}
	if n := fs.NArg(); n < min || max >= 0 && n > max {
		fmt.Fprint(t.stderr, usage)
		return errUsage
	}
	return nil
}

// replay feeds one .fbt file to the sinks in recorded order. A
// missing, truncated or corrupt trace is an error naming the file.
func replay(path string, sinks ...obs.Sink) (obs.TraceMeta, error) {
	f, err := os.Open(path)
	if err != nil {
		return obs.TraceMeta{}, err
	}
	defer f.Close()
	meta, _, err := obs.ReplayTrace(f, sinks...)
	if err != nil {
		return meta, fmt.Errorf("%s: %w", path, err)
	}
	return meta, nil
}

// head holds the identity fields a JSON document leads with: the trace
// and the fingerprint of the configuration that recorded it, or the
// fingerprints of both recordings a diff compares.
type head struct {
	Trace          string `json:"trace,omitempty"`
	Fingerprint    string `json:"fingerprint,omitempty"`
	OldFingerprint string `json:"old_fingerprint,omitempty"`
	NewFingerprint string `json:"new_fingerprint,omitempty"`
}

// writeJSON writes h's non-empty fields followed by body's fields as
// one indented JSON object: the layout of a struct that declares h's
// fields first and embeds body.
func (t *tool) writeJSON(h head, body any) error {
	hb, err := json.Marshal(h)
	if err != nil {
		return err
	}
	doc, err := json.Marshal(body)
	if err != nil {
		return err
	}
	if len(hb) > len("{}") {
		doc = append(append(hb[:len(hb)-1], ','), doc[1:]...)
	}
	var buf bytes.Buffer
	if err := json.Indent(&buf, doc, "", "  "); err != nil {
		return err
	}
	buf.WriteByte('\n')
	_, err = t.stdout.Write(buf.Bytes())
	return err
}

// writeAnalysis writes one recording's analysis: as JSON, or as the
// trace header followed by the analysis' own rendering.
func (t *tool) writeAnalysis(path string, meta obs.TraceMeta, asJSON bool, an any, render func(io.Writer)) error {
	if asJSON {
		return t.writeJSON(head{Fingerprint: meta.Fingerprint}, an)
	}
	if meta.Fingerprint != "" {
		fmt.Fprintf(t.stdout, "trace: %s\nconfig: %s\n\n", path, meta.Fingerprint)
	}
	render(t.stdout)
	return nil
}

// writeDiff writes a diff of the recordings fs names: as JSON, or as
// the old/new header followed by the report's own rendering.
func (t *tool) writeDiff(fs *flag.FlagSet, oldMeta, newMeta obs.TraceMeta, asJSON bool, rep any, render func(io.Writer)) error {
	if asJSON {
		return t.writeJSON(head{OldFingerprint: oldMeta.Fingerprint, NewFingerprint: newMeta.Fingerprint}, rep)
	}
	fmt.Fprintf(t.stdout, "old: %s (%s)\nnew: %s (%s)\n",
		fs.Arg(0), orUnknown(oldMeta.Fingerprint), fs.Arg(1), orUnknown(newMeta.Fingerprint))
	if oldMeta.Fingerprint != newMeta.Fingerprint {
		fmt.Fprintf(t.stdout, "note: configs differ — deltas compare different runs, not a regression test\n")
	}
	render(t.stdout)
	return nil
}

func orUnknown(s string) string {
	if s == "" {
		return "unknown config"
	}
	return s
}

// writeFile creates path and fills it with write.
func writeFile(path string, write func(io.Writer) error) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := write(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// loadCausal analyzes one recording. With canonical set, the event
// stream is first rewritten into its scheduler-independent normal form
// so concurrent-engine recordings of the same logical run compare equal.
func loadCausal(path string, canonical bool) (obs.TraceMeta, *causal.Analysis, error) {
	if !canonical {
		var a causal.Analyzer
		meta, err := replay(path, &a)
		return meta, a.Analyze(), err
	}
	var events []obs.Event
	meta, err := replay(path, obs.SinkFunc(func(e *obs.Event) { events = append(events, *e) }))
	return meta, causal.AnalyzeEvents(causal.Canonicalize(events)), err
}

func causalAnalyze(t *tool, args []string) (bool, error) {
	fs := flag.NewFlagSet("fbt causal analyze", flag.ContinueOnError)
	top := fs.Int("top", 10, "critical-path segments to list")
	canonical := fs.Bool("canonical", false, "canonicalize the event stream first (scheduler-independent view)")
	asJSON := fs.Bool("json", false, "emit the full analysis as JSON")
	if err := t.parse(fs, args, 1, 1); err != nil {
		return false, err
	}
	meta, an, err := loadCausal(fs.Arg(0), *canonical)
	if err != nil {
		return false, err
	}
	return false, t.writeAnalysis(fs.Arg(0), meta, *asJSON, an, func(w io.Writer) { an.Render(w, *top) })
}

func causalDiff(t *tool, args []string) (bool, error) {
	fs := flag.NewFlagSet("fbt causal diff", flag.ContinueOnError)
	rel := fs.Float64("rel", causal.DefaultThresholds.Rel, "relative regression threshold (fraction)")
	abs := fs.Int64("abs", causal.DefaultThresholds.Abs, "absolute regression threshold (simulated ns)")
	canonical := fs.Bool("canonical", false, "canonicalize both event streams first (compare concurrent-engine runs)")
	asJSON := fs.Bool("json", false, "emit the report as JSON")
	if err := t.parse(fs, args, 2, 2); err != nil {
		return false, err
	}
	oldMeta, oldA, err := loadCausal(fs.Arg(0), *canonical)
	if err != nil {
		return false, err
	}
	newMeta, newA, err := loadCausal(fs.Arg(1), *canonical)
	if err != nil {
		return false, err
	}
	rep := causal.Diff(oldA, newA, causal.Thresholds{Rel: *rel, Abs: *abs})
	return rep.Regressions > 0, t.writeDiff(fs, oldMeta, newMeta, *asJSON, rep, rep.Render)
}

func causalExport(t *tool, args []string) (bool, error) {
	fs := flag.NewFlagSet("fbt causal export", flag.ContinueOnError)
	out := fs.String("o", "", "output file (default stdout)")
	if err := t.parse(fs, args, 1, 1); err != nil {
		return false, err
	}
	export := func(w io.Writer) error {
		sink := obs.NewJSONLSink(w)
		if _, err := replay(fs.Arg(0), sink); err != nil {
			return err
		}
		return sink.Flush()
	}
	if *out == "" {
		return false, export(t.stdout)
	}
	return false, writeFile(*out, export)
}

// loadLens analyzes one recording's coherence behaviour, keeping the
// topN busiest lines.
func loadLens(path string, topN int) (obs.TraceMeta, *coherence.Analysis, error) {
	var a coherence.Analyzer
	meta, err := replay(path, &a)
	return meta, a.Analyze(topN), err
}

func lensAnalyze(t *tool, args []string) (bool, error) {
	fs := flag.NewFlagSet("fbt lens analyze", flag.ContinueOnError)
	top := fs.Int("top", coherence.DefaultTopLines, "busiest lines to list")
	asJSON := fs.Bool("json", false, "emit the full analysis as JSON")
	htmlOut := fs.String("html", "", "also write a self-contained HTML report to this file")
	if err := t.parse(fs, args, 1, 1); err != nil {
		return false, err
	}
	meta, an, err := loadLens(fs.Arg(0), *top)
	if err != nil {
		return false, err
	}
	if *htmlOut != "" {
		if err := writeFile(*htmlOut, an.RenderHTML); err != nil {
			return false, err
		}
	}
	return false, t.writeAnalysis(fs.Arg(0), meta, *asJSON, an, an.Render)
}

func lensDiff(t *tool, args []string) (bool, error) {
	fs := flag.NewFlagSet("fbt lens diff", flag.ContinueOnError)
	rel := fs.Float64("rel", lensRel, "relative regression threshold (fraction)")
	abs := fs.Float64("abs", lensAbs, "absolute regression threshold (rate delta)")
	asJSON := fs.Bool("json", false, "emit the report as JSON")
	if err := t.parse(fs, args, 2, 2); err != nil {
		return false, err
	}
	oldMeta, oldA, err := loadLens(fs.Arg(0), -1)
	if err != nil {
		return false, err
	}
	newMeta, newA, err := loadLens(fs.Arg(1), -1)
	if err != nil {
		return false, err
	}
	rep := coherence.Diff(oldA, newA, *rel, *abs)
	return rep.Regressions > 0, t.writeDiff(fs, oldMeta, newMeta, *asJSON, rep, rep.Render)
}

func watchTraces(t *tool, args []string) (bool, error) {
	fs := flag.NewFlagSet("fbt watch", flag.ContinueOnError)
	maxV := fs.Int("max", watch.DefaultMaxViolations, "violation records to keep per trace (counts are always exact)")
	ctxN := fs.Int("context", watch.DefaultContextDepth, "events of per-line context to keep with each violation")
	asJSON := fs.Bool("json", false, "emit each trace's full report as JSON")
	if err := t.parse(fs, args, 1, -1); err != nil {
		return false, err
	}
	dirty := false
	for _, path := range fs.Args() {
		mon := watch.New(watch.Config{MaxViolations: *maxV, ContextDepth: *ctxN})
		meta, err := replay(path, mon)
		if err != nil {
			return dirty, err
		}
		rep := mon.Report()
		dirty = dirty || rep.Total > 0
		if !*asJSON {
			renderWatch(t.stdout, path, meta, rep)
		} else if err := t.writeJSON(head{Trace: path, Fingerprint: meta.Fingerprint}, rep); err != nil {
			return dirty, err
		}
	}
	return dirty, nil
}

// renderWatch prints one trace's verdict, its violation counts and the
// stored violations with their per-line context.
func renderWatch(w io.Writer, path string, meta obs.TraceMeta, rep *watch.Report) {
	fmt.Fprintf(w, "%s: %s\n", path, rep.Summary())
	if meta.Fingerprint != "" {
		fmt.Fprintf(w, "  config: %s\n", meta.Fingerprint)
	}
	if rep.Total == 0 {
		return
	}
	for _, c := range rep.Counts {
		fmt.Fprintf(w, "  %6d × %-28s proto=%s\n", c.N, c.Invariant, c.Proto)
	}
	for i := range rep.Violations {
		v := &rep.Violations[i]
		fmt.Fprintf(w, "\n  #%d %s\n", v.N, v.String())
		for j := range v.Context {
			e := &v.Context[j]
			fmt.Fprintf(w, "      t=%-8d %-8s proc=%-2d %s→%s %s tx=%d\n",
				e.TS, e.Kind, e.Proc, e.From, e.To, e.Cause, e.TxID)
		}
	}
	if int64(len(rep.Violations)) < rep.Total {
		fmt.Fprintf(w, "\n  (%d further violations counted but not stored; rerun with -max)\n",
			rep.Total-int64(len(rep.Violations)))
	}
}
