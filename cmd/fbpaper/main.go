// Command fbpaper regenerates the paper's artifacts from the
// implementation and checks them: Tables 1–7 with the §4
// class-membership verdicts (tables), the §3.4 consistency claim by
// exhaustion (verify), the broadcast handshake of Figures 1–2 (figures)
// and the litmus suite (litmus). Run fbpaper without arguments for the
// subcommands, their flags and the exit statuses they share.
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"slices"
	"strings"

	"futurebus/cmd/internal/cli"
	"futurebus/internal/bus"
	"futurebus/internal/core"
	"futurebus/internal/litmus"
	"futurebus/internal/obs"
	"futurebus/internal/protocols"
	"futurebus/internal/sim"
	"futurebus/internal/tablegen"
	"futurebus/internal/verify"
	"futurebus/internal/workload"
)

const usage = `fbpaper — the paper's artifacts, regenerated from the implementation

  fbpaper tables [-table T1…T7|all] [-diff] [-validate] [-dot protocol] [-markdown]
      Tables 1–7 diffed against the paper, then every protocol's §4
      class-membership verdict; or one protocol's GraphViz diagram, or
      the Markdown protocol reference
  fbpaper verify [-boards 1–4]
      the §3.1 invariants over every reachable state, and the §4 hazards
  fbpaper figures [-slaves N] [-filter ns] [-txns N]
      the broadcast handshake of Figures 1–2 and a live transaction trace
  fbpaper litmus [-v] [-bus mode] [-discipline name] [-shards N] [-watch] [-parallel N] file.litmus...
      litmus tests over scripted (and, with -parallel, real) interleavings

Exit status: 0 clean; 1 when a check failed (a table diverges from the
paper or fails class membership, a model check fails or a §4 hazard is
not found, a litmus assertion or consistency check fails); 2 on usage
or input errors.
`

// tool is one invocation's output streams.
type tool struct{ stdout, stderr io.Writer }

// commands maps each subcommand to its runner, which reports whether a
// check failed. An error it returns is a usage or input error.
var commands = map[string]func(t *tool, args []string) (failed bool, err error){
	"tables":  tables,
	"verify":  verifyClass,
	"figures": figures,
	"litmus":  litmusFiles,
}

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// run executes one fbpaper command line and returns its exit status.
func run(args []string, stdout, stderr io.Writer) int {
	if cli.Help(stderr, usage, args) {
		return cli.OK
	}
	if len(args) == 0 {
		fmt.Fprint(stderr, usage)
		return cli.Error
	}
	cmd, ok := commands[args[0]]
	if !ok {
		fmt.Fprintf(stderr, "fbpaper: unknown command %q\n\n%s", args[0], usage)
		return cli.Error
	}
	failed, err := cmd(&tool{stdout, stderr}, args[1:])
	return cli.Status(stderr, "fbpaper "+args[0], failed, err)
}

func tables(t *tool, args []string) (bool, error) {
	fs := flag.NewFlagSet("fbpaper tables", flag.ContinueOnError)
	table := fs.String("table", "all", "artifact to print (T1…T7 or 'all')")
	diff := fs.Bool("diff", true, "diff regenerated tables against the paper")
	validate := fs.Bool("validate", true, "print class membership for every protocol")
	dot := fs.String("dot", "", "emit a GraphViz state diagram for the named protocol and exit")
	markdown := fs.Bool("markdown", false, "emit the full protocol reference as Markdown and exit")
	if err := cli.Parse(t.stderr, usage, fs, args, 0, 0); err != nil {
		return false, err
	}
	artifacts := tablegen.Artifacts()
	if *table != "all" {
		artifacts = slices.DeleteFunc(artifacts, func(a tablegen.Artifact) bool { return !strings.EqualFold(*table, a.ID) })
		if len(artifacts) == 0 {
			return false, fmt.Errorf("-table %s: no such artifact (want T1…T7 or all)", *table)
		}
	}
	if *markdown {
		fmt.Fprint(t.stdout, tablegen.Markdown())
		return false, nil
	}
	if *dot != "" {
		p, err := protocols.New(*dot)
		if err != nil {
			return false, err
		}
		fmt.Fprint(t.stdout, tablegen.DOT(p.Table()))
		return false, nil
	}

	failed := false
	for _, a := range artifacts {
		fmt.Fprintf(t.stdout, "== %s: %s ==\n%s\n", a.ID, a.Title, a.Render())
		if *diff {
			if diffs := a.Diff(); len(diffs) > 0 {
				failed = true
				fmt.Fprintf(t.stdout, "DIVERGES from the paper (%d cells):\n", len(diffs))
				for _, d := range diffs {
					fmt.Fprintf(t.stdout, "  %s\n", d)
				}
			} else {
				fmt.Fprintln(t.stdout, "matches the paper cell for cell.")
			}
		}
		fmt.Fprintln(t.stdout)
	}
	if !*validate || *table != "all" {
		return failed, nil
	}
	fmt.Fprintln(t.stdout, "== class membership (§4) ==")
	for _, name := range protocols.Names() {
		p, err := protocols.New(name)
		if err != nil {
			return failed, err
		}
		rep := core.Validate(p.Table(), p.Variant())
		fmt.Fprintf(t.stdout, "  %-24s %s\n", name, rep.Verdict)
		for _, adapted := range rep.AdaptedActions {
			fmt.Fprintf(t.stdout, "    adapted: %s\n", adapted)
		}
		for _, v := range rep.Violations {
			fmt.Fprintf(t.stdout, "    VIOLATION: %s\n", v)
			failed = true
		}
	}
	return failed, nil
}

func verifyClass(t *tool, args []string) (bool, error) {
	fs := flag.NewFlagSet("fbpaper verify", flag.ContinueOnError)
	n := fs.Int("boards", 3, "boards per exploration (1-4)")
	if err := cli.Parse(t.stderr, usage, fs, args, 0, 0); err != nil {
		return false, err
	}
	if *n < 1 || *n > verify.MaxBoards {
		return false, fmt.Errorf("-boards %d: the model checker explores 1 to %d boards", *n, verify.MaxBoards)
	}
	pure := map[string]verify.Chooser{} // a board bound to each protocol's table
	for _, name := range protocols.Names() {
		p, err := protocols.New(name)
		if err != nil {
			return false, err
		}
		pure[name] = verify.TableChooser{Table: p.Table()}
	}
	copyBack := verify.ClassChooser{Variant: core.CopyBack}

	fmt.Fprintf(t.stdout, "== the full class, %d copy-back boards ==\n", *n)
	boards := make([]verify.Chooser, *n)
	for i := range boards {
		boards[i] = copyBack
	}
	res := verify.Explore(boards)
	fmt.Fprintf(t.stdout, "  %s\n", res)
	failed := !res.Ok()

	fmt.Fprintln(t.stdout, "\n== class + write-through + non-caching ==")
	res = verify.Explore([]verify.Chooser{copyBack, copyBack,
		verify.ClassChooser{Variant: core.WriteThrough}, verify.ClassChooser{Variant: core.NonCaching}})
	fmt.Fprintf(t.stdout, "  %s\n", res)
	failed = failed || !res.Ok()

	fmt.Fprintln(t.stdout, "\n== each protocol, protocol-pure (3 boards) ==")
	for _, name := range protocols.Names() {
		if name == "random" || name == "round-robin" {
			continue // dynamic choosers range over the whole class (covered above)
		}
		res := verify.Explore([]verify.Chooser{pure[name], pure[name], pure[name]})
		fmt.Fprintf(t.stdout, "  %-24s %s\n", name, res)
		failed = failed || !res.Ok()
	}

	fmt.Fprintln(t.stdout, "\n== the §4 adaptation hazards (expected to be FOUND) ==")
	for _, pair := range [][2]string{{"write-once", "moesi"}, {"firefly", "berkeley"}} {
		res := verify.Explore([]verify.Chooser{pure[pair[0]], pure[pair[1]]})
		fmt.Fprintf(t.stdout, "  %s × %s:\n", pair[0], pair[1])
		if res.Ok() {
			fmt.Fprintln(t.stdout, "    NO HAZARD FOUND — this should not happen")
			failed = true
			continue
		}
		fmt.Fprintf(t.stdout, "    hazard confirmed, witness:\n    %s\n", res.Violations[0])
	}
	return failed, nil
}

func figures(t *tool, args []string) (bool, error) {
	fs := flag.NewFlagSet("fbpaper figures", flag.ContinueOnError)
	slaves := fs.Int("slaves", 3, "number of responding modules")
	filter := fs.Int64("filter", 25, "wired-OR glitch filter delay (ns)")
	txns := fs.Int("txns", 12, "live bus transactions to trace (0 to skip)")
	if err := cli.Parse(t.stderr, usage, fs, args, 0, 0); err != nil {
		return false, err
	}
	if *slaves < 1 || *filter < 0 || *txns < 0 {
		return false, fmt.Errorf("want -slaves ≥ 1, -filter ≥ 0 and -txns ≥ 0; got %d, %d and %d", *slaves, *filter, *txns)
	}

	cfg := bus.DefaultHandshakeConfig()
	cfg.GlitchFilter = *filter
	for len(cfg.Slaves) < *slaves {
		n := int64(len(cfg.Slaves))
		cfg.Slaves = append(cfg.Slaves, bus.SlaveTiming{AckDelay: 5 + n, ProcessTime: 40 + 17*n})
	}
	cfg.Slaves = cfg.Slaves[:*slaves]
	fmt.Fprint(t.stdout, bus.SimulateBroadcastHandshake(cfg).Render())
	if *txns == 0 {
		return false, nil
	}

	fmt.Fprintf(t.stdout, "\nLive transaction trace (4×moesi + 1 uncached DMA):\n")
	// The live trace is an obs sink: the bus emits a structured event
	// per completed transaction and the sink renders it. Events arrive
	// in bus order (the recorder preserves emission sequence).
	count := 0
	rec := obs.New(obs.SinkFunc(func(e *obs.Event) {
		if e.Kind != obs.KindTx || count >= *txns {
			return
		}
		count++
		fmt.Fprintf(t.stdout, "  %2d. t=%-7d m%-2d %s %#x -> col %d, CH=%t DI=%t SL=%t retries=%d cost=%dns\n",
			count, e.TS, e.Proc, e.Op, e.Addr, e.Col, e.CH, e.DI, e.SL, e.Retries, e.Dur)
	}))
	sysCfg := sim.Homogeneous("moesi", 4)
	sysCfg.Boards = append(sysCfg.Boards, sim.BoardSpec{Protocol: "uncached"})
	sysCfg.Obs = rec
	sys, err := sim.New(sysCfg)
	if err == nil {
		gens := sys.Generators(func(proc int) workload.Generator {
			return workload.MustModel(workload.Model{
				Proc: proc, SharedLines: 8, PrivateLines: 16,
				WordsPerLine: sys.WordsPerLine(), PShared: 0.5, PWrite: 0.4,
			}, 7)
		})
		eng := sim.Engine{Sys: sys, Gens: gens}
		_, err = eng.Run(*txns)
	}
	return false, errors.Join(err, rec.Close())
}

func litmusFiles(t *tool, args []string) (bool, error) {
	fs := flag.NewFlagSet("fbpaper litmus", flag.ContinueOnError)
	verbose := fs.Bool("v", false, "print witnesses for 'sometimes' assertions")
	busMode := fs.String("bus", "", "bus tenure policy for every schedule: atomic (default) or split")
	discipline := fs.String("discipline", "", "arbitration discipline: fcfs (default), rr, priority or bounded")
	shards := fs.Int("shards", 0, "override the fabric shard count (0 = the test file's own setting)")
	watchFlag := fs.Bool("watch", false, "run the invariant monitor over every schedule; any violation fails the test")
	parallel := fs.Int("parallel", 0, "also run each test this many rounds with real goroutine scheduling (schedule-independent assertions only)")
	if err := cli.Parse(t.stderr, usage, fs, args, 1, -1); err != nil {
		return false, err
	}
	if _, err := bus.NewTenure(*busMode, 0); err != nil {
		return false, err
	}
	if _, err := bus.NewDiscipline(*discipline); err != nil {
		return false, err
	}
	if *shards < 0 || *parallel < 0 {
		return false, fmt.Errorf("want -shards ≥ 0 and -parallel ≥ 0; got %d and %d", *shards, *parallel)
	}
	// Read every file before running any, so that an unreadable or
	// malformed file is an input error and not a failed test.
	tests := make([]*litmus.Test, fs.NArg())
	for i, path := range fs.Args() {
		src, err := os.ReadFile(path)
		if err != nil {
			return false, err
		}
		if tests[i], err = litmus.ParseString(string(src)); err != nil {
			return false, fmt.Errorf("%s: %w", path, err)
		}
		tests[i].Tenure, tests[i].Discipline, tests[i].Watch = *busMode, *discipline, *watchFlag
		if *shards > 0 {
			tests[i].Shards = *shards
		}
	}

	failed := false
	for i, test := range tests {
		res, err := litmus.Run(test)
		if errors.Is(err, litmus.ErrSystem) {
			return false, fmt.Errorf("%s: %w", fs.Arg(i), err)
		}
		if err != nil {
			fmt.Fprintf(t.stderr, "fbpaper litmus: %s: %v\n", fs.Arg(i), err)
			failed = true
			continue
		}
		fmt.Fprintln(t.stdout, res)
		if *verbose {
			for _, a := range test.Assertions {
				if sched, ok := res.Witness[a.Src]; ok {
					fmt.Fprintf(t.stdout, "  witness: %s (schedule %d)\n", a.Src, sched)
					delete(res.Witness, a.Src) // a repeated assertion shares one witness
				}
			}
		}
		failed = failed || !res.Ok()
		if *parallel == 0 {
			continue
		}
		if res, err = litmus.RunParallel(test, *parallel); err != nil {
			fmt.Fprintf(t.stderr, "fbpaper litmus: %s (parallel): %v\n", fs.Arg(i), err)
			failed = true
			continue
		}
		fmt.Fprintf(t.stdout, "%s (parallel %d rounds)\n", res, *parallel)
		failed = failed || !res.Ok()
	}
	return failed, nil
}
