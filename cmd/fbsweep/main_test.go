package main

import (
	"encoding/json"
	"errors"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"

	"futurebus/cmd/internal/session"
	"futurebus/internal/obs"
	"futurebus/internal/obs/ledger"
	"futurebus/internal/sim"
)

// TestMain runs fbsweep's main instead of the tests when the
// environment names its arguments (FBSWEEP_ARGS, space-separated), so a
// test can check the command's exit status and files in a subprocess.
func TestMain(m *testing.M) {
	if args, ok := os.LookupEnv("FBSWEEP_ARGS"); ok {
		os.Args = append(os.Args[:1], strings.Fields(args)...)
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// runMain runs fbsweep with args in a subprocess and returns its exit
// status and standard error.
func runMain(t *testing.T, args ...string) (int, string) {
	t.Helper()
	cmd := exec.Command(os.Args[0])
	cmd.Env = append(os.Environ(), "FBSWEEP_ARGS="+strings.Join(args, " "))
	var stderr strings.Builder
	cmd.Stderr = &stderr
	err := cmd.Run()
	var exit *exec.ExitError
	switch {
	case err == nil:
		return 0, stderr.String()
	case errors.As(err, &exit):
		return exit.ExitCode(), stderr.String()
	}
	t.Fatalf("fbsweep %s: %v", strings.Join(args, " "), err)
	return 0, ""
}

// TestUnknownExperimentKeepsTrace: an unknown -exp is a usage error
// (exit 2) found before any trace file is created, so an existing
// -record-out file is left as it was; it wins over a bad shared flag.
func TestUnknownExperimentKeepsTrace(t *testing.T) {
	keep := filepath.Join(t.TempDir(), "keep.fbt")
	const old = "an earlier run's trace"
	if err := os.WriteFile(keep, []byte(old), 0o644); err != nil {
		t.Fatal(err)
	}
	for _, args := range [][]string{
		{"-exp", "nope", "-record-out", keep},
		{"-exp", "nope", "-refs", "0", "-trace-out", keep},
	} {
		code, stderr := runMain(t, args...)
		if code != 2 || !strings.Contains(stderr, `unknown experiment "nope"`) {
			t.Errorf("fbsweep %s: exit %d, stderr %q; want 2 and the unknown experiment", strings.Join(args, " "), code, stderr)
		}
		if got, err := os.ReadFile(keep); err != nil || string(got) != old {
			t.Errorf("fbsweep %s left %q (%v), want %q", strings.Join(args, " "), got, err, old)
		}
	}
}

// TestFailedBatteryKeepsTrace: a battery that fails (here, on a shard
// count its caches' sets cannot interleave over) still ends its
// session: the -record-out trace decodes, the -watch verdict is
// printed, and the error exits 1.
func TestFailedBatteryKeepsTrace(t *testing.T) {
	path := filepath.Join(t.TempDir(), "sweep.fbt")
	code, stderr := runMain(t, "-exp", "P2", "-refs", "100", "-shards", "3", "-watch", "-record-out", path)
	if code != 1 || !strings.Contains(stderr, "cannot interleave") || !strings.Contains(stderr, "fbsweep: invariants: clean") {
		t.Errorf("exit %d, stderr %q; want 1, the battery's error and the verdict", code, stderr)
	}
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	if _, _, err := obs.ReplayTrace(f); err != nil {
		t.Errorf("the failed battery's trace does not decode: %v", err)
	}
}

// TestEffectiveWorkers pins the -jobs resolution, in particular that a
// recorder forces the sweep serial and that the override is only
// reported when the user explicitly asked for parallelism (forcing a
// defaulted or already-serial request is not worth a notice).
func TestEffectiveWorkers(t *testing.T) {
	cases := []struct {
		name        string
		jobs, cpus  int
		tracing     bool
		wantWorkers int
		wantForced  bool
	}{
		{"default no tracing", 0, 8, false, 8, false},
		{"explicit no tracing", 4, 8, false, 4, false},
		{"default with tracing", 0, 8, true, 1, false},
		{"explicit serial with tracing", 1, 8, true, 1, false},
		{"explicit parallel with tracing", 4, 8, true, 1, true},
		{"single cpu default", 0, 1, false, 1, false},
	}
	for _, tc := range cases {
		workers, forced := effectiveWorkers(tc.jobs, tc.cpus, tc.tracing)
		if workers != tc.wantWorkers || forced != tc.wantForced {
			t.Errorf("%s: effectiveWorkers(%d, %d, %v) = (%d, %v), want (%d, %v)",
				tc.name, tc.jobs, tc.cpus, tc.tracing, workers, forced, tc.wantWorkers, tc.wantForced)
		}
	}
}

// TestExperimentLookup: -exp names a battery experiment by its ID or
// one part of "F1/F2", in any case; "all" is the whole battery, and an
// unknown name resolves to nothing (main exits 2).
func TestExperimentLookup(t *testing.T) {
	battery := sim.Battery()
	if got := experiments("All"); len(got) != len(battery) {
		t.Errorf("-exp All selects %d experiments, want %d", len(got), len(battery))
	}
	want := map[string]string{"F1": "F1/F2", "f2": "F1/F2", "f2b": "F2B", "p10": "P10"}
	for _, ne := range battery {
		want[ne.ID] = ne.ID
		want[strings.ToLower(ne.ID)] = ne.ID
	}
	for exp, id := range want {
		if got := experiments(exp); len(got) != 1 || got[0].ID != id {
			t.Errorf("-exp %s selects %v, want %s", exp, got, id)
		}
	}
	for _, exp := range []string{"nope", "", "P12", "F", "F1/"} {
		if got := experiments(exp); got != nil {
			t.Errorf("-exp %q selects %v, want nothing", exp, got)
		}
	}
}

// TestBatteryDocIngestable pins the -json wire format against the run
// ledger's sweep ingester: the two mirror each other by hand, so a key
// rename on either side must fail here, not in a user's ledger.
func TestBatteryDocIngestable(t *testing.T) {
	doc := batteryDoc{
		Fbsweep: batteryParams{Exp: "P11", Refs: 2000, Seed: 1986, Shards: 1},
		Meta:    batteryMeta{GitSHA: "abc1234", Go: "go1.24.0", GOMAXPROCS: 8, CPUs: 8, DateUTC: "2026-08-08T00:00:00Z"},
		Reports: []*sim.Report{{
			ID:      "P11",
			Title:   "tenure × discipline",
			Columns: []string{"tenure", "discipline", "p99arb", "fairness"},
			Rows:    [][]string{{"atomic", "fcfs", "4100", "0.91"}},
		}},
	}
	blob, err := json.Marshal(doc)
	if err != nil {
		t.Fatal(err)
	}
	recs, err := ledger.Ingest(blob, "p11.json")
	if err != nil {
		t.Fatalf("ledger rejected the -json document: %v", err)
	}
	if len(recs) != 1 {
		t.Fatalf("got %d records, want 1: %+v", len(recs), recs)
	}
	r := recs[0]
	if r.Kind != ledger.KindSweep || r.Label != "P11" {
		t.Errorf("record kind/label = %s/%s, want fbsweep/P11", r.Kind, r.Label)
	}
	if r.Meta.GitSHA != "abc1234" {
		t.Errorf("provenance lost: %+v", r.Meta)
	}
	if got := r.Metrics["sweep.atomic/fcfs.p99arb"]; got != 4100 {
		t.Errorf("sweep.atomic/fcfs.p99arb = %v, want 4100 (keys: %v)", got, ledger.Keys(recs))
	}
}

// TestTracedTablesMatchUntraced: tracing flags only add observers, so
// they must not change a report table. P11's arbitration columns and
// P1's -perf columns come from a perf sink; once a tracing flag gives
// the sweep a shared recorder, that recorder must carry one in place of
// the runs' private sinks.
func TestTracedTablesMatchUntraced(t *testing.T) {
	dir := t.TempDir()
	render := func(shared session.Flags) string {
		t.Helper()
		shared.Refs, shared.Seed, shared.Perf = 300, 1986, true
		s, err := startSession(&shared, "P11")
		if err != nil {
			t.Fatal(err)
		}
		opts := experimentOpts(&shared, s.Rec)
		p11, err := sim.ArbitrationDisciplines(opts)
		if err != nil {
			t.Fatal(err)
		}
		p1, err := sim.ProtocolComparison([]string{"moesi", "dragon"}, []int{2, 4}, opts)
		if err != nil {
			t.Fatal(err)
		}
		if code := s.End(io.Discard, "", nil, func() error { return nil }); code != 0 {
			t.Fatalf("session ended with exit %d", code)
		}
		return p11.Render() + p1.Render()
	}
	want := render(session.Flags{})
	for name, traced := range map[string]session.Flags{
		"watch":      {Watch: true},
		"hist":       {Hist: true},
		"trace-out":  {TraceOut: filepath.Join(dir, "sweep.json")},
		"record-out": {RecordOut: filepath.Join(dir, "sweep.fbt")},
	} {
		if got := render(traced); got != want {
			t.Errorf("-%s changed the report tables:\n%s\nwant:\n%s", name, got, want)
		}
	}
}
