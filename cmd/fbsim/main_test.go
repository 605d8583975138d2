package main

import (
	"os"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"testing"

	"futurebus/internal/obs"
	"futurebus/internal/obs/watch"
)

// fbsim runs the command in-process and returns its stdout, stderr and
// exit status.
func fbsim(args ...string) (stdout, stderr string, code int) {
	var out, errb strings.Builder
	code = run(args, &out, &errb)
	return out.String(), errb.String(), code
}

// dropInv is CI's faulty mix: board 0 keeps its copy after another
// board takes ownership.
const dropInv = "moesi-invalidate+drop-inv,moesi-invalidate,moesi-invalidate,moesi-invalidate"

// replayTotal replays a recorded trace through a fresh invariant
// monitor and returns its violation total; a trace that does not decode
// fails t.
func replayTotal(t *testing.T, path string) int64 {
	t.Helper()
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	mon := watch.New(watch.Config{})
	if _, _, err := obs.ReplayTrace(f, mon); err != nil {
		t.Fatalf("%s does not decode: %v", path, err)
	}
	return mon.Report().Total
}

// TestDefaultGolden pins fbsim's whole stdout with default flags.
// Regenerate it with `go run ./cmd/fbsim > cmd/fbsim/testdata/default.txt`
// only for a deliberate change to the model or its report.
func TestDefaultGolden(t *testing.T) {
	want, err := os.ReadFile(filepath.Join("testdata", "default.txt"))
	if err != nil {
		t.Fatal(err)
	}
	out, errOut, code := fbsim()
	if code != 0 || out != string(want) {
		t.Errorf("exit %d (stderr %q), stdout moved from its golden:\ngot:\n%s\nwant:\n%s", code, errOut, out, want)
	}
}

var violationsLine = regexp.MustCompile(`(?m)^invariants: VIOLATIONS: (\d+) across`)

// TestFailedCheckKeepsTraceAndVerdict: a checked run of a faulty board
// fails the check and exits 1, yet its -record-out trace is whole and
// its -watch verdict printed, on both engines: replaying the trace
// through the monitor gives the total the run printed.
func TestFailedCheckKeepsTraceAndVerdict(t *testing.T) {
	for _, engine := range []string{"det", "conc"} {
		path := filepath.Join(t.TempDir(), "faulty.fbt")
		out, errOut, code := fbsim("-engine", engine, "-refs", "2000", "-seed", "7", "-watch",
			"-record-out", path, "-protocols", dropInv)
		if code != 1 {
			t.Errorf("%s: exit %d, want 1", engine, code)
		}
		// The concurrent engine may also end the run on a bus error
		// before the check; the deterministic run reaches the checker.
		if engine == "det" && !strings.Contains(errOut, "consistency check failed") {
			t.Errorf("%s: stderr lacks the checker's failure:\n%s", engine, errOut)
		}
		m := violationsLine.FindStringSubmatch(out)
		if m == nil {
			t.Fatalf("%s: stdout lacks the violation verdict:\n%s", engine, out)
		}
		printed, _ := strconv.ParseInt(m[1], 10, 64)
		if got := replayTotal(t, path); got != printed {
			t.Errorf("%s: the trace replays to %d violations; the run printed %d", engine, got, printed)
		}
	}
}

// TestRunErrorKeepsTrace: a run a fault ends early with a bus error
// still leaves a non-empty trace that decodes.
func TestRunErrorKeepsTrace(t *testing.T) {
	path := filepath.Join(t.TempDir(), "so.fbt")
	_, errOut, code := fbsim("-refs", "3000", "-seed", "7", "-check=false", "-watch", "-record-out", path,
		"-protocols", "moesi-invalidate+stale-owner,moesi-invalidate,moesi-invalidate,moesi-invalidate")
	if code != 1 || !strings.Contains(errOut, "duplicate owners") {
		t.Errorf("exit %d, stderr %q; want 1 and the bus error", code, errOut)
	}
	if fi, err := os.Stat(path); err != nil || fi.Size() == 0 {
		t.Fatalf("trace %s: %v, want a non-empty file", path, err)
	}
	if replayTotal(t, path) == 0 {
		t.Error("the trace holds none of the violations that led up to the error")
	}
}

// TestUncheckedConcurrentRunRunsNoChecker: -check=false turns the
// checker off on the concurrent engine too, so a faulty run fails on the
// -watch verdict alone.
func TestUncheckedConcurrentRunRunsNoChecker(t *testing.T) {
	out, errOut, code := fbsim("-engine", "conc", "-check=false", "-refs", "2000", "-seed", "7", "-watch",
		"-protocols", dropInv)
	if strings.Contains(errOut, "consistency") || strings.Contains(out, "consistency") {
		t.Errorf("-check=false printed a checker message:\nstdout:\n%s\nstderr:\n%s", out, errOut)
	}
	if code != 1 || !strings.Contains(out, "invariants: VIOLATIONS") {
		t.Errorf("exit %d, stdout:\n%s\nwant 1 and the monitor's violations", code, out)
	}
}
