package main

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"futurebus/cmd/internal/cli"
)

// fbpaper runs one command line in-process.
func fbpaper(args ...string) (stdout, stderr string, code int) {
	var out, errw bytes.Buffer
	code = run(args, &out, &errw)
	return out.String(), errw.String(), code
}

// shipped returns the litmus suite's files.
func shipped(t *testing.T) []string {
	t.Helper()
	files, err := filepath.Glob("../../litmus/*.litmus")
	if err != nil || len(files) == 0 {
		t.Fatalf("no shipped litmus files: %v", err)
	}
	return files
}

// writeLitmus writes a litmus test into a temporary file.
func writeLitmus(t *testing.T, src string) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "t.litmus")
	if err := os.WriteFile(path, []byte(src), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

// TestCleanPaths: each subcommand's clean path exits 0 with its
// artifact — T1–T7 each match the paper, both §4 hazards are found, the
// live trace holds -txns transactions and the shipped litmus suite
// passes.
func TestCleanPaths(t *testing.T) {
	out, _, code := fbpaper("tables")
	if code != cli.OK {
		t.Errorf("tables: exit %d", code)
	}
	for i := 1; i <= 7; i++ {
		head := fmt.Sprintf("== T%d: ", i)
		_, section, ok := strings.Cut(out, head)
		if !ok {
			t.Fatalf("tables: no %q section", head)
		}
		section, _, _ = strings.Cut(section, "\n== ")
		if !strings.HasSuffix(section, "\nmatches the paper cell for cell.\n") {
			t.Errorf("tables: T%d does not match the paper:\n%s", i, section)
		}
	}
	if !strings.Contains(out, "== class membership (§4) ==") || strings.Contains(out, "VIOLATION") {
		t.Errorf("tables: want every protocol's class-membership verdict and no violation")
	}

	out, _, code = fbpaper("verify", "-boards", "2")
	if code != cli.OK || strings.Count(out, "hazard confirmed") != 2 ||
		!strings.Contains(out, "== the full class, 2 copy-back boards ==") {
		t.Errorf("verify -boards 2: exit %d, want 0 with both hazards confirmed:\n%s", code, out)
	}

	out, _, code = fbpaper("figures", "-txns", "3")
	_, live, _ := strings.Cut(out, "Live transaction trace")
	if code != cli.OK || !strings.Contains(out, "Figures 1-2") || strings.Count(live, " -> col ") != 3 {
		t.Errorf("figures -txns 3: exit %d, want 0 with the handshake and three transaction lines:\n%s", code, out)
	}

	files := shipped(t)
	out, _, code = fbpaper(append([]string{"litmus"}, files...)...)
	if code != cli.OK || strings.Count(out, ": PASS (") != len(files) {
		t.Errorf("litmus: exit %d, want 0 with %d passes:\n%s", code, len(files), out)
	}
}

// TestVerifyGolden pins verify's whole stdout at 2, 3 and 4 boards: the
// state and transition counts of every exploration and the two hazard
// witnesses, message for message. Regenerate a golden with `go run
// ./cmd/fbpaper verify -boards N > cmd/fbpaper/testdata/verify-boardsN.txt`
// only for a deliberate change to the model or its messages.
func TestVerifyGolden(t *testing.T) {
	for _, n := range []string{"2", "3", "4"} {
		want, err := os.ReadFile(filepath.Join("testdata", "verify-boards"+n+".txt"))
		if err != nil {
			t.Fatal(err)
		}
		out, _, code := fbpaper("verify", "-boards", n)
		if code != cli.OK || out != string(want) {
			t.Errorf("verify -boards %s: exit %d, stdout moved from its golden:\ngot:\n%s\nwant:\n%s", n, code, out, want)
		}
	}
}

// TestFailedCheckExits1: a litmus test whose `always` assertion is false
// is a failed check, not an input error.
func TestFailedCheckExits1(t *testing.T) {
	path := writeLitmus(t, `name: a read can miss the other board's write
boards: moesi, moesi
addr X = 0x10
proc P0:
  write X[0] 1
proc P1:
  read X[0] -> a
schedules: 8
assert always a == 1
`)
	out, _, code := fbpaper("litmus", path)
	if code != cli.Failed || !strings.Contains(out, "FAIL") {
		t.Errorf("false always: exit %d, want %d with a FAIL verdict:\n%s", code, cli.Failed, out)
	}
}

// TestInputErrorsExit2: every bad flag value, unreadable or malformed
// file and malformed command line exits 2 without panicking, and a bad
// value is reported in one line with no output on stdout.
func TestInputErrorsExit2(t *testing.T) {
	malformed := writeLitmus(t, "name: broken\nboards: moesi\nassert sometimes\n")
	values := [][]string{
		{"verify", "-boards", "0"},
		{"verify", "-boards", "5"},
		{"figures", "-slaves", "0"},
		{"figures", "-slaves", "-1"},
		{"figures", "-filter", "-1"},
		{"figures", "-txns", "-1"},
		{"tables", "-table", "T9"},
		{"tables", "-dot", "no-such-protocol"},
		{"litmus", "/nonexistent.litmus"},
		{"litmus", malformed},
		{"litmus", "-bus", "pipelined", shipped(t)[0]},
		{"litmus", "-discipline", "lottery", shipped(t)[0]},
		{"litmus", "-shards", "-1", shipped(t)[0]},
		{"litmus", "-parallel", "-1", shipped(t)[0]},
		// A system sim.New rejects: 64 sets cannot interleave over 3
		// shards.
		{"litmus", "-shards", "3", filepath.Join("..", "..", "litmus", "coherence.litmus")},
	}
	for _, args := range values {
		out, errs, code := fbpaper(args...)
		if code != cli.Error || out != "" || strings.Count(errs, "\n") != 1 || strings.Contains(errs, "panic") {
			t.Errorf("fbpaper %s: exit %d, stdout %q, stderr %q; want exit 2, no stdout and a one-line message",
				strings.Join(args, " "), code, out, errs)
		}
	}
	for _, args := range [][]string{
		{},
		{"tabels"},
		{"tables", "T3"},
		{"verify", "-boards", "many"},
		{"figures", "-no-such-flag"},
		{"litmus"},
	} {
		if _, _, code := fbpaper(args...); code != cli.Error {
			t.Errorf("fbpaper %s: exit %d, want %d", strings.Join(args, " "), code, cli.Error)
		}
	}
}

// TestHelpExits0: every top-level spelling of help prints the usage on
// stderr and exits 0, with nothing on stdout.
func TestHelpExits0(t *testing.T) {
	for _, arg := range []string{"-h", "-help", "--help", "help"} {
		out, errs, code := fbpaper(arg)
		if code != cli.OK || out != "" || !strings.Contains(errs, "fbpaper") {
			t.Errorf("fbpaper %s: exit %d, stdout %q, stderr %q; want exit 0 and the usage on stderr", arg, code, out, errs)
		}
	}
}

// TestLitmusWitnessesDeterministic: -v prints each test's witnesses in
// its assertion order, so two runs print the same bytes.
func TestLitmusWitnessesDeterministic(t *testing.T) {
	args := append([]string{"litmus", "-v"}, shipped(t)...)
	first, _, code := fbpaper(args...)
	if code != cli.OK || !strings.Contains(first, "  witness: ") {
		t.Fatalf("litmus -v: exit %d, want 0 with witnesses:\n%s", code, first)
	}
	for i := 0; i < 3; i++ {
		if again, _, _ := fbpaper(args...); again != first {
			t.Fatalf("litmus -v printed different output on a rerun:\n%s\n---\n%s", first, again)
		}
	}
}
