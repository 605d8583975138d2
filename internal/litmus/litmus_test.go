package litmus

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

const sample = `
name: sample
boards: moesi, dragon
addr X = 0x10
addr Y = 0x20

proc P0:
  write X[0] 1
  read  Y[0] -> a
proc P1:
  write Y[0] 2
  read  X[0] -> b

schedules: 8
assert always if b == 1 then b != 2
assert sometimes b == 1
assert never final mem X[0] == 7
assert consistent
`

// TestParseSample: structure, register resolution, implication.
func TestParseSample(t *testing.T) {
	tst, err := ParseString(sample)
	if err != nil {
		t.Fatal(err)
	}
	if tst.Name != "sample" || len(tst.Boards) != 2 || len(tst.Programs) != 2 {
		t.Fatalf("parsed %+v", tst)
	}
	if tst.Addrs["X"] != 0x10 || tst.Addrs["Y"] != 0x20 {
		t.Errorf("addrs %v", tst.Addrs)
	}
	if got := tst.Programs[0].Ops[0].String(); got != "write X[0] 1" {
		t.Errorf("op renders %q", got)
	}
	if len(tst.Assertions) != 4 {
		t.Fatalf("assertions %d", len(tst.Assertions))
	}
	impl := tst.Assertions[0]
	if impl.Premise == nil || impl.Premise.Left.Reg != "P1.b" {
		t.Errorf("implication premise %+v", impl.Premise)
	}
	if tst.Assertions[1].Cond.Left.Reg != "P1.b" {
		t.Errorf("bare register not resolved: %+v", tst.Assertions[1].Cond.Left)
	}
	if !tst.Assertions[3].Consistent {
		t.Error("consistent assertion lost")
	}
}

// TestParseErrors: each malformed construct is rejected with a line
// number.
func TestParseErrors(t *testing.T) {
	cases := []string{
		"nonsense line\n",
		"boards: moesi\nproc P0:\n  write X[0] 1\n",                                             // undeclared line
		"boards: moesi\naddr X = 0x1\nproc P0:\n  write X 1\n",                                  // bad location
		"boards: moesi\naddr X = 0x1\nproc P0:\n  read X[0] -> a\nassert always q == 1\n",       // unknown register
		"boards: moesi\naddr X = 0x1\nproc P0:\n  frobnicate X\n",                               // unknown op
		"boards: moesi\naddr X = 0x1\nproc P0:\n  read X[0] -> a\nassert maybe a == 1\n",        // unknown quantifier
		"boards: moesi\naddr X = 0x1\nproc P0:\n  read X[0] -> a\nassert always a = 1\n",        // bad comparison
		"addr X = 0x1\nproc P0:\n  read X[0] -> a\nproc P1:\n  read X[0] -> b\nboards: moesi\n", // more programs than boards
		"boards: moesi.sx\naddr X = 0x1\nproc P0:\n  read X[0] -> a\n",                          // bad sector suffix
	}
	for i, src := range cases {
		if _, err := ParseString(src); err == nil {
			t.Errorf("case %d accepted:\n%s", i, src)
		}
	}
}

// TestAmbiguousRegister: two programs with the same bare register name
// must be qualified.
func TestAmbiguousRegister(t *testing.T) {
	src := `
boards: moesi, moesi
addr X = 0x1
proc P0:
  read X[0] -> a
proc P1:
  read X[0] -> a
assert always a == 0
`
	if _, err := ParseString(src); err == nil || !strings.Contains(err.Error(), "ambiguous") {
		t.Errorf("ambiguous register accepted: %v", err)
	}
	src = strings.Replace(src, "assert always a == 0", "assert always P0.a == P1.a", 1)
	if _, err := ParseString(src); err != nil {
		t.Errorf("qualified register rejected: %v", err)
	}
}

// TestRunSample: the sample passes, and the witness map is filled.
func TestRunSample(t *testing.T) {
	tst, err := ParseString(sample)
	if err != nil {
		t.Fatal(err)
	}
	res, err := Run(tst)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Ok() {
		t.Fatalf("sample failed:\n%s", res)
	}
	if res.Schedules != 10 {
		t.Errorf("schedules = %d", res.Schedules)
	}
}

// TestAssertionFailureModes: always/never/sometimes violations are each
// reported with usable messages.
func TestAssertionFailureModes(t *testing.T) {
	base := `
boards: moesi, moesi
addr X = 0x10
proc P0:
  write X[0] 1
proc P1:
  read X[0] -> r
schedules: 6
`
	cases := []struct {
		assert string
		want   string
	}{
		{"assert always r == 99", "does not hold"},
		{"assert never final mem X[0] == 1", "must never"},
		{"assert sometimes r == 42", "never held"},
	}
	for _, c := range cases {
		tst, err := ParseString(base + c.assert + "\n")
		if err != nil {
			t.Fatal(err)
		}
		res, err := Run(tst)
		if err != nil {
			t.Fatal(err)
		}
		if res.Ok() {
			t.Errorf("%q passed, should fail", c.assert)
			continue
		}
		if !strings.Contains(res.String(), c.want) {
			t.Errorf("%q failure message %q lacks %q", c.assert, res.String(), c.want)
		}
	}
}

// TestShippedLitmusFiles: every .litmus file in the repository passes.
func TestShippedLitmusFiles(t *testing.T) {
	files, err := filepath.Glob("../../litmus/*.litmus")
	if err != nil {
		t.Fatal(err)
	}
	if len(files) < 4 {
		t.Fatalf("expected shipped litmus files, found %v", files)
	}
	for _, path := range files {
		path := path
		t.Run(filepath.Base(path), func(t *testing.T) {
			f, err := os.Open(path)
			if err != nil {
				t.Fatal(err)
			}
			defer f.Close()
			tst, err := Parse(f)
			if err != nil {
				t.Fatal(err)
			}
			// Keep unit-test time bounded.
			if tst.Schedules > 24 {
				tst.Schedules = 24
			}
			res, err := Run(tst)
			if err != nil {
				t.Fatal(err)
			}
			if !res.Ok() {
				t.Fatalf("%s", res)
			}
		})
	}
}

// TestShippedLitmusFilesSharded: the shipped suite again, on a 2-shard
// interleaved backplane. Outcomes must match the single-bus runs —
// every assertion observes per-line order only, and the fabric
// serialises each line on its home shard.
func TestShippedLitmusFilesSharded(t *testing.T) {
	files, err := filepath.Glob("../../litmus/*.litmus")
	if err != nil || len(files) == 0 {
		t.Fatalf("glob: %v %v", files, err)
	}
	for _, path := range files {
		path := path
		t.Run(filepath.Base(path), func(t *testing.T) {
			f, err := os.Open(path)
			if err != nil {
				t.Fatal(err)
			}
			defer f.Close()
			tst, err := Parse(f)
			if err != nil {
				t.Fatal(err)
			}
			tst.Shards = 2
			// Same cap as the single-bus run: "sometimes" assertions
			// need the same schedule pool to be satisfiable.
			if tst.Schedules > 24 {
				tst.Schedules = 24
			}
			res, err := Run(tst)
			if err != nil {
				t.Fatal(err)
			}
			if !res.Ok() {
				t.Fatalf("%s", res)
			}
		})
	}
}

// TestFetchAddAtomicity: the canonical increment test inline, with
// sector boards mixed in.
func TestFetchAddAtomicity(t *testing.T) {
	src := `
name: inline fetchadd
boards: moesi.s4, illinois
addr C = 0x8
proc P0:
  fetchadd C[0] 1 -> a
proc P1:
  fetchadd C[0] 1 -> b
schedules: 12
assert always final mem C[0] == 2
assert never a == b
assert consistent
`
	tst, err := ParseString(src)
	if err != nil {
		t.Fatal(err)
	}
	res, err := Run(tst)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Ok() {
		t.Fatalf("%s", res)
	}
}

// TestRunParallel: the shipped tests also hold under real goroutine
// scheduling (run with -race); "sometimes" assertions are skipped by
// design.
func TestRunParallel(t *testing.T) {
	files, err := filepath.Glob("../../litmus/*.litmus")
	if err != nil || len(files) == 0 {
		t.Fatalf("glob: %v %v", files, err)
	}
	for _, path := range files {
		path := path
		t.Run(filepath.Base(path), func(t *testing.T) {
			f, err := os.Open(path)
			if err != nil {
				t.Fatal(err)
			}
			defer f.Close()
			tst, err := Parse(f)
			if err != nil {
				t.Fatal(err)
			}
			res, err := RunParallel(tst, 8)
			if err != nil {
				t.Fatal(err)
			}
			if !res.Ok() {
				t.Fatalf("%s", res)
			}
		})
	}
}

// TestRunParallelManyLoads: a program may load more registers than any
// fixed buffer holds; RunParallel collects them without blocking its
// programs.
func TestRunParallelManyLoads(t *testing.T) {
	var b strings.Builder
	b.WriteString("name: many loads\nboards: moesi, uncached\naddr X = 0x10\nproc P0:\n  write X[0] 7\nproc P1:\n")
	for i := 0; i < 100; i++ {
		fmt.Fprintf(&b, "  read X[0] -> r%d\n", i)
	}
	b.WriteString("assert always if r99 != 0 then r99 == 7\nassert consistent\n")
	tst, err := ParseString(b.String())
	if err != nil {
		t.Fatal(err)
	}
	res, err := RunParallel(tst, 2)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Ok() {
		t.Fatalf("%s", res)
	}
}
