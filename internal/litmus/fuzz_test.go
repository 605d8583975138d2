package litmus

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// FuzzParse mutates the shipped litmus tests. Parse must never panic,
// and a test it accepts must build its system, on one bus and on a
// 4-shard fabric, without panicking: a bad line size, sector or layout
// is an error. testdata/fuzz/FuzzParse holds inputs that once crashed
// the build or were wrongly accepted; go test replays them.
func FuzzParse(f *testing.F) {
	files, err := filepath.Glob("../../litmus/*.litmus")
	if err != nil || len(files) == 0 {
		f.Fatalf("no shipped litmus tests: %v", err)
	}
	for _, path := range files {
		src, err := os.ReadFile(path)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(string(src))
	}
	f.Fuzz(func(t *testing.T, src string) {
		tst, err := ParseString(src)
		if err != nil {
			return
		}
		for _, shards := range []int{0, 4} {
			tst.Shards = shards
			if _, _, rec, err := tst.system(true); err == nil && rec != nil {
				rec.Close()
			}
		}
	})
}

// TestParseRejectsBadGeometry: a line size the simulator cannot build
// and a negative schedule count are parse errors naming their line,
// where they used to panic in the build, exhaust memory, or report
// "PASS (-3 schedules)".
func TestParseRejectsBadGeometry(t *testing.T) {
	const body = "boards: moesi\naddr X = 0x1\nproc P0:\n  read X[0] -> a\n"
	for _, tc := range []struct{ directive, want string }{
		{"linesize: -32", "line size -32"},
		{"linesize: 0", "line size 0"},
		{"linesize: 6", "line size 6"},
		{"linesize: 4096000000", "line size 4096000000"},
		{"schedules: -5", "schedules: -5 is negative"},
	} {
		_, err := ParseString(body + tc.directive + "\n")
		if err == nil || !strings.Contains(err.Error(), "litmus line 5: ") || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%q: error %v, want line 5 and %q", tc.directive, err, tc.want)
		}
	}
	for _, ok := range []string{"linesize: 4", "linesize: 64", "schedules: 0"} {
		if _, err := ParseString(body + ok + "\n"); err != nil {
			t.Errorf("%q rejected: %v", ok, err)
		}
	}
}
