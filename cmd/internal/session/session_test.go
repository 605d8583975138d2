package session

import (
	"errors"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"futurebus/internal/obs"
	"futurebus/internal/obs/perf"
)

// TestPerfSinkRule pins which sessions carry a saturation sink: -perf
// asks for one; a tool whose runs collect telemetry on private
// recorders gets one exactly when a shared recorder replaces theirs;
// a served run's service carries its own. Tracing alone gives fbsim no
// perf sink, so its -metrics-json stays free of saturation telemetry.
func TestPerfSinkRule(t *testing.T) {
	cases := []struct {
		name      string
		flags     Flags
		perRun    bool
		rec, perf bool
	}{
		{"untraced", Flags{}, false, false, false},
		{"perf", Flags{Perf: true}, false, true, true},
		{"watch", Flags{Watch: true}, false, true, false},
		{"serve", Flags{Serve: "127.0.0.1:0"}, false, true, true},
		{"per-run perf, untraced", Flags{Perf: true}, true, false, false},
		{"per-run perf, watch", Flags{Watch: true}, true, true, true},
		{"per-run perf, hist", Flags{Hist: true}, true, true, true},
	}
	for _, tc := range cases {
		tc.flags.Refs = 20000
		s, err := Start(&tc.flags, Options{Tool: "test", PerRunPerf: tc.perRun}, io.Discard)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if rec := s.Rec != nil; rec != tc.rec {
			t.Errorf("%s: recorder built = %v, want %v", tc.name, rec, tc.rec)
		}
		if got := perf.FindSink(s.Rec) != nil; got != tc.perf {
			t.Errorf("%s: perf sink attached = %v, want %v", tc.name, got, tc.perf)
		}
		if err := s.close(); err != nil {
			t.Errorf("%s: close: %v", tc.name, err)
		}
	}
}

// TestLedgerRequiresServe: the /trend verdict needs the live endpoint.
func TestLedgerRequiresServe(t *testing.T) {
	if _, err := Start(&Flags{Refs: 20000}, Options{Tool: "test", Ledger: "ledger.jsonl"}, io.Discard); err == nil {
		t.Fatal("-ledger without -serve started a session")
	}
}

// TestStartRejectsBadFlags: a shared flag value no run can use is an
// error naming the flag, not a run of nothing or of the default.
func TestStartRejectsBadFlags(t *testing.T) {
	for _, tc := range []struct {
		flag  string
		flags Flags
	}{
		{"-refs", Flags{Refs: 0}},
		{"-refs", Flags{Refs: -1}},
		{"-pending-table", Flags{Refs: 20000, PendingTable: -3}},
		{"-bus", Flags{Refs: 20000, Bus: "bogus"}},
		{"-discipline", Flags{Refs: 20000, Discipline: "nope"}},
	} {
		s, err := Start(&tc.flags, Options{Tool: "test"}, io.Discard)
		if err == nil {
			s.close()
			t.Errorf("%+v started a session", tc.flags)
		} else if !strings.HasPrefix(err.Error(), tc.flag+" ") {
			t.Errorf("%+v: error %q does not name %s", tc.flags, err, tc.flag)
		}
	}
}

// TestEndIsTheOneEnd: End closes the session whether the run failed or
// not. A failed run's -record-out trace is whole, its -watch verdict
// printed and its error reported, without the report that reads the
// sinks, and it exits 1; a clean run prints its report and exits 0.
func TestEndIsTheOneEnd(t *testing.T) {
	for _, runErr := range []error{errors.New("run failed"), nil} {
		path := filepath.Join(t.TempDir(), "run.fbt")
		var out, stderr strings.Builder
		s, err := Start(&Flags{Refs: 20000, Watch: true, RecordOut: path}, Options{Tool: "test"}, &stderr)
		if err != nil {
			t.Fatal(err)
		}
		s.Rec.Emit(&obs.Event{Kind: obs.KindTx, Addr: 0x40, Op: obs.OpRead, TxID: 1})
		reported := false
		code := s.End(&out, "", runErr, func() error { reported = true; return nil })
		want := 0
		if runErr != nil {
			want = 1
			if !strings.Contains(stderr.String(), "test: run failed") {
				t.Errorf("stderr %q lacks the run's error", stderr.String())
			}
		}
		if code != want || reported != (runErr == nil) {
			t.Errorf("run error %v: exit %d, report ran %v; want %d and %v", runErr, code, reported, want, runErr == nil)
		}
		if !strings.HasPrefix(out.String(), "invariants: clean") {
			t.Errorf("run error %v: verdict %q", runErr, out.String())
		}
		f, err := os.Open(path)
		if err != nil {
			t.Fatal(err)
		}
		_, n, err := obs.ReplayTrace(f)
		f.Close()
		if err != nil || n != 1 {
			t.Errorf("run error %v: the trace replays %d events (%v), want the one emitted", runErr, n, err)
		}
	}
}
