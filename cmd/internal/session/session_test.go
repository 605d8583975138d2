package session

import (
	"testing"

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
		s, err := Start(&tc.flags, Options{Tool: "test", PerRunPerf: tc.perRun})
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if rec := s.Rec != nil; rec != tc.rec {
			t.Errorf("%s: recorder built = %v, want %v", tc.name, rec, tc.rec)
		}
		if got := perf.FindSink(s.Rec) != nil; got != tc.perf {
			t.Errorf("%s: perf sink attached = %v, want %v", tc.name, got, tc.perf)
		}
		if err := s.Close(); err != nil {
			t.Errorf("%s: close: %v", tc.name, err)
		}
	}
}

// TestLedgerRequiresServe: the /trend verdict needs the live endpoint.
func TestLedgerRequiresServe(t *testing.T) {
	if _, err := Start(&Flags{}, Options{Tool: "test", Ledger: "ledger.jsonl"}); err == nil {
		t.Fatal("-ledger without -serve started a session")
	}
}
