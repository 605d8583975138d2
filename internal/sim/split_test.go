package sim

import (
	"fmt"
	"testing"

	"futurebus/internal/obs"
	"futurebus/internal/obs/watch"
)

// splitConfig is the standard split-mode test system: 4 moesi boards
// on a split-transaction fabric with round-robin arbitration.
func splitConfig(shards int) Config {
	cfg := Homogeneous("moesi", 4)
	cfg.Shadow = true
	cfg.Paranoid = true
	cfg.Shards = shards
	cfg.Tenure = "split"
	cfg.Discipline = "rr"
	return cfg
}

// TestSplitModeConsistent: split-transaction tenures preserve the full
// §3.1 invariant suite on both engines at 1, 2 and 4 shards, with the
// runtime invariant monitor watching the event stream (including the
// split pending-transaction legality invariant) and staying clean.
func TestSplitModeConsistent(t *testing.T) {
	for _, engine := range []string{"det", "conc"} {
		for _, shards := range []int{1, 2, 4} {
			t.Run(fmt.Sprintf("%s/shards%d", engine, shards), func(t *testing.T) {
				mon := watch.New(watch.Config{})
				rec := obs.New(mon)
				cfg := splitConfig(shards)
				cfg.Obs = rec
				sys, err := New(cfg)
				if err != nil {
					t.Fatal(err)
				}
				if !sys.split {
					t.Fatal("system not in split mode")
				}
				gens := abGens(sys, 0.5, 0.4, 31)
				var m Metrics
				switch engine {
				case "det":
					eng := Engine{Sys: sys, Gens: gens}
					m, err = eng.Run(2000)
				case "conc":
					m, err = RunConcurrent(sys, gens, 2000)
				}
				if err != nil {
					t.Fatal(err)
				}
				if err := sys.Check(); err != nil {
					t.Fatal(err)
				}
				if err := rec.Close(); err != nil {
					t.Fatal(err)
				}
				if rep := mon.Report(); rep.Total != 0 {
					t.Fatalf("invariant monitor flagged a clean split-mode run: %s", rep.Summary())
				}
				if m.Bus.DataTenures == 0 {
					t.Fatal("split-mode run retired no data tenures")
				}
				if want := int64(len(sys.Boards)) * 2000; m.Refs != want {
					t.Fatalf("executed %d refs, want %d", m.Refs, want)
				}
			})
		}
	}
}

// TestSplitModeDeterministic: the deterministic engine stays bit-exact
// across same-seed runs in split mode — the pending table and the
// discipline-ranked deferral queue introduce no ordering ambiguity.
func TestSplitModeDeterministic(t *testing.T) {
	run := func() Metrics {
		sys, err := New(splitConfig(2))
		if err != nil {
			t.Fatal(err)
		}
		eng := Engine{Sys: sys, Gens: abGens(sys, 0.4, 0.3, 23)}
		m, err := eng.Run(2000)
		if err != nil {
			t.Fatal(err)
		}
		return m
	}
	a, b := run(), run()
	if a.Bus != b.Bus || a.Cache != b.Cache || a.ElapsedNanos != b.ElapsedNanos {
		t.Fatalf("same-seed split runs diverged:\n%+v\n%+v", a, b)
	}
}

// TestSplitModeOverlapsTenures: with memory service off-bus, the
// deterministic engine's virtual clocks overlap address tenures with
// pending memory reads — the same workload finishes in less simulated
// time than atomic mode while moving the same data.
func TestSplitModeOverlapsTenures(t *testing.T) {
	run := func(tenure string) Metrics {
		cfg := Homogeneous("moesi", 4)
		cfg.Shadow = true
		cfg.Tenure = tenure
		sys, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		// Low sharing: mostly misses to private lines, the split
		// pipeline's best case.
		eng := Engine{Sys: sys, Gens: abGens(sys, 0.1, 0.3, 17)}
		m, err := eng.Run(2000)
		if err != nil {
			t.Fatal(err)
		}
		if err := sys.Check(); err != nil {
			t.Fatal(err)
		}
		return m
	}
	atomic, split := run("atomic"), run("split")
	if split.ElapsedNanos >= atomic.ElapsedNanos {
		t.Fatalf("split mode did not pipeline: elapsed %d ns (split) vs %d ns (atomic)",
			split.ElapsedNanos, atomic.ElapsedNanos)
	}
	// The interleaving (and so the exact hit/miss pattern) shifts with
	// the timing model, but the traffic volume must stay essentially
	// the same workload.
	diff := split.Bus.BytesTransferred - atomic.Bus.BytesTransferred
	if diff < 0 {
		diff = -diff
	}
	if diff*20 > atomic.Bus.BytesTransferred {
		t.Fatalf("split mode moved %d bytes, atomic %d — more than 5%% apart",
			split.Bus.BytesTransferred, atomic.Bus.BytesTransferred)
	}
}

// TestSplitModeNacksUnderTinyTable: a pending table of 1 under a
// miss-heavy multi-board load must overflow, and every overflow is a
// NACK that charges a retry cycle yet still completes the transaction.
func TestSplitModeNacksUnderTinyTable(t *testing.T) {
	cfg := Homogeneous("moesi", 4)
	cfg.Shadow = true
	cfg.Tenure = "split"
	cfg.PendingTable = 1
	sys, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	eng := Engine{Sys: sys, Gens: abGens(sys, 0.1, 0.3, 41)}
	m, err := eng.Run(1500)
	if err != nil {
		t.Fatal(err)
	}
	if err := sys.Check(); err != nil {
		t.Fatal(err)
	}
	if m.Bus.Nacks == 0 {
		t.Fatal("a 1-entry pending table under 4-board miss traffic produced no NACKs")
	}
}

// TestSplitRejectsBadConfig: unknown tenure and discipline names fail
// assembly rather than silently running atomic/FCFS.
func TestSplitRejectsBadConfig(t *testing.T) {
	cfg := Homogeneous("moesi", 2)
	cfg.Tenure = "pipelined"
	if _, err := New(cfg); err == nil {
		t.Fatal("unknown tenure mode accepted")
	}
	cfg = Homogeneous("moesi", 2)
	cfg.Discipline = "lottery"
	if _, err := New(cfg); err == nil {
		t.Fatal("unknown discipline accepted")
	}
}
