package sim

import (
	"bytes"
	"reflect"
	"slices"
	"testing"

	"futurebus/internal/core"
	"futurebus/internal/obs"
	"futurebus/internal/obs/coherence"
	"futurebus/internal/workload"
)

func coherenceAnalyze(t *testing.T, raw []byte) *coherence.Analysis {
	t.Helper()
	var a coherence.Analyzer
	if _, _, err := obs.ReplayTrace(bytes.NewReader(raw), &a); err != nil {
		t.Fatal(err)
	}
	return a.Analyze(0)
}

func soleProto(t *testing.T, an *coherence.Analysis) *coherence.ProtoAnalysis {
	t.Helper()
	names := an.ProtocolNames()
	if len(names) != 1 {
		t.Fatalf("homogeneous run produced protocols %v, want exactly one", names)
	}
	return an.Protocols[names[0]]
}

// TestCoherenceMatricesDifferAcrossProtocols: recorded Berkeley and
// Write-Once runs of the same workload must reconstruct non-empty,
// different transition matrices — and differ exactly where the paper
// says the protocols differ: Berkeley never holds a line Exclusive
// (no private-clean state), Write-Once never holds one Owned (its
// dirty state is unshared).
func TestCoherenceMatricesDifferAcrossProtocols(t *testing.T) {
	gens := func(sys *System) []workload.Generator { return abGens(sys, 0.3, 0.3, 1986) }
	berkeley := soleProto(t, coherenceAnalyze(t, recordRun(t, "berkeley", 4, 2000, "det", gens)))
	writeOnce := soleProto(t, coherenceAnalyze(t, recordRun(t, "write-once", 4, 2000, "det", gens)))

	if berkeley.Transitions == 0 || writeOnce.Transitions == 0 {
		t.Fatalf("empty matrices: berkeley %d, write-once %d transitions",
			berkeley.Transitions, writeOnce.Transitions)
	}
	if berkeley.Matrix == writeOnce.Matrix {
		t.Error("berkeley and write-once produced identical transition matrices")
	}
	ei, oi := slices.Index(coherence.StateLetters[:], "E"), slices.Index(coherence.StateLetters[:], "O")
	var intoE, intoO int64
	for f := 0; f < coherence.NumStates; f++ {
		intoE += berkeley.Matrix[f][ei]
		intoO += writeOnce.Matrix[f][oi]
	}
	if intoE != 0 {
		t.Errorf("berkeley matrix records %d transitions into E; it has no exclusive-clean state", intoE)
	}
	if intoO != 0 {
		t.Errorf("write-once matrix records %d transitions into O; it has no shared-dirty state", intoO)
	}
}

// TestCoherenceMatrixMatchesStats: the event-stream matrix must agree
// exactly with the cache counters' Transitions table — every real
// state change emits exactly one KindState event, none invented, none
// lost through the codec.
func TestCoherenceMatrixMatchesStats(t *testing.T) {
	var buf bytes.Buffer
	rec := obs.New(obs.NewRecordSink(&buf, obs.TraceMeta{Fingerprint: "parity"}))
	cfg := Homogeneous("moesi", 4)
	cfg.Obs = rec
	sys, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	eng := Engine{Sys: sys, Gens: abGens(sys, 0.3, 0.3, 7)}
	m, err := eng.Run(2000)
	if err != nil {
		t.Fatal(err)
	}
	if err := rec.Close(); err != nil {
		t.Fatal(err)
	}
	ps := soleProto(t, coherenceAnalyze(t, buf.Bytes()))
	order := []core.State{core.Modified, core.Owned, core.Exclusive, core.Shared, core.Invalid}
	for fi, from := range order {
		for ti, to := range order {
			if got, want := ps.Matrix[fi][ti], m.Cache.Transitions[from][to]; got != want {
				t.Errorf("matrix[%s][%s] = %d from events, %d from counters",
					from.Letter(), to.Letter(), got, want)
			}
		}
	}
}

// TestCoherenceMatrixEngineDeterminism: with disjoint per-board
// working sets (PShared = 0) each board's program is deterministic
// regardless of interleaving, so the transition matrix — a multiset of
// transitions, already canonical under reordering — must be identical
// across the deterministic and concurrent engines at 1 and 4 fabric
// shards.
func TestCoherenceMatrixEngineDeterminism(t *testing.T) {
	private := func(sys *System) []workload.Generator {
		return sys.Generators(func(proc int) workload.Generator {
			return workload.MustModel(workload.Model{
				Proc: proc, SharedLines: 8, PrivateLines: 64,
				WordsPerLine: sys.WordsPerLine(),
				PShared:      0, PWrite: 0.4, Locality: 0.3,
			}, 1986)
		})
	}
	matrix := func(engine string, shards int) coherence.Matrix {
		var buf bytes.Buffer
		rec := obs.New(obs.NewRecordSink(&buf, obs.TraceMeta{Fingerprint: "det"}))
		cfg := Homogeneous("moesi", 4)
		cfg.Obs = rec
		cfg.Shards = shards
		sys, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		switch engine {
		case "det":
			eng := Engine{Sys: sys, Gens: private(sys)}
			_, err = eng.Run(1200)
		case "conc":
			_, err = RunConcurrent(sys, private(sys), 1200)
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
		return soleProto(t, coherenceAnalyze(t, buf.Bytes())).Matrix
	}
	base := matrix("det", 1)
	if base.Total() == 0 {
		t.Fatal("baseline run produced an empty transition matrix")
	}
	for _, tc := range []struct {
		engine string
		shards int
	}{{"det", 4}, {"conc", 1}, {"conc", 4}} {
		if got := matrix(tc.engine, tc.shards); got != base {
			t.Errorf("%s engine at %d shards diverged from det/1:\ngot  %v\nwant %v",
				tc.engine, tc.shards, got, base)
		}
	}
}

// TestCoherenceEpochsSettleEachSystem: a sweep runs many systems on one
// recorder, and the analyzer settles each at its KindEpoch marker — so
// the per-protocol aggregates of a MOESI-then-Dragon stream equal the
// two systems analyzed separately and merged. The runs differ in length
// so each system's residency closes at its own horizon. Without the epoch, the
// MOESI masters' read sources land under Dragon (whose boards reuse
// their proc ids), Dragon gains ownership moves from MOESI's stale
// owners, and MOESI's open residency runs on through Dragon's run.
func TestCoherenceEpochsSettleEachSystem(t *testing.T) {
	refs := map[string]int{"moesi": 2000, "dragon": 1200}
	run := func(rec *obs.Recorder, protocol string) {
		t.Helper()
		cfg := Homogeneous(protocol, 4)
		cfg.Obs = rec
		sys, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		gens := sys.Generators(func(proc int) workload.Generator {
			return workload.NewMigratory(proc, 4, 16, 24, sys.WordsPerLine(), 1986)
		})
		eng := Engine{Sys: sys, Gens: gens}
		if _, err := eng.Run(refs[protocol]); err != nil {
			t.Fatal(err)
		}
	}
	var shared coherence.Analyzer
	rec := obs.New(&shared)
	want := make(map[string]*coherence.ProtoAnalysis)
	for _, protocol := range []string{"moesi", "dragon"} {
		run(rec, protocol)
		var alone coherence.Analyzer
		own := obs.New(&alone)
		run(own, protocol)
		if err := own.Close(); err != nil {
			t.Fatal(err)
		}
		for name, pa := range alone.Analyze(-1).Protocols {
			want[name] = pa
		}
	}
	if err := rec.Close(); err != nil {
		t.Fatal(err)
	}
	got := shared.Analyze(-1).Protocols
	if len(got) != len(want) {
		t.Fatalf("two-system stream analyzed %d protocols, want %d", len(got), len(want))
	}
	for name, w := range want {
		g := got[name]
		if g == nil {
			t.Errorf("%s missing from the two-system analysis", name)
			continue
		}
		if !reflect.DeepEqual(g, w) {
			t.Errorf("%s: two-system stream differs from its own run:\n"+
				"  reads cache/memory %d/%d, want %d/%d\n"+
				"  ownership moves %d, want %d\n"+
				"  residency %v, want %v",
				name, g.CacheSourced, g.MemSourced, w.CacheSourced, w.MemSourced,
				g.OwnershipMoves, w.OwnershipMoves, g.ResidencyNS, w.ResidencyNS)
		}
	}
}
