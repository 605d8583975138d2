package sim

import (
	"bytes"
	"reflect"
	"strings"
	"testing"

	"futurebus/internal/obs"
	"futurebus/internal/obs/causal"
	"futurebus/internal/obs/ledger"
	"futurebus/internal/obs/obshttp"
	"futurebus/internal/workload"
)

// recordRun executes one engine run with a RecordSink (plus any extra
// sinks) attached and returns the raw .fbt bytes.
func recordRun(t *testing.T, protocol string, boards, refs int, engine string,
	gens func(sys *System) []workload.Generator, extra ...obs.Sink) []byte {
	t.Helper()
	var buf bytes.Buffer
	sinks := append([]obs.Sink{obs.NewRecordSink(&buf, obs.TraceMeta{Fingerprint: "test"})}, extra...)
	rec := obs.New(sinks...)
	cfg := Homogeneous(protocol, boards)
	cfg.Obs = rec
	sys, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	switch engine {
	case "det":
		eng := Engine{Sys: sys, Gens: gens(sys)}
		_, err = eng.Run(refs)
	case "conc":
		_, err = RunConcurrent(sys, gens(sys), refs)
	default:
		t.Fatalf("unknown engine %q", engine)
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
	return buf.Bytes()
}

func analyzeTrace(t *testing.T, raw []byte) *causal.Analysis {
	t.Helper()
	var a causal.Analyzer
	if _, _, err := obs.ReplayTrace(bytes.NewReader(raw), &a); err != nil {
		t.Fatal(err)
	}
	return a.Analyze()
}

// TestRecordReplayAttributionParity: replaying a recorded run through a
// fresh service must reproduce exactly the per-phase histograms the live
// service folded, and the causal per-phase totals the arbitration-wait
// vs transfer split comes from — the codec loses no
// attribution-relevant information.
func TestRecordReplayAttributionParity(t *testing.T) {
	live := obshttp.NewService(8)
	raw := recordRun(t, "moesi", 4, 2000, "det",
		func(sys *System) []workload.Generator { return abGens(sys, 0.3, 0.3, 1986) }, live.Sinks()...)

	replayed := obshttp.NewService(8)
	if _, _, err := obs.ReplayTrace(bytes.NewReader(raw), replayed.Sinks()...); err != nil {
		t.Fatal(err)
	}
	phases := func(svc *obshttp.Service) []string {
		var b strings.Builder
		if err := svc.Registry.WritePrometheus(&b); err != nil {
			t.Fatal(err)
		}
		var out []string
		for _, line := range strings.Split(b.String(), "\n") {
			if strings.HasPrefix(line, obshttp.MetricPhaseLatency) {
				out = append(out, line)
			}
		}
		return out
	}
	livePh, replayPh := phases(live), phases(replayed)
	if len(livePh) == 0 || !reflect.DeepEqual(livePh, replayPh) {
		t.Errorf("phase histograms diverged after replay:\nlive:   %q\nreplay: %q", livePh, replayPh)
	}
	if la, ra := live.Causal.Analyze().ByPhase, replayed.Causal.Analyze().ByPhase; !reflect.DeepEqual(la, ra) {
		t.Errorf("per-phase totals diverged: live %v, replay %v", la, ra)
	}
}

// TestCausalDiffSameSeedDeterministic: two recordings of the same
// seeded deterministic run are byte-identical and diff with zero
// regressions (the CI gate's contract).
func TestCausalDiffSameSeedDeterministic(t *testing.T) {
	gens := func(sys *System) []workload.Generator { return abGens(sys, 0.3, 0.3, 1986) }
	a := recordRun(t, "moesi", 4, 1500, "det", gens)
	b := recordRun(t, "moesi", 4, 1500, "det", gens)
	if !bytes.Equal(a, b) {
		t.Error("same-seed deterministic recordings are not byte-identical")
	}
	report := ledger.Diff(ledger.CausalRecord("", analyzeTrace(t, a)), ledger.CausalRecord("", analyzeTrace(t, b)), 0)
	if report.Regressions != 0 || report.Verdict != "ok" {
		t.Errorf("self-diff: verdict %q, %d regressions", report.Verdict, report.Regressions)
	}
}

// TestCausalBSRetryAttribution: a migratory workload on a BS-adapted
// protocol (write-once recovers via Busy aborts) must show bs-retry
// cost that a Berkeley-only run (no BS in its class) does not — the
// per-cause table discriminates the protocol mixes.
func TestCausalBSRetryAttribution(t *testing.T) {
	migratory := func(sys *System) []workload.Generator {
		return sys.Generators(func(proc int) workload.Generator {
			return workload.NewMigratory(proc, 4, 16, 24, sys.WordsPerLine(), 1986)
		})
	}
	berkeley := analyzeTrace(t, recordRun(t, "berkeley", 4, 1500, "det", migratory))
	writeOnce := analyzeTrace(t, recordRun(t, "write-once", 4, 1500, "det", migratory))

	bsIdx := -1
	for i, name := range causal.Causes {
		if name == causal.CauseBSRetry {
			bsIdx = i
		}
	}
	if berkeley.ByCause[bsIdx] != 0 {
		t.Errorf("berkeley run attributed %dns to bs-retry; its class never asserts BS", berkeley.ByCause[bsIdx])
	}
	if writeOnce.ByCause[bsIdx] == 0 {
		t.Error("write-once migratory run attributed nothing to bs-retry; BS recovery missing")
	}
	r := ledger.Diff(ledger.CausalRecord("", berkeley), ledger.CausalRecord("", writeOnce), 0)
	var found bool
	for _, row := range r.Rows {
		if row.Key == "causal.by_cause."+causal.CauseBSRetry+"_ns" && row.Value > row.Baseline.Median {
			found = true
		}
	}
	if !found {
		t.Error("diff shows no positive bs-retry delta between the protocol mixes")
	}
}

// TestCausalRecoveryLinkage: every recovery push in a write-once run
// must carry a causality edge to an existing aborted transaction, and
// the critical path must include a bs-retry edge when aborts dominate.
func TestCausalRecoveryLinkage(t *testing.T) {
	raw := recordRun(t, "write-once", 4, 1500, "det", func(sys *System) []workload.Generator {
		return sys.Generators(func(proc int) workload.Generator {
			return workload.NewMigratory(proc, 4, 16, 24, sys.WordsPerLine(), 1986)
		})
	})
	var events []obs.Event
	collect := obs.SinkFunc(func(e *obs.Event) { events = append(events, *e) })
	if _, _, err := obs.ReplayTrace(bytes.NewReader(raw), collect); err != nil {
		t.Fatal(err)
	}
	txids := make(map[uint64]bool)
	for i := range events {
		if events[i].Kind == obs.KindTx {
			txids[events[i].TxID] = true
		}
	}
	var pushes, aborts int
	for i := range events {
		switch events[i].Kind {
		case obs.KindAbort:
			aborts++
			if events[i].TxID == 0 {
				t.Error("abort event without TxID")
			}
		case obs.KindTx:
			if cause := events[i].CauseID; cause != 0 {
				pushes++
				if !txids[cause] {
					t.Errorf("recovery push %d references unknown transaction %d", events[i].TxID, cause)
				}
			}
		}
	}
	if aborts == 0 || pushes == 0 {
		t.Fatalf("write-once migratory run produced %d aborts, %d recovery pushes; want both > 0", aborts, pushes)
	}
}

// TestCausalConcurrentCanonicalDeterminism: two same-seed concurrent
// runs interleave differently, but with disjoint per-board working sets
// (PShared = 0) each board's program is deterministic — after
// Canonicalize the two recordings must produce identical critical
// paths. This is the replay-determinism contract for the concurrent
// engine.
func TestCausalConcurrentCanonicalDeterminism(t *testing.T) {
	private := func(sys *System) []workload.Generator {
		return sys.Generators(func(proc int) workload.Generator {
			return workload.MustModel(workload.Model{
				Proc: proc, SharedLines: 8, PrivateLines: 64,
				WordsPerLine: sys.WordsPerLine(),
				PShared:      0, PWrite: 0.4, Locality: 0.3,
			}, 1986)
		})
	}
	canonicalPath := func(raw []byte) []causal.Segment {
		var events []obs.Event
		collect := obs.SinkFunc(func(e *obs.Event) { events = append(events, *e) })
		if _, _, err := obs.ReplayTrace(bytes.NewReader(raw), collect); err != nil {
			t.Fatal(err)
		}
		return causal.AnalyzeEvents(causal.Canonicalize(events)).Path
	}
	a := canonicalPath(recordRun(t, "moesi", 4, 1200, "conc", private))
	b := canonicalPath(recordRun(t, "moesi", 4, 1200, "conc", private))
	if len(a) == 0 {
		t.Fatal("empty canonical critical path")
	}
	if len(a) != len(b) {
		t.Fatalf("canonical critical paths differ in length: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("canonical critical paths diverge at segment %d:\nA: %+v\nB: %+v", i, a[i], b[i])
		}
	}
}

// TestDetEngineEmitsBlocked: the deterministic engine reports its
// timeline-level bus waits as KindBlocked events with a blocking
// transaction, mirroring the concurrent engine's arbitration waits.
func TestDetEngineEmitsBlocked(t *testing.T) {
	raw := recordRun(t, "moesi", 4, 1500, "det",
		func(sys *System) []workload.Generator { return abGens(sys, 0.5, 0.4, 7) })
	var blocked, withCause int
	collect := obs.SinkFunc(func(e *obs.Event) {
		if e.Kind == obs.KindBlocked {
			blocked++
			if e.CauseID != 0 {
				withCause++
			}
			if e.Dur <= 0 {
				t.Error("KindBlocked event with non-positive Dur")
			}
		}
	})
	if _, _, err := obs.ReplayTrace(bytes.NewReader(raw), collect); err != nil {
		t.Fatal(err)
	}
	if blocked == 0 {
		t.Fatal("contended deterministic run emitted no KindBlocked events")
	}
	if withCause == 0 {
		t.Error("no KindBlocked event names a blocking transaction")
	}
}
