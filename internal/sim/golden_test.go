package sim

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"os"
	"path/filepath"
	"testing"

	"futurebus/internal/bus"
	"futurebus/internal/cache"
	"futurebus/internal/memory"
	"futurebus/internal/obs"
	"futurebus/internal/obs/causal"
	"futurebus/internal/obs/coherence"
	"futurebus/internal/obs/perf"
	"futurebus/internal/obs/watch"
	"futurebus/internal/workload"
)

// goldenStats is the simulated outcome of one deterministic run: every
// counter the substrates keep plus each board's cumulative Stall. A
// host-side change (allocation, locking, copying) must leave all of it
// bit-identical.
type goldenStats struct {
	System       string
	Refs         int64
	ElapsedNanos int64
	Bus          bus.Stats
	Memory       memory.Stats
	Cache        cache.Stats
	Stalls       []int64
}

// goldenCase is one fixed-seed deterministic-engine configuration.
type goldenCase struct {
	name string
	cfg  Config
	gens func(sys *System) []workload.Generator
	refs int
}

// abShape is the Archibald–Baer hit-bound shape: 32 shared and 80
// private lines per board, pWrite 0.3, locality 0.5.
func abShape(pShared float64, seed uint64) func(sys *System) []workload.Generator {
	return func(sys *System) []workload.Generator {
		return sys.Generators(func(proc int) workload.Generator {
			return workload.MustModel(workload.Model{
				Proc: proc, SharedLines: 32, PrivateLines: 80,
				WordsPerLine: sys.WordsPerLine(),
				PShared:      pShared, PWrite: 0.3, Locality: 0.5,
			}, seed)
		})
	}
}

func goldenCases() []goldenCase {
	zipf := func(sys *System) []workload.Generator {
		return sys.Generators(func(proc int) workload.Generator {
			return workload.NewZipf(proc, 2048, sys.WordsPerLine(), 0.8, 0.4, 1986)
		})
	}
	return []goldenCase{
		{name: "ab-hits", cfg: Homogeneous("moesi", 8), gens: abShape(0.2, 1986), refs: 3000},
		{name: "zipf-mix", cfg: Config{
			Boards: []BoardSpec{
				{Protocol: "moesi"}, {Protocol: "moesi-invalidate"}, {Protocol: "moesi-update"},
				{Protocol: "berkeley"}, {Protocol: "dragon"}, {Protocol: "illinois"},
				{Protocol: "write-through"}, {Protocol: "moesi"},
			},
			Shards: 2, Tenure: "split", Discipline: "rr",
		}, gens: zipf, refs: 1500},
		{name: "random", cfg: Homogeneous("random", 4), gens: abShape(0.4, 7), refs: 2000},
		{name: "adaptive", cfg: Homogeneous("moesi-adaptive", 4), gens: abShape(0.4, 11), refs: 2000},
		{name: "sector", cfg: Config{Boards: []BoardSpec{
			{Protocol: "moesi", SectorSubs: 4}, {Protocol: "dragon", SectorSubs: 4},
			{Protocol: "moesi"}, {Protocol: "berkeley"},
		}}, gens: abShape(0.3, 13), refs: 2000},
		// 8 sets × 2 ways of 4-line sectors against 112 lines per
		// board: sector misses evict whole sectors, dirty lines and all.
		{name: "sector-evict", cfg: Config{
			Boards: []BoardSpec{
				{Protocol: "moesi", SectorSubs: 4}, {Protocol: "dragon", SectorSubs: 4},
				{Protocol: "illinois", SectorSubs: 4}, {Protocol: "berkeley"},
			},
			CacheSets: 8, CacheWays: 2, Shards: 2, Tenure: "split", Discipline: "rr",
		}, gens: abShape(0.3, 5), refs: 3000},
		{name: "uncached", cfg: Config{Boards: []BoardSpec{
			{Protocol: "moesi"}, {Protocol: "berkeley"}, {Protocol: "dragon"},
			{Protocol: "uncached"}, {Protocol: "uncached-broadcast"},
		}}, gens: abShape(0.4, 17), refs: 2000},
		{name: "write-once", cfg: Homogeneous("write-once", 4), gens: abShape(0.3, 19), refs: 2000},
		// P3's heterogeneous bus. The uncached board's column-7 read
		// can turn a waiting owner O→M, so its deferred write no longer
		// needs the bus; the random board's probe can say "local" while
		// its access takes the bus.
		{name: "mixed-bus", cfg: Config{Boards: []BoardSpec{
			{Protocol: "moesi"}, {Protocol: "moesi-invalidate"}, {Protocol: "berkeley"},
			{Protocol: "dragon"}, {Protocol: "write-through"}, {Protocol: "random"},
			{Protocol: "uncached"},
		}}, gens: abShape(0.3, 23), refs: 3000},
		// Both dynamic choosers beside two fixed protocols, under the
		// aging discipline and split occupancy.
		{name: "mixed-choosers", cfg: Config{
			Boards: []BoardSpec{
				{Protocol: "random"}, {Protocol: "round-robin"},
				{Protocol: "moesi"}, {Protocol: "berkeley"},
			},
			Shards: 2, Tenure: "split", Discipline: "bounded",
		}, gens: abShape(0.4, 29), refs: 2000},
		// Eight waiters re-ranked by slot number on every grant.
		{name: "priority", cfg: Config{
			Boards: Homogeneous("moesi", 8).Boards, Discipline: "priority",
		}, gens: abShape(0.2, 31), refs: 3000},
	}
}

// TestSimulatedStatsGolden pins the full simulated statistics of fixed-
// seed deterministic runs — elapsed time, bus, memory and cache
// counters including the transition matrix, and every board's stall —
// against goldens in testdata/stats_<case>.json. Any moved statistic
// fails tier-1, so host-side optimisations are checked to be
// simulator-neutral without the benchmark. Regenerate with -update
// only for a deliberate model change.
func TestSimulatedStatsGolden(t *testing.T) {
	for _, gc := range goldenCases() {
		t.Run(gc.name, func(t *testing.T) {
			cfg := gc.cfg
			cfg.Shadow = true
			sys, err := New(cfg)
			if err != nil {
				t.Fatal(err)
			}
			m, err := (&Engine{Sys: sys, Gens: gc.gens(sys)}).Run(gc.refs)
			if err != nil {
				t.Fatal(err)
			}
			if err := sys.Checker().MustPass(); err != nil {
				t.Fatal(err)
			}
			got := goldenStats{
				System: m.System, Refs: m.Refs, ElapsedNanos: m.ElapsedNanos,
				Bus: m.Bus, Memory: m.Memory, Cache: m.Cache,
			}
			for _, b := range sys.Boards {
				got.Stalls = append(got.Stalls, b.Stall())
			}
			matchGolden(t, "simulated statistics", "stats_"+gc.name+".json", got)
		})
	}
}

// matchGolden compares got, as indented JSON, with testdata/file; with
// -update it rewrites the file first.
func matchGolden(t *testing.T, what, file string, got any) {
	t.Helper()
	enc, err := json.MarshalIndent(got, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	enc = append(enc, '\n')
	path := filepath.Join("testdata", file)
	if *updateGolden {
		if err := os.WriteFile(path, enc, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (run with -update to create)", err)
	}
	if !bytes.Equal(enc, want) {
		t.Errorf("%s moved from %s:\ngot  %s\nwant %s", what, path, enc, want)
	}
}

// goldenStream is what a fixed-seed observed run hands its sinks: the
// sha256 of the .fbt recording and of the JSONL export, the event
// count, and the verdicts of the watch and perf sinks that rode the
// same recorder.
type goldenStream struct {
	FbtSHA256   string
	JSONLSHA256 string
	Events      uint64
	Watch       goldenWatch
	Perf        *perf.Snapshot
}

// goldenAnalyses pins the full coherence and causal reports of the
// same runs by the sha256 of their JSON.
type goldenAnalyses struct {
	CoherenceSHA256 string
	CausalSHA256    string
}

func jsonSHA256(t *testing.T, v any) string {
	t.Helper()
	enc, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	sum := sha256.Sum256(enc)
	return hex.EncodeToString(sum[:])
}

// goldenWatch is the scalar part of watch.Report.
type goldenWatch struct {
	Events, States, Txs int64
	Lines               int
	Total               int64
}

// TestEventStreamGolden pins the event stream of two deterministic
// runs — the ab-hits system with the .fbt recorder and the watch and
// perf sinks attached (the shape of simbench's ab-observed workload),
// and the zipf-mix protocol mix under split tenure, rr and 2 shards —
// and of the mixed-bus, mixed-choosers and priority rows, whose
// KindBlocked events carry every deferred access's wait and blocker,
// against testdata/events_<name>.json, and the coherence and causal
// reports of the same runs against testdata/analyses_<name>.json. A
// reordered, lost or duplicated event moves the .fbt digest, so a
// change to how the recorder moves events to its sinks is checked to
// be invisible, and a change to how the JSONL exporter renders them
// moves its digest; a change to how an analyzer folds them moves its
// report digest.
// Regenerate with -update only for a deliberate change to what is
// emitted.
func TestEventStreamGolden(t *testing.T) {
	names := map[string]string{
		"ab-hits": "ab-observed", "zipf-mix": "zipf-mix",
		"mixed-bus": "mixed-bus", "mixed-choosers": "mixed-choosers", "priority": "priority",
	}
	for _, gc := range goldenCases() {
		name, ok := names[gc.name]
		if !ok {
			continue
		}
		t.Run(name, func(t *testing.T) {
			h, jh := sha256.New(), sha256.New()
			mon := watch.New(watch.Config{})
			var events, misordered uint64
			count := obs.SinkFunc(func(e *obs.Event) {
				if e.Seq != events {
					misordered++
				}
				events++
			})
			coh, cau := &coherence.Analyzer{}, &causal.Analyzer{}
			rec := obs.New(obs.NewRecordSink(h, obs.TraceMeta{Fingerprint: "golden " + name}),
				obs.NewJSONLSink(jh), mon, perf.NewSink(0), coh, cau, count)
			cfg := gc.cfg
			cfg.Shadow = true
			cfg.Obs = rec
			sys, err := New(cfg)
			if err != nil {
				t.Fatal(err)
			}
			m, err := (&Engine{Sys: sys, Gens: gc.gens(sys)}).Run(gc.refs)
			if err != nil {
				t.Fatal(err)
			}
			if err := rec.Close(); err != nil {
				t.Fatal(err)
			}
			if err := sys.Checker().MustPass(); err != nil {
				t.Fatal(err)
			}
			if rec.Dropped() != 0 || misordered != 0 {
				t.Fatalf("%d events dropped, %d out of Seq order", rec.Dropped(), misordered)
			}
			rep := mon.Report()
			got := goldenStream{
				FbtSHA256:   hex.EncodeToString(h.Sum(nil)),
				JSONLSHA256: hex.EncodeToString(jh.Sum(nil)),
				Events:      events,
				Watch: goldenWatch{
					Events: rep.Events, States: rep.States, Txs: rep.Txs,
					Lines: rep.Lines, Total: rep.Total,
				},
				Perf: m.Perf,
			}
			matchGolden(t, "event stream", "events_"+name+".json", got)
			matchGolden(t, "analyses", "analyses_"+name+".json", goldenAnalyses{
				CoherenceSHA256: jsonSHA256(t, coh.Analyze(0)),
				CausalSHA256:    jsonSHA256(t, cau.Analyze()),
			})
		})
	}
}
