package sim

import (
	"strings"
	"testing"

	"futurebus/internal/obs"
	"futurebus/internal/workload"
)

// TestEngineDeterminism: two identically-configured runs produce
// identical metrics, transaction counts and elapsed times.
func TestEngineDeterminism(t *testing.T) {
	run := func() Metrics {
		cfg := Homogeneous("moesi", 4)
		cfg.Shadow = true
		sys, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		eng := Engine{Sys: sys, Gens: abGens(sys, 0.3, 0.3, 321)}
		m, err := eng.Run(2000)
		if err != nil {
			t.Fatal(err)
		}
		return m
	}
	a, b := run(), run()
	if a.Bus != b.Bus || a.ElapsedNanos != b.ElapsedNanos || a.Cache != b.Cache {
		t.Errorf("runs diverged:\n%+v\n%+v", a, b)
	}
}

// TestEngineSeedsMatter: a different workload seed changes the run.
func TestEngineSeedsMatter(t *testing.T) {
	run := func(seed uint64) Metrics {
		sys, err := New(Homogeneous("moesi", 2))
		if err != nil {
			t.Fatal(err)
		}
		eng := Engine{Sys: sys, Gens: abGens(sys, 0.3, 0.3, seed)}
		m, err := eng.Run(2000)
		if err != nil {
			t.Fatal(err)
		}
		return m
	}
	if run(1).Bus == run(2).Bus {
		t.Error("different seeds gave identical bus stats")
	}
}

// TestEngineBusSerialisation: simulated bus busy time never exceeds
// elapsed wall time (the bus is a single shared resource).
func TestEngineBusSerialisation(t *testing.T) {
	sys, err := New(Homogeneous("moesi", 8))
	if err != nil {
		t.Fatal(err)
	}
	eng := Engine{Sys: sys, Gens: abGens(sys, 0.4, 0.3, 5)}
	m, err := eng.Run(2000)
	if err != nil {
		t.Fatal(err)
	}
	if m.Bus.BusyNanos > m.ElapsedNanos {
		t.Errorf("bus busy %d > elapsed %d", m.Bus.BusyNanos, m.ElapsedNanos)
	}
	if m.BusUtilization() <= 0 || m.BusUtilization() > 1 {
		t.Errorf("utilization = %f", m.BusUtilization())
	}
}

// TestEngineGeneratorMismatch is a configuration error.
func TestEngineGeneratorMismatch(t *testing.T) {
	sys, err := New(Homogeneous("moesi", 2))
	if err != nil {
		t.Fatal(err)
	}
	eng := Engine{Sys: sys, Gens: abGens(sys, 0.2, 0.2, 1)[:1]}
	if _, err := eng.Run(10); err == nil {
		t.Error("generator mismatch accepted")
	}
}

// TestMetricsDerivations: the derived figures behave sensibly on a
// constructed Metrics value.
func TestMetricsDerivations(t *testing.T) {
	var m Metrics
	if m.MissRatio() != 0 || m.TransPerRef() != 0 || m.Efficiency() != 0 {
		t.Error("zero metrics not zero")
	}
	m.Refs = 1000
	m.Procs = 2
	m.HitLatency = 50
	m.ElapsedNanos = 100000
	m.Bus.Transactions = 100
	m.Bus.BytesTransferred = 3200
	m.Bus.BusyNanos = 50000
	m.Cache.Reads = 800
	m.Cache.Writes = 200
	m.Cache.ReadMisses = 80
	m.Cache.WriteMisses = 20
	if got := m.MissRatio(); got != 0.1 {
		t.Errorf("miss ratio = %f", got)
	}
	if got := m.TransPerRef(); got != 0.1 {
		t.Errorf("trans/ref = %f", got)
	}
	if got := m.BytesPerRef(); got != 3.2 {
		t.Errorf("bytes/ref = %f", got)
	}
	if got := m.BusUtilization(); got != 0.5 {
		t.Errorf("utilization = %f", got)
	}
	if got := m.Efficiency(); got != 0.25 {
		t.Errorf("efficiency = %f", got)
	}
	if got := m.SystemPower(); got != 0.5 {
		t.Errorf("power = %f", got)
	}
	if s := m.String(); !strings.Contains(s, "miss=0.1000") {
		t.Errorf("metrics string %q", s)
	}
}

// TestSystemConfigErrors: bad configurations are rejected up front.
func TestSystemConfigErrors(t *testing.T) {
	if _, err := New(Config{}); err == nil {
		t.Error("empty board list accepted")
	}
	if _, err := New(Config{Boards: []BoardSpec{{Protocol: "no-such"}}}); err == nil {
		t.Error("unknown protocol accepted")
	}
}

// TestSystemDescribe groups identical boards.
func TestSystemDescribe(t *testing.T) {
	sys, err := New(Config{Boards: []BoardSpec{
		{Protocol: "moesi"}, {Protocol: "moesi"}, {Protocol: "uncached"},
	}})
	if err != nil {
		t.Fatal(err)
	}
	if got := sys.Describe(); got != "2×moesi+1×uncached" {
		t.Errorf("describe = %q", got)
	}
}

// TestUncachedBoardsInEngine: a mixed cached/uncached system runs to
// completion under the deterministic engine.
func TestUncachedBoardsInEngine(t *testing.T) {
	cfg := Config{Boards: []BoardSpec{
		{Protocol: "moesi"}, {Protocol: "moesi"}, {Protocol: "uncached-broadcast"},
	}, Shadow: true}
	sys, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	eng := Engine{Sys: sys, Gens: abGens(sys, 0.5, 0.5, 17)}
	if _, err := eng.Run(2000); err != nil {
		t.Fatal(err)
	}
	if err := sys.Checker().MustPass(); err != nil {
		t.Fatal(err)
	}
}

// TestNonCachingBoardsEmitStalls: a non-caching board is a cache
// running Table 1's "**" rows, so like every other master it emits a
// KindStall span per bus access (one per reference, since it never
// hits), and the spans sum to its Stall.
func TestNonCachingBoardsEmitStalls(t *testing.T) {
	var stalls, durs [3]int64
	rec := obs.New(obs.SinkFunc(func(e *obs.Event) {
		if e.Kind == obs.KindStall && e.Proc >= 0 && int(e.Proc) < len(stalls) {
			stalls[e.Proc]++
			durs[e.Proc] += e.Dur
		}
	}))
	sys, err := New(Config{Boards: []BoardSpec{
		{Protocol: "moesi"}, {Protocol: "uncached"}, {Protocol: "uncached-broadcast"},
	}, Shadow: true, Obs: rec})
	if err != nil {
		t.Fatal(err)
	}
	const refs = 1000
	if _, err := (&Engine{Sys: sys, Gens: abGens(sys, 0.5, 0.5, 17)}).Run(refs); err != nil {
		t.Fatal(err)
	}
	if err := rec.Close(); err != nil {
		t.Fatal(err)
	}
	for i := 1; i < len(stalls); i++ {
		if stalls[i] != refs || durs[i] != sys.Boards[i].Stall() {
			t.Errorf("%s board: %d stall events spanning %d ns; want %d spanning its Stall() %d ns",
				sys.Boards[i].Describe(), stalls[i], durs[i], refs, sys.Boards[i].Stall())
		}
	}
}

// TestLineSizeMismatchRejected is experiment P7's negative case: §5.1
// — a board writing lines of the wrong size is refused by the bus.
func TestLineSizeMismatchRejected(t *testing.T) {
	sys, err := New(Homogeneous("moesi", 1))
	if err != nil {
		t.Fatal(err)
	}
	eng := Engine{Sys: sys, Gens: sys.Generators(func(int) workload.Generator {
		return workload.NewReplay(workload.Trace{{Line: 1, Word: 20, Write: true, Val: 1}})
	})}
	if _, err := eng.Run(1); err == nil {
		t.Error("out-of-line word survived the standard-line-size check")
	}
}

// TestTransitionTableRendering: the instrumentation view renders and
// reflects actual traffic.
func TestTransitionTableRendering(t *testing.T) {
	sys, err := New(Homogeneous("moesi", 2))
	if err != nil {
		t.Fatal(err)
	}
	eng := Engine{Sys: sys, Gens: abGens(sys, 0.4, 0.4, 3)}
	m, err := eng.Run(1500)
	if err != nil {
		t.Fatal(err)
	}
	out := m.TransitionTable()
	if !strings.Contains(out, "from\\to") {
		t.Errorf("header missing:\n%s", out)
	}
	if m.Cache.Transitions[2][4] == 0 { // E→M silent upgrades
		t.Error("no E→M transitions recorded under a write-heavy workload")
	}
}

// TestReportCSV: the CSV form quotes commas and carries all rows.
func TestReportCSV(t *testing.T) {
	rep := &Report{ID: "X", Title: "t", Columns: []string{"a", "b"}}
	rep.AddRow("1,5", `say "hi"`)
	rep.AddRow("2", "plain")
	got := rep.CSV()
	want := "a,b\n\"1,5\",\"say \"\"hi\"\"\"\n2,plain\n"
	if got != want {
		t.Errorf("CSV:\n%q\nwant\n%q", got, want)
	}
}

// TestSectorBoardsInEngine: §5.1 sector caches run as first-class sim
// boards, mixed with plain caches, consistently.
func TestSectorBoardsInEngine(t *testing.T) {
	cfg := Config{
		Boards: []BoardSpec{
			{Protocol: "moesi", SectorSubs: 4},
			{Protocol: "moesi"},
			{Protocol: "dragon", SectorSubs: 2},
		},
		Shadow: true,
	}
	sys, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if got := sys.Describe(); !strings.Contains(got, "moesi/sector4") {
		t.Errorf("describe = %q", got)
	}
	eng := Engine{Sys: sys, Gens: abGens(sys, 0.4, 0.3, 77)}
	m, err := eng.Run(2500)
	if err != nil {
		t.Fatal(err)
	}
	if err := sys.Checker().MustPass(); err != nil {
		t.Fatal(err)
	}
	if m.Cache.Reads == 0 || m.MissRatio() == 0 {
		t.Errorf("sector stats not aggregated: %+v", m.Cache)
	}
}
