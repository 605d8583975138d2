// Benchmark harness: one benchmark per table and figure of the paper
// plus one per performance experiment (see DESIGN.md's index). The
// table benchmarks measure regeneration + diff of the paper artifact;
// the figure benchmarks measure the bus-level machinery the figure
// describes; the P* benchmarks each run a complete simulation of the
// corresponding experiment's configuration and report protocol-level
// metrics alongside ns/op.
package futurebus_test

import (
	"fmt"
	"io"
	"runtime"
	"sync"
	"sync/atomic"
	"syscall"
	"testing"
	"time"

	"futurebus/internal/bus"
	"futurebus/internal/cache"
	"futurebus/internal/core"
	"futurebus/internal/hierarchy"
	"futurebus/internal/litmus"
	"futurebus/internal/memory"
	"futurebus/internal/obs"
	"futurebus/internal/obs/causal"
	"futurebus/internal/obs/obshttp"
	"futurebus/internal/obs/perf"
	"futurebus/internal/obs/watch"
	"futurebus/internal/protocols"
	"futurebus/internal/sim"
	"futurebus/internal/tablegen"
	"futurebus/internal/verify"
	"futurebus/internal/workload"
)

// benchArtifact regenerates and diffs one paper table per iteration.
func benchArtifact(b *testing.B, id string) {
	b.Helper()
	var artifact tablegen.Artifact
	for _, a := range tablegen.Artifacts() {
		if a.ID == id {
			artifact = a
		}
	}
	if artifact.ID == "" {
		b.Fatalf("no artifact %s", id)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if diffs := artifact.Diff(); len(diffs) != 0 {
			b.Fatalf("%s diverges: %v", id, diffs)
		}
		if artifact.Render() == "" {
			b.Fatal("empty render")
		}
	}
}

func BenchmarkTable1(b *testing.B) { benchArtifact(b, "T1") }
func BenchmarkTable2(b *testing.B) { benchArtifact(b, "T2") }
func BenchmarkTable3(b *testing.B) { benchArtifact(b, "T3") }
func BenchmarkTable4(b *testing.B) { benchArtifact(b, "T4") }
func BenchmarkTable5(b *testing.B) { benchArtifact(b, "T5") }
func BenchmarkTable6(b *testing.B) { benchArtifact(b, "T6") }
func BenchmarkTable7(b *testing.B) { benchArtifact(b, "T7") }

// BenchmarkFigure1Handshake simulates the Figure 1 broadcast wired-OR
// handshake.
func BenchmarkFigure1Handshake(b *testing.B) {
	cfg := bus.DefaultHandshakeConfig()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		tr := bus.SimulateBroadcastHandshake(cfg)
		if tr.Complete == 0 {
			b.Fatal("no completion")
		}
	}
}

// BenchmarkFigure2AddressCycle measures one full Figure 2 address cycle
// on a live bus: broadcast snoop of 7 caches plus data phase.
func BenchmarkFigure2AddressCycle(b *testing.B) {
	mem := memory.New(32)
	bb := bus.New(mem, bus.Config{LineSize: 32})
	for i := 0; i < 7; i++ {
		cache.New(i, bb, protocols.MOESI(), cache.Config{Sets: 64, Ways: 2})
	}
	tx := bus.Transaction{MasterID: 99, Signals: core.SigCA, Op: core.BusRead, Addr: 5, Data: make([]byte, 32)}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := bb.Execute(tx); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFigure3Classify measures the attribute→state mapping of
// Figure 3.
func BenchmarkFigure3Classify(b *testing.B) {
	var sink core.State
	for i := 0; i < b.N; i++ {
		sink = core.StateFromAttributes(i&1 == 0, i&2 == 0, i&4 == 0)
	}
	_ = sink
}

// BenchmarkFigure4Pairs measures the state-pair predicates of Figure 4.
func BenchmarkFigure4Pairs(b *testing.B) {
	var sink bool
	for i := 0; i < b.N; i++ {
		s := core.States[i%5]
		sink = s.Intervenient() || s.MayModifySilently() || s.MustAnnounceWrite()
	}
	_ = sink
}

// benchSim runs one simulated system per iteration and reports
// transactions and bytes per reference, plus hostns/ref and allocs/ref:
// host nanoseconds (ns/op over the references per op) and heap
// allocations per simulated reference, system setup included.
func benchSim(b *testing.B, cfg sim.Config, gens func(sys *sim.System) []workload.Generator, refs int) {
	b.Helper()
	b.ReportAllocs()
	var lastTrans, lastBytes float64
	var refsDone int64
	var before runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < b.N; i++ {
		sys, err := sim.New(cfg)
		if err != nil {
			b.Fatal(err)
		}
		eng := sim.Engine{Sys: sys, Gens: gens(sys)}
		m, err := eng.Run(refs)
		if err != nil {
			b.Fatal(err)
		}
		lastTrans, lastBytes = m.TransPerRef(), m.BytesPerRef()
		refsDone += m.Refs
	}
	reportPerRef(b, refsDone, &before)
	b.ReportMetric(lastTrans, "trans/ref")
	b.ReportMetric(lastBytes, "bytes/ref")
}

// reportPerRef reports hostns/ref and allocs/ref over the refs
// simulated references the benchmark ran, from the MemStats read
// before its loop.
func reportPerRef(b *testing.B, refs int64, before *runtime.MemStats) {
	b.Helper()
	var after runtime.MemStats
	runtime.ReadMemStats(&after)
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(refs), "hostns/ref")
	b.ReportMetric(float64(after.Mallocs-before.Mallocs)/float64(refs), "allocs/ref")
}

func abGens(pShared, pWrite float64) func(sys *sim.System) []workload.Generator {
	return func(sys *sim.System) []workload.Generator {
		return sys.Generators(func(proc int) workload.Generator {
			return workload.MustModel(workload.Model{
				Proc: proc, SharedLines: 32, PrivateLines: 80,
				WordsPerLine: sys.WordsPerLine(),
				PShared:      pShared, PWrite: pWrite, Locality: 0.5,
			}, 1986)
		})
	}
}

// BenchmarkP1 runs the protocol-comparison configuration for each
// protocol (experiment P1 / [Arch85]).
func BenchmarkP1(b *testing.B) {
	for _, name := range []string{
		"moesi", "moesi-invalidate", "moesi-update", "berkeley", "dragon",
		"illinois", "write-once", "firefly", "write-through",
	} {
		b.Run(name, func(b *testing.B) {
			benchSim(b, sim.Homogeneous(name, 4), abGens(0.2, 0.3), 2000)
		})
	}
}

// BenchmarkP2 runs the update-vs-invalidate separator workloads.
func BenchmarkP2(b *testing.B) {
	pc := func(sys *sim.System) []workload.Generator {
		return sys.Generators(func(proc int) workload.Generator {
			return workload.NewProducerConsumer(proc, 16, sys.WordsPerLine(), 1986)
		})
	}
	b.Run("producer-consumer/moesi", func(b *testing.B) {
		benchSim(b, sim.Homogeneous("moesi", 4), pc, 2000)
	})
	b.Run("producer-consumer/moesi-invalidate", func(b *testing.B) {
		benchSim(b, sim.Homogeneous("moesi-invalidate", 4), pc, 2000)
	})
}

// BenchmarkP3 runs the heterogeneous mixed bus.
func BenchmarkP3(b *testing.B) {
	cfg := sim.Config{Boards: []sim.BoardSpec{
		{Protocol: "moesi"}, {Protocol: "moesi-invalidate"}, {Protocol: "berkeley"},
		{Protocol: "dragon"}, {Protocol: "write-through"}, {Protocol: "uncached"},
	}}
	benchSim(b, cfg, abGens(0.3, 0.3), 2000)
}

// BenchmarkP4 runs the random-choice boards of §3.4.
func BenchmarkP4(b *testing.B) {
	benchSim(b, sim.Homogeneous("random", 4), abGens(0.4, 0.4), 2000)
}

// BenchmarkP5 contrasts copy-back with write-through traffic.
func BenchmarkP5(b *testing.B) {
	b.Run("moesi", func(b *testing.B) {
		benchSim(b, sim.Homogeneous("moesi", 4), abGens(0.2, 0.5), 2000)
	})
	b.Run("write-through", func(b *testing.B) {
		benchSim(b, sim.Homogeneous("write-through", 4), abGens(0.2, 0.5), 2000)
	})
}

// BenchmarkP6 runs the §5.2 recency-adaptive refinement.
func BenchmarkP6(b *testing.B) {
	benchSim(b, sim.Homogeneous("moesi-adaptive", 4), abGens(0.3, 0.3), 2000)
}

// BenchmarkP7 sweeps line size on the spatial-locality workload.
func BenchmarkP7(b *testing.B) {
	for _, lineSize := range []int{16, 64} {
		b.Run(map[int]string{16: "line16", 64: "line64"}[lineSize], func(b *testing.B) {
			cfg := sim.Homogeneous("moesi", 4)
			cfg.LineSize = lineSize
			cfg.CacheSets = 4096 / lineSize / 2
			gens := func(sys *sim.System) []workload.Generator {
				return sys.Generators(func(proc int) workload.Generator {
					return workload.NewSequential(proc, 4096, sys.WordsPerLine(), 0.05, 1986)
				})
			}
			benchSim(b, cfg, gens, 2000)
		})
	}
}

// BenchmarkP8 measures the BS abort/retry cost on migratory sharing.
func BenchmarkP8(b *testing.B) {
	mig := func(sys *sim.System) []workload.Generator {
		return sys.Generators(func(proc int) workload.Generator {
			return workload.NewMigratory(proc, 4, 16, 24, sys.WordsPerLine(), 1986)
		})
	}
	b.Run("illinois", func(b *testing.B) {
		benchSim(b, sim.Homogeneous("illinois", 4), mig, 2000)
	})
	b.Run("berkeley", func(b *testing.B) {
		benchSim(b, sim.Homogeneous("berkeley", 4), mig, 2000)
	})
}

// BenchmarkP9 runs the two-level hierarchy (§6 extension): one 4×4
// tree per iteration with cluster-heavy sharing, on the deterministic
// engine.
func BenchmarkP9(b *testing.B) {
	b.ReportAllocs()
	var lastGlobal float64
	var sys *sim.System
	var before runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < b.N; i++ {
		var err error
		sys, err = sim.NewTree(hierarchy.Config{
			Clusters: 4, ProcsPerCluster: 4, CacheSets: 32, CacheWays: 2, Shadow: true,
		})
		if err != nil {
			b.Fatal(err)
		}
		gens := sys.Generators(func(proc int) workload.Generator {
			return hierarchy.ClusterModel{
				Cluster: proc / 4, Proc: proc % 4,
				GlobalSharedLines: 16, ClusterSharedLines: 24, PrivateLines: 48,
				PGlobal: 0.05, PCluster: 0.25, PWrite: 0.3,
				WordsPerLine: sys.WordsPerLine(),
			}.NewGenerator(1986)
		})
		if _, err := (&sim.Engine{Sys: sys, Gens: gens}).Run(500); err != nil {
			b.Fatal(err)
		}
		lastGlobal = float64(sys.Tree().CollectStats().GlobalTransactions) / float64(500*16)
	}
	reportPerRef(b, int64(b.N)*500*16, &before)
	b.ReportMetric(lastGlobal, "globalTrans/ref")
	// The engine only drives: judge the last run once, off the clock.
	b.StopTimer()
	if err := sys.Check(); err != nil {
		b.Fatal(err)
	}
}

// BenchmarkP10 runs P10's sector organisation (4 MOESI boards, 64
// tags of 4×16 B sub-sectors) on its reuse workload.
func BenchmarkP10(b *testing.B) {
	cfg := sim.Homogeneous("moesi", 4)
	for i := range cfg.Boards {
		cfg.Boards[i].SectorSubs = 4
	}
	cfg.LineSize, cfg.CacheSets, cfg.CacheWays, cfg.Shadow = 16, 32, 2, true
	rewalk := func(sys *sim.System) []workload.Generator {
		return sys.Generators(func(proc int) workload.Generator {
			return workload.NewSequential(proc, 640, sys.WordsPerLine(), 0.02, 1986)
		})
	}
	benchSim(b, cfg, rewalk, 2000)
}

// BenchmarkShardedFabric runs the concurrent engine over the
// address-interleaved backplane at 1/2/4/8 shards: 8 mostly-private
// MOESI boards whose working sets spread across the shards. The
// refs/simms metric is simulated throughput — references retired per
// simulated millisecond, with the backplane term taken from the
// busiest shard — and is the scaling signal to compare across the
// sub-benchmarks: it rises with shard count as transactions that
// would serialise on one Futurebus proceed on independent shards.
// (Wall-clock ns/op only shows parallel speedup when the host grants
// the goroutines multiple CPUs.)
func BenchmarkShardedFabric(b *testing.B) {
	for _, shards := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("shards%d", shards), func(b *testing.B) {
			var m sim.Metrics
			var sys *sim.System
			for i := 0; i < b.N; i++ {
				cfg := sim.Homogeneous("moesi", 8)
				cfg.Shards = shards
				var err error
				if sys, err = sim.New(cfg); err != nil {
					b.Fatal(err)
				}
				if m, err = sim.RunConcurrent(sys, abGens(0.05, 0.3)(sys), 1500); err != nil {
					b.Fatal(err)
				}
			}
			// The engine only drives: judge the last run once, off the
			// clock.
			b.StopTimer()
			if err := sys.Check(); err != nil {
				b.Fatal(err)
			}
			if m.ElapsedNanos > 0 {
				b.ReportMetric(float64(m.Refs)/(float64(m.ElapsedNanos)/1e6), "refs/simms")
			}
			b.ReportMetric(m.BusUtilization(), "busutil")
		})
	}
}

// BenchmarkArbitration runs the P11 cell configuration — 8 MOESI
// boards ping-ponging over 4 contested lines — for every bus tenure ×
// arbitration discipline, reporting the saturation signals alongside
// ns/op: p99 arbitration wait (simulated ns), the Jain fairness index
// over per-board cumulative wait, and split-mode NACKs. This is the
// BENCH_<date>.json capture of the discipline axis: fcfs/rr/bounded
// hold fairness at 1.0 and pay the long tail, priority trades the
// tail for starved high boards (fairness falls), and split tenure
// overlaps memory service with other masters' address cycles.
func BenchmarkArbitration(b *testing.B) {
	for _, tenure := range []string{"atomic", "split"} {
		for _, disc := range bus.DisciplineNames() {
			b.Run(tenure+"/"+disc, func(b *testing.B) {
				var p99, fair, nacks float64
				for i := 0; i < b.N; i++ {
					cfg := sim.Homogeneous("moesi", 8)
					cfg.Tenure, cfg.Discipline = tenure, disc
					rec := obs.New(perf.NewSink())
					cfg.Obs = rec
					sys, err := sim.New(cfg)
					if err != nil {
						b.Fatal(err)
					}
					gens := sys.Generators(func(proc int) workload.Generator {
						return workload.NewPingPong(proc, 4, sys.WordsPerLine(), 1986)
					})
					eng := sim.Engine{Sys: sys, Gens: gens}
					m, err := eng.Run(1200)
					_ = rec.Close()
					if err != nil {
						b.Fatal(err)
					}
					if m.Perf != nil {
						p99 = float64(m.Perf.Latency[perf.MetricArbWait].P99)
						fair = m.Perf.ArbFairness
					}
					nacks = float64(m.Bus.Nacks)
				}
				b.ReportMetric(p99, "p99arb_ns")
				b.ReportMetric(fair, "fairness")
				b.ReportMetric(nacks, "nacks")
			})
		}
	}
}

// --- micro-benchmarks of the hot paths ---

// BenchmarkBusLockedRMW measures the atomic FetchAdd round trip. The
// first FetchAdd (the miss that sizes the way and the bus frame) runs
// before the timer, so B/op and allocs/op are the warm path's alone
// whatever the -benchtime.
func BenchmarkBusLockedRMW(b *testing.B) {
	mem := memory.New(32)
	bb := bus.New(mem, bus.Config{LineSize: 32})
	c := cache.New(0, bb, protocols.MOESI(), cache.Config{Sets: 64, Ways: 2})
	if _, err := c.FetchAdd(1, 0, 1); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := c.FetchAdd(1, 0, 1); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkCleanCommand measures the §6 CmdClean cycle against a dirty
// owner (abort + push + retry).
func BenchmarkCleanCommand(b *testing.B) {
	mem := memory.New(32)
	bb := bus.New(mem, bus.Config{LineSize: 32})
	c := cache.New(0, bb, protocols.MOESI(), cache.Config{Sets: 64, Ways: 2})
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		if err := c.WriteWord(5, 0, uint32(i)); err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
		if err := cache.CleanLine(bb, 99, 5); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkCacheReadHit is the pure processor-side fast path.
func BenchmarkCacheReadHit(b *testing.B) {
	mem := memory.New(32)
	bb := bus.New(mem, bus.Config{LineSize: 32})
	c := cache.New(0, bb, protocols.MOESI(), cache.Config{Sets: 64, Ways: 2})
	if _, err := c.ReadWord(1, 0); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := c.ReadWord(1, 0); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkCacheSilentWrite is the E/M silent write path.
func BenchmarkCacheSilentWrite(b *testing.B) {
	mem := memory.New(32)
	bb := bus.New(mem, bus.Config{LineSize: 32})
	c := cache.New(0, bb, protocols.MOESI(), cache.Config{Sets: 64, Ways: 2})
	if err := c.WriteWord(1, 0, 1); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := c.WriteWord(1, 0, uint32(i)); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkBroadcastUpdate is the full update-protocol write: bus
// broadcast, three SL snoopers merging the word.
func BenchmarkBroadcastUpdate(b *testing.B) {
	mem := memory.New(32)
	bb := bus.New(mem, bus.Config{LineSize: 32})
	caches := make([]*cache.Cache, 4)
	for i := range caches {
		caches[i] = cache.New(i, bb, protocols.MOESIUpdate(), cache.Config{Sets: 64, Ways: 2})
	}
	for _, c := range caches {
		if _, err := c.ReadWord(1, 0); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := caches[i%4].WriteWord(1, 0, uint32(i)); err != nil {
			b.Fatal(err)
		}
	}
}

// --- the layer ladder: one rung per simulator layer (ROADMAP item 1) ---

// BenchmarkLayer drives one layer of the simulator per rung:
//   - engine: the deterministic engine's scheduler on the ab-hits shape
//     (8 MOESI boards, 93% hits), with hostns/ref and allocs/ref, and
//     the engine's own deterministic work: UsesBusNext probes and the
//     deferrals they decide, per reference;
//   - snoop/held-N: one address cycle of an external master's read on
//     an 8-cache bus, for a line N of the caches hold (ns/op is ns/tx);
//   - arbiter/{uncontended,contended}: grants of one bus through
//     Acquire and Release, to a lone master or handed between two
//     masters, each grant going to a parked waiter (ns/grant);
//   - obs/emit: the engine rung's event stream re-emitted through a
//     recorder whose one sink does nothing: Emit and the drain, in
//     process cpu-ns per event;
//   - obs/{record,coherence,watch,perf}: the same stream fed to a fresh
//     sink of simbench's ab-observed set, in ns per event (ns/op is one
//     whole stream);
//   - obs/causal: the same for the fourth analyzer -serve runs, which
//     simbench does not attach.
func BenchmarkLayer(b *testing.B) {
	b.Run("engine", benchLayerEngine)
	for _, held := range []int{0, 1, 7} {
		b.Run(fmt.Sprintf("snoop/held-%d", held), func(b *testing.B) { benchLayerSnoop(b, held) })
	}
	b.Run("arbiter/uncontended", func(b *testing.B) { benchLayerArbiter(b, false) })
	b.Run("arbiter/contended", func(b *testing.B) { benchLayerArbiter(b, true) })
	b.Run("obs/emit", benchLayerObsEmit)
	for _, rung := range []struct {
		name string
		sink func() obs.Sink
	}{
		{"record", recordSink},
		{"coherence", func() obs.Sink { return &obshttp.CoherenceSink{} }},
		{"watch", func() obs.Sink { return obshttp.NewWatchSink(watch.Config{}, nil) }},
		{"perf", func() obs.Sink { return obshttp.NewPerfSink(nil) }},
		{"causal", func() obs.Sink { return &causal.Analyzer{} }},
	} {
		b.Run("obs/"+rung.name, func(b *testing.B) { benchLayerObsSink(b, rung.sink) })
	}
}

// layerStream is the event stream of the engine rung's run (8 MOESI
// boards, the AB shape, 5,000 references per board), captured once for
// the obs rungs.
var layerStream = sync.OnceValues(func() ([]obs.Event, error) {
	var events []obs.Event
	rec := obs.New(obs.SinkFunc(func(e *obs.Event) { events = append(events, *e) }))
	cfg := sim.Homogeneous("moesi", 8)
	cfg.Obs = rec
	sys, err := sim.New(cfg)
	if err != nil {
		return nil, err
	}
	if _, err := (&sim.Engine{Sys: sys, Gens: abGens(0.2, 0.3)(sys)}).Run(5000); err != nil {
		return nil, err
	}
	if err := rec.Close(); err != nil {
		return nil, err
	}
	return events, nil
})

// benchLayerObsEmit re-emits the stream each op and waits for the drain
// goroutine to consume it, so cpu-ns/event counts both sides. A first
// pass runs before the timer, so the runtime has made the threads the
// hand-off between the two goroutines needs and B/op is the warm
// path's alone.
func benchLayerObsEmit(b *testing.B) {
	events, err := layerStream()
	if err != nil {
		b.Fatal(err)
	}
	rec := obs.New(obs.SinkFunc(func(*obs.Event) {}))
	emit := func() {
		for j := range events {
			rec.Emit(&events[j])
		}
		rec.View(func() {})
	}
	emit()
	b.ReportAllocs()
	c0 := processCPU(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		emit()
	}
	b.StopTimer()
	b.ReportMetric(float64(processCPU(b)-c0)/float64(b.N*len(events)), "cpu-ns/event")
	if err := rec.Close(); err != nil {
		b.Fatal(err)
	}
}

// benchLayerObsSink feeds the stream to a fresh sink each op.
func benchLayerObsSink(b *testing.B, newSink func() obs.Sink) {
	events, err := layerStream()
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s := newSink()
		for j := range events {
			s.Consume(&events[j])
		}
	}
	b.StopTimer()
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(events)), "ns/event")
}

// probeCounter counts a board's UsesBusNext probes and those that
// deferred its access.
type probeCounter struct {
	sim.Board
	probes, deferrals int64
}

func (p *probeCounter) UsesBusNext(addr bus.Addr, write bool) bool {
	p.probes++
	uses := p.Board.UsesBusNext(addr, write)
	if uses {
		p.deferrals++
	}
	return uses
}

func benchLayerEngine(b *testing.B) {
	b.ReportAllocs()
	var refs, probes, deferrals int64
	var before runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < b.N; i++ {
		sys, err := sim.New(sim.Homogeneous("moesi", 8))
		if err != nil {
			b.Fatal(err)
		}
		counters := make([]*probeCounter, len(sys.Boards))
		for j, board := range sys.Boards {
			counters[j] = &probeCounter{Board: board}
			sys.Boards[j] = counters[j]
		}
		m, err := (&sim.Engine{Sys: sys, Gens: abGens(0.2, 0.3)(sys)}).Run(5000)
		if err != nil {
			b.Fatal(err)
		}
		refs += m.Refs
		for _, c := range counters {
			probes += c.probes
			deferrals += c.deferrals
		}
	}
	reportPerRef(b, refs, &before)
	b.ReportMetric(float64(probes)/float64(refs), "probes/ref")
	b.ReportMetric(float64(deferrals)/float64(refs), "deferrals/ref")
}

// benchLayerSnoop times an uncached master's read (Table 2 column 7) of
// a line held by the first held of eight MOESI caches. The holders stay
// in their states, so every iteration runs the same address cycle; the
// first runs before the timer, so allocs/op is the warm path's alone.
func benchLayerSnoop(b *testing.B, held int) {
	bb := bus.New(memory.New(32), bus.Config{LineSize: 32})
	caches := make([]*cache.Cache, 8)
	for i := range caches {
		caches[i] = cache.New(i, bb, protocols.MOESI(), cache.Config{Sets: 64, Ways: 2})
	}
	const line = bus.Addr(5)
	for _, c := range caches[:held] {
		if _, err := c.ReadWord(line, 0); err != nil {
			b.Fatal(err)
		}
	}
	tx := bus.Transaction{MasterID: 99, Addr: line, Op: core.BusRead, Data: make([]byte, 32)}
	if _, err := bb.Execute(tx); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := bb.Execute(tx); err != nil {
			b.Fatal(err)
		}
	}
}

// benchLayerArbiter times the arbiter's grants through Bus.Acquire and
// Release. Uncontended, an op acquires the free bus and releases it.
// Contended, an op is two hand-offs between this goroutine and a
// partner, each releasing the bus only once the other has parked on it,
// so every grant goes to a parked waiter. Warm-up ops run before the
// timer, so both sides have waited and allocs/op is the warm path's
// alone.
func benchLayerArbiter(b *testing.B, contended bool) {
	bb := bus.New(memory.New(32), bus.Config{LineSize: 32})
	grant := func() {
		bb.Acquire(0, 0)
		bb.Release(0)
	}
	grants := 1
	if contended {
		handOff := func() {
			for bb.ArbQueueDepth() < 2 { // the other side has parked
				runtime.Gosched()
			}
			bb.Release(0)
		}
		var stop atomic.Bool
		done := make(chan struct{})
		bb.Acquire(0, 0)
		go func() {
			defer close(done)
			for {
				bb.Acquire(0, 1)
				if stop.Load() {
					bb.Release(0)
					return
				}
				handOff()
			}
		}()
		defer func() {
			stop.Store(true)
			bb.Release(0)
			<-done
		}()
		grant = func() {
			handOff()
			bb.Acquire(0, 0)
		}
		grants = 2
	}
	for i := 0; i < 100; i++ {
		grant()
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		grant()
	}
	b.StopTimer()
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*grants), "ns/grant")
}

// BenchmarkRandomPolicyChoice measures the §3.4 dynamic chooser. The
// policy is built before ResetTimer, so the allocation footprint that
// gates it (internal/obs/regress lists it) is the choice's alone — 0 at
// any -benchtime.
func BenchmarkRandomPolicyChoice(b *testing.B) {
	p := protocols.NewRandom(1)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, ok := p.ChooseLocal(core.Shared, core.LocalWrite); !ok {
			b.Fatal("no choice")
		}
	}
}

// BenchmarkWorkloadModel measures reference generation.
func BenchmarkWorkloadModel(b *testing.B) {
	g := workload.MustModel(workload.Model{
		SharedLines: 32, PrivateLines: 80, WordsPerLine: 8,
		PShared: 0.3, PWrite: 0.3, Locality: 0.5,
	}, 1)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_ = g.Next()
	}
}

// BenchmarkClassValidation measures validating a full protocol table
// against the class.
func BenchmarkClassValidation(b *testing.B) {
	p := protocols.MOESI()
	tbl := p.Table()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if rep := core.Validate(tbl, core.CopyBack); rep.Verdict != core.InClass {
			b.Fatal(rep)
		}
	}
}

// BenchmarkLitmus runs the coherence litmus test (one full multi-
// schedule pass per iteration).
func BenchmarkLitmus(b *testing.B) {
	src := `
name: bench
boards: moesi, dragon
addr X = 0x10
proc P0:
  write X[0] 1
  read  X[0] -> a
proc P1:
  write X[0] 2
  read  X[0] -> c
schedules: 8
assert never a == 0
assert never final mem X[0] == 0
assert consistent
`
	test, err := litmus.ParseString(src)
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < b.N; i++ {
		res, err := litmus.Run(test)
		if err != nil {
			b.Fatal(err)
		}
		if !res.Ok() {
			b.Fatalf("%s", res)
		}
	}
}

// BenchmarkModelChecker runs the exhaustive three-board class
// exploration per iteration.
func BenchmarkModelChecker(b *testing.B) {
	boards := []verify.Chooser{
		verify.ClassChooser{Variant: core.CopyBack},
		verify.ClassChooser{Variant: core.CopyBack},
		verify.ClassChooser{Variant: core.CopyBack},
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if res := verify.Explore(boards); !res.Ok() {
			b.Fatalf("%s", res)
		}
	}
}

// benchObserved runs the default fbsim workload (moesi, 4 boards, 2000
// refs per board) b.N times with rec attached — nil runs it unobserved
// — then closes rec. Beside wall-clock ns/op it reports cpu-ns/op: the
// process's CPU time per op from getrusage, every thread, so the work
// the recorder's drain goroutine does on a second core counts too. The
// caller makes the recorder before the timer starts: its batches are a
// one-time allocation, not per-run cost.
func benchObserved(b *testing.B, rec *obs.Recorder) {
	b.Helper()
	cfg := sim.Homogeneous("moesi", 4)
	cfg.Obs = rec
	b.ResetTimer()
	c0 := processCPU(b)
	for i := 0; i < b.N; i++ {
		sys, err := sim.New(cfg)
		if err != nil {
			b.Fatal(err)
		}
		eng := sim.Engine{Sys: sys, Gens: abGens(0.2, 0.3)(sys)}
		if _, err := eng.Run(2000); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(processCPU(b)-c0)/float64(b.N), "cpu-ns/op")
	b.StopTimer()
	if err := rec.Close(); err != nil {
		b.Fatal(err)
	}
}

// processCPU is the process's CPU time so far, user and system, every
// thread.
func processCPU(b *testing.B) time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		b.Fatal(err)
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// recordSink is the .fbt RecordSink fbsim -record-out attaches, writing
// to io.Discard.
func recordSink() obs.Sink {
	return obs.NewRecordSink(io.Discard, obs.TraceMeta{Fingerprint: "bench"})
}

// BenchmarkObsRecordingOverhead measures what observing the default
// fbsim workload costs: "off" runs with no recorder, "fbt" with a
// process-lifetime recorder feeding a RecordSink, the way fbsim
// -record-out attaches one, and "serve" with the whole live sink set of
// fbsim -serve -watch -record-out: the RecordSink plus the obshttp
// service's sinks with the invariant monitor enabled. Each run ends
// with a View (the engine reads its sinks), so cpu-ns/op holds all the
// work: event construction, Emit's batch append, and every sink's
// Consume on the drain goroutine. A bench report (fbtrend diff) shows
// the fbt/off and serve/off ratios of both wall-clock and CPU time as
// advisory rows.
func BenchmarkObsRecordingOverhead(b *testing.B) {
	b.Run("off", func(b *testing.B) { benchObserved(b, nil) })
	b.Run("fbt", func(b *testing.B) { benchObserved(b, obs.New(recordSink())) })
	b.Run("serve", func(b *testing.B) {
		svc := obshttp.NewService(0)
		svc.EnableWatch(watch.Config{})
		benchObserved(b, obs.New(append([]obs.Sink{recordSink()}, svc.Sinks()...)...))
		if rep := svc.Watch.Report(); rep.States == 0 || rep.Total != 0 {
			b.Fatalf("served monitor saw %d states, %d violations", rep.States, rep.Total)
		}
	})
}

// BenchmarkCoherenceSinkOverhead measures what live coherence
// analytics add on top of recording: "record" is the
// BenchmarkObsRecordingOverhead/fbt configuration, "record+coherence"
// attaches an obshttp.CoherenceSink beside the RecordSink the way
// fbsim -serve does. The delta between the two sub-benchmarks is the
// per-run telemetry cost the /coherence endpoint pays for; BENCH json
// tracks both so drift is visible.
func BenchmarkCoherenceSinkOverhead(b *testing.B) {
	b.Run("record", func(b *testing.B) { benchObserved(b, obs.New(recordSink())) })
	b.Run("record+coherence", func(b *testing.B) {
		sink := &obshttp.CoherenceSink{}
		benchObserved(b, obs.New(recordSink(), sink))
		if sink.Totals().StateEvents == 0 {
			b.Fatal("coherence sink saw no state events")
		}
	})
}

// BenchmarkWatchSinkOverhead measures what live runtime verification
// adds on top of recording: "record" is the plain RecordSink
// configuration, "record+watch" attaches an obshttp.WatchSink beside
// it the way fbsim -watch -serve does. A bench report marks the
// wall-clock ratio WARN past 1.10 (advisory) — a monitored run should
// stay within a tenth of an unmonitored one.
func BenchmarkWatchSinkOverhead(b *testing.B) {
	b.Run("record", func(b *testing.B) { benchObserved(b, obs.New(recordSink())) })
	b.Run("record+watch", func(b *testing.B) {
		sink := obshttp.NewWatchSink(watch.Config{}, nil)
		benchObserved(b, obs.New(recordSink(), sink))
		rep := sink.Report()
		if rep.States == 0 {
			b.Fatal("watch sink saw no state events")
		}
		if rep.Total != 0 {
			b.Fatalf("clean benchmark run flagged %d violations; first: %v", rep.Total, rep.First)
		}
	})
}

// BenchmarkPerfSinkOverhead measures what saturation telemetry adds on
// top of recording: "record" is the plain RecordSink configuration,
// "record+perf" attaches an obshttp.PerfSink beside it the way fbsim
// -perf does (nil registry: the sink's own histograms and queue
// reconstruction, no exposition cost). A bench report marks the
// wall-clock ratio WARN past 1.10 (advisory) — a perf-monitored run
// should stay within a tenth of a record-only one.
func BenchmarkPerfSinkOverhead(b *testing.B) {
	b.Run("record", func(b *testing.B) { benchObserved(b, obs.New(recordSink())) })
	b.Run("record+perf", func(b *testing.B) {
		sink := obshttp.NewPerfSink(nil)
		benchObserved(b, obs.New(recordSink(), sink))
		snap := sink.Snapshot()
		if snap.Events == 0 || snap.Latency[perf.MetricTenure].Count == 0 {
			b.Fatal("perf sink saw no events")
		}
	})
}
