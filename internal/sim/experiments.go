package sim

import (
	"fmt"
	"sync"
	"sync/atomic"

	"futurebus/internal/bus"
	"futurebus/internal/obs"
	"futurebus/internal/obs/perf"
	"futurebus/internal/workload"
)

// This file implements the performance experiments of DESIGN.md (P9
// is in tree.go, P10 in sector_exp.go): the Archibald–Baer-style
// comparison the paper's §5.2 preference discussion rests on, plus
// ablations of the design choices the paper calls out. Every flat
// experiment cell is built by ExperimentOpts.run, and every cell, P9's
// trees included, is run and checked by ExperimentOpts.drive.
// Absolute numbers depend on the Timing model; the experiments report
// the *shapes* the paper predicts.

// ExperimentOpts sizes an experiment run.
type ExperimentOpts struct {
	// RefsPerProc is the reference-stream length per board.
	RefsPerProc int
	// Seed makes runs reproducible.
	Seed uint64
	// Obs, when non-nil, instruments every system an experiment builds
	// (latency histograms, traces). Metrics.Hist is filled when the
	// recorder carries a HistogramSink.
	Obs *obs.Recorder
	// Shards builds every system on an N-shard interleaved fabric
	// instead of a single bus (0/1 = single bus).
	Shards int
	// Perf asks for saturation telemetry (internal/obs/perf) on each P1
	// run: it fills Metrics.Perf and the P1 p99arb/peakQ columns.
	// Without Obs each run gets a private perf sink; with Obs the shared
	// recorder's own perf sink (if any) covers every run, as a second
	// recorder would split the event stream.
	Perf bool
	// Tenure, Discipline and PendingTable select the bus-tenure policy
	// and arbitration discipline for every system the experiments build
	// ("" = atomic tenure, FCFS ticket order; see bus.NewTenure and
	// bus.NewDiscipline). P11 sweeps its own tenure×discipline axis and
	// ignores these two; P9's trees ignore all three and Shards.
	Tenure       string
	Discipline   string
	PendingTable int
}

// boardGen makes one board's reference stream on a built system.
type boardGen func(sys *System, proc int) workload.Generator

// run turns one flat experiment cell — a system configuration and the
// reference stream each of its boards runs — into checked metrics: it
// builds cfg under the sweep-wide recorder, fabric, tenure and
// discipline options and hands the system to drive. readsPerf marks a
// cell whose experiment reads Metrics.Perf: when no shared recorder
// covers the run, the cell gets a private perf sink.
func (o ExperimentOpts) run(cfg Config, gen boardGen, readsPerf bool) (Metrics, error) {
	cfg.Obs, cfg.Shards = o.Obs, o.Shards
	cfg.Tenure, cfg.Discipline, cfg.PendingTable = o.Tenure, o.Discipline, o.PendingTable
	if readsPerf && cfg.Obs == nil {
		// A private recorder per run keeps the battery parallelisable:
		// each cell's perf window is its own, no epoch bookkeeping shared
		// across worker goroutines.
		cfg.Obs = obs.New(perf.NewSink())
		defer cfg.Obs.Close()
	}
	sys, err := New(cfg)
	if err != nil {
		return Metrics{}, err
	}
	return o.drive(sys, gen)
}

// drive runs every experiment cell, flat or a §6 tree: RefsPerProc
// references per board of the built system on the deterministic
// engine, then the metrics once the quiesced system passes its Check.
func (o ExperimentOpts) drive(sys *System, gen boardGen) (Metrics, error) {
	gens := sys.Generators(func(proc int) workload.Generator { return gen(sys, proc) })
	m, err := (&Engine{Sys: sys, Gens: gens}).Run(o.RefsPerProc)
	if err != nil {
		return Metrics{}, err
	}
	return m, sys.Check()
}

// abModel is the Archibald–Baer model, tuned so the private working
// set mostly fits the default cache (realistic miss ratios), with
// sharing controlled by pShared/pWrite.
func abModel(pShared, pWrite float64, seed uint64) boardGen {
	return func(sys *System, proc int) workload.Generator {
		return workload.MustModel(workload.Model{
			Proc:         proc,
			SharedLines:  32,
			PrivateLines: 80,
			WordsPerLine: sys.WordsPerLine(),
			PShared:      pShared,
			PWrite:       pWrite,
			Locality:     0.5,
		}, seed)
	}
}

// ProtocolComparison is experiment P1: every protocol on the
// Archibald–Baer workload across processor counts — the comparison
// [Arch85] ran and the paper's preferred-entry choices rest on.
func ProtocolComparison(protocolNames []string, procCounts []int, opts ExperimentOpts) (*Report, error) {
	rep := &Report{
		ID:    "P1",
		Title: "protocol comparison, Archibald–Baer model (pShared=0.2, pWrite=0.3)",
		Columns: []string{"protocol", "procs", "miss", "trans/ref", "bytes/ref",
			"busUtil", "efficiency", "systemPower", "aborts",
			"inv/ref", "ownedShare", "p99arb", "peakQ"},
	}
	for _, name := range protocolNames {
		for _, n := range procCounts {
			m, err := opts.run(Homogeneous(name, n), abModel(0.2, 0.3, opts.Seed), opts.Perf)
			if err != nil {
				return nil, fmt.Errorf("P1 %s×%d: %w", name, n, err)
			}
			// Saturation columns follow ExperimentOpts.Perf, not whichever
			// sinks a shared recorder carries; "-" marks an unmeasured cell.
			p99arb, peakQ := "-", "-"
			if opts.Perf && m.Perf != nil {
				p99arb = d(m.Perf.Latency[perf.MetricArbWait].P99)
				peakQ = d(m.Perf.PeakQueueDepth())
			}
			rep.AddRow(name, d(int64(n)), f(m.MissRatio()), f(m.TransPerRef()),
				f2(m.BytesPerRef()), f(m.BusUtilization()), f(m.Efficiency()),
				f2(m.SystemPower()), d(m.Bus.Aborts),
				f(m.InvalidationsPerRef()), f(m.OwnedShare()), p99arb, peakQ)
		}
	}
	rep.AddNote("expected shape (§5.2/[Arch85]): system power saturates as the bus does; BS-adapted protocols (write-once, illinois, firefly) pay extra for dirty-line transfers; write-through generates the most write traffic")
	rep.AddNote("transition mix: inv/ref counts valid→Invalid moves per reference (invalidation churn); ownedShare is the fraction of transitions landing in M/O — fbt lens analyze gives the full per-protocol matrix from a -record-out trace")
	rep.AddNote("saturation: p99arb is the p99 arbitration wait in simulated ns (waiting episodes only), peakQ the deepest reconstructed arbitration queue; both read '-' unless the sweep ran with -perf (see docs/OBSERVABILITY.md)")
	return rep, nil
}

// UpdateVsInvalidate is experiment P2: the §5.2 observation that
// broadcasting writes beats invalidation when other caches hold the
// line. Swept over sharing intensity and on the two structured patterns
// that separate the strategies hardest.
func UpdateVsInvalidate(opts ExperimentOpts) (*Report, error) {
	rep := &Report{
		ID:      "P2",
		Title:   "broadcast-update vs invalidate (MOESI preferred vs MOESI-invalidate)",
		Columns: []string{"workload", "protocol", "miss", "trans/ref", "bytes/ref", "efficiency"},
	}
	for _, wl := range []struct {
		name string
		gen  boardGen
	}{
		{"AB pShared=0.05", abModel(0.05, 0.3, opts.Seed)},
		{"AB pShared=0.20", abModel(0.2, 0.3, opts.Seed)},
		{"AB pShared=0.40", abModel(0.4, 0.3, opts.Seed)},
		{"producer-consumer", func(sys *System, proc int) workload.Generator {
			return workload.NewProducerConsumer(proc, 16, sys.WordsPerLine(), opts.Seed)
		}},
		{"ping-pong", func(sys *System, proc int) workload.Generator {
			return workload.NewPingPong(proc, 8, sys.WordsPerLine(), opts.Seed)
		}},
		{"migratory", func(sys *System, proc int) workload.Generator {
			return workload.NewMigratory(proc, 4, 16, 24, sys.WordsPerLine(), opts.Seed)
		}},
		{"zipf-hotspot", func(sys *System, proc int) workload.Generator {
			return workload.NewZipf(proc, 64, sys.WordsPerLine(), 1.1, 0.3, opts.Seed)
		}},
	} {
		for _, name := range []string{"moesi", "moesi-invalidate"} {
			m, err := opts.run(Homogeneous(name, 4), wl.gen, false)
			if err != nil {
				return nil, fmt.Errorf("P2 %s/%s: %w", wl.name, name, err)
			}
			rep.AddRow(wl.name, name, f(m.MissRatio()), f(m.TransPerRef()),
				f2(m.BytesPerRef()), f(m.Efficiency()))
		}
	}
	rep.AddNote("expected shape: update wins on producer-consumer, ping-pong and the zipf hot spot (hot lines stay resident everywhere, one broadcast word per write); invalidate wins on migratory data (updates to a line the next owner will rewrite are wasted)")
	return rep, nil
}

// MixedBus is experiment P3: one bus carrying every true class member
// plus a write-through cache and an uncached DMA master — §3.4's
// compatibility claim, measured.
func MixedBus(opts ExperimentOpts) (*Report, error) {
	cfg := Config{
		Boards: []BoardSpec{
			{Protocol: "moesi"},
			{Protocol: "moesi-invalidate"},
			{Protocol: "berkeley"},
			{Protocol: "dragon"},
			{Protocol: "write-through"},
			{Protocol: "random"},
			{Protocol: "uncached"},
		},
		Shadow: true,
	}
	m, err := opts.run(cfg, abModel(0.3, 0.3, opts.Seed), false)
	if err != nil {
		return nil, err
	}
	rep := &Report{
		ID:      "P3",
		Title:   "heterogeneous bus: copy-back + write-through + non-caching + random boards",
		Columns: []string{"mix", "consistent", "miss", "trans/ref", "bytes/ref", "efficiency"},
	}
	rep.AddRow(m.System, "yes", f(m.MissRatio()), f(m.TransPerRef()),
		f2(m.BytesPerRef()), f(m.Efficiency()))
	rep.AddNote("§3.4: caches of different types coexist on the bus simultaneously; the shared memory image stays single-valued (checker invariants 1–6 all hold)")
	return rep, nil
}

// RandomChoice is experiment P4: boards choosing random legal actions
// on every event remain consistent — the paper's extreme case.
func RandomChoice(opts ExperimentOpts) (*Report, error) {
	rep := &Report{
		ID:      "P4",
		Title:   "random and round-robin action selection (§3.4 extreme case)",
		Columns: []string{"mix", "consistent", "miss", "trans/ref", "bytes/ref", "efficiency"},
	}
	for _, mix := range [][]BoardSpec{
		{{Protocol: "random"}, {Protocol: "random"}, {Protocol: "random"}, {Protocol: "random"}},
		{{Protocol: "round-robin"}, {Protocol: "round-robin"}, {Protocol: "round-robin"}, {Protocol: "round-robin"}},
		{{Protocol: "random"}, {Protocol: "round-robin"}, {Protocol: "moesi"}, {Protocol: "berkeley"}},
	} {
		m, err := opts.run(Config{Boards: mix, Shadow: true}, abModel(0.4, 0.4, opts.Seed), false)
		if err != nil {
			return nil, err
		}
		rep.AddRow(m.System, "yes", f(m.MissRatio()), f(m.TransPerRef()),
			f2(m.BytesPerRef()), f(m.Efficiency()))
	}
	rep.AddNote("\"it would introduce no errors if a board were to select an action at each instant from the available set using a random number generator or a selection algorithm such as round robin\" — verified against all six invariants; the cost is efficiency, not correctness")
	return rep, nil
}

// CopyBackVsWriteThrough is experiment P5: the §3.1 claim (after
// [Good83], [Smit79]) that copy-back gives the greatest bus-traffic
// reduction, swept over write ratio.
func CopyBackVsWriteThrough(opts ExperimentOpts) (*Report, error) {
	rep := &Report{
		ID:      "P5",
		Title:   "copy-back vs write-through bus traffic",
		Columns: []string{"pWrite", "protocol", "trans/ref", "bytes/ref", "busUtil", "efficiency"},
	}
	for _, pWrite := range []float64{0.1, 0.3, 0.5} {
		for _, name := range []string{"moesi", "write-through", "write-through-broadcast"} {
			m, err := opts.run(Homogeneous(name, 4), abModel(0.2, pWrite, opts.Seed), false)
			if err != nil {
				return nil, fmt.Errorf("P5 %s: %w", name, err)
			}
			rep.AddRow(fmt.Sprintf("%.1f", pWrite), name, f(m.TransPerRef()),
				f2(m.BytesPerRef()), f(m.BusUtilization()), f(m.Efficiency()))
		}
	}
	rep.AddNote("expected shape: write-through bus transactions grow linearly with the write ratio (every write is a bus write), copy-back stays near the miss ratio — the reason §3.1 calls copy-back caches the route to \"the best performance and greatest reduction in bus traffic\"")
	return rep, nil
}

// ReplacementStatusRefinement is experiment P6: the §5.2 refinement —
// update recently-used snooped lines, discard ones nearing replacement.
func ReplacementStatusRefinement(opts ExperimentOpts) (*Report, error) {
	rep := &Report{
		ID:      "P6",
		Title:   "§5.2 refinement: update-if-recent / discard-if-LRU (MOESI vs MOESI-adaptive)",
		Columns: []string{"protocol", "miss", "updatesReceived", "invalidations", "trans/ref", "bytes/ref", "efficiency"},
	}
	for _, name := range []string{"moesi", "moesi-invalidate", "moesi-adaptive"} {
		m, err := opts.run(Homogeneous(name, 4), abModel(0.3, 0.3, opts.Seed), false)
		if err != nil {
			return nil, fmt.Errorf("P6 %s: %w", name, err)
		}
		rep.AddRow(name, f(m.MissRatio()), d(m.Cache.UpdatesReceived),
			d(m.Cache.InvalidationsReceived), f(m.TransPerRef()), f2(m.BytesPerRef()), f(m.Efficiency()))
	}
	rep.AddNote("the adaptive policy sits between pure update and pure invalidate: live lines keep receiving updates, dying lines stop costing broadcast slots")
	return rep, nil
}

// LineSizeSweep is experiment P7: §5.1's standard-line-size discussion;
// the simulator enforces one system-wide size, and this sweep shows the
// traffic trade-off a standard must settle.
func LineSizeSweep(opts ExperimentOpts) (*Report, error) {
	rep := &Report{
		ID:      "P7",
		Title:   "line size sweep (MOESI, constant cache capacity)",
		Columns: []string{"lineSize", "miss", "trans/ref", "bytes/ref", "busUtil", "efficiency"},
	}
	// A sequential walk over a shared buffer with sparse writes: the
	// workload with real spatial locality, so line size matters — bigger
	// lines amortise misses but widen the false-sharing blast radius of
	// each write.
	sequential := func(sys *System, proc int) workload.Generator {
		return workload.NewSequential(proc, 4096, sys.WordsPerLine(), 0.05, opts.Seed)
	}
	for _, lineSize := range []int{16, 32, 64, 128} {
		cfg := Homogeneous("moesi", 4)
		cfg.LineSize = lineSize
		// Keep capacity constant at 4 KiB per cache.
		cfg.CacheSets = 4096 / lineSize / 2
		cfg.CacheWays = 2
		m, err := opts.run(cfg, sequential, false)
		if err != nil {
			return nil, fmt.Errorf("P7 %d: %w", lineSize, err)
		}
		rep.AddRow(d(int64(lineSize)), f(m.MissRatio()), f(m.TransPerRef()),
			f2(m.BytesPerRef()), f(m.BusUtilization()), f(m.Efficiency()))
	}
	rep.AddNote("§5.1: line size must be standardised system-wide (the bus rejects mismatched writes); larger lines cut the miss count on sequential data but move more bytes per miss and widen write sharing — the [Smit85c] trade-off a standard has to pick once for everyone")
	return rep, nil
}

// AbortRetryOverhead is experiment P8: the cost of the BS
// abort-push-retry adaptation versus native DI intervention, measured
// where it hurts — migratory sharing, where every handoff finds the
// line dirty in the previous owner's cache.
func AbortRetryOverhead(opts ExperimentOpts) (*Report, error) {
	rep := &Report{
		ID:      "P8",
		Title:   "BS abort/retry vs DI intervention on migratory sharing",
		Columns: []string{"protocol", "aborts", "interventions", "trans/ref", "busUtil", "efficiency"},
	}
	migratory := func(sys *System, proc int) workload.Generator {
		return workload.NewMigratory(proc, 4, 16, 24, sys.WordsPerLine(), opts.Seed)
	}
	for _, name := range []string{"moesi-invalidate", "berkeley", "illinois", "synapse", "write-once", "firefly"} {
		m, err := opts.run(Homogeneous(name, 4), migratory, false)
		if err != nil {
			return nil, fmt.Errorf("P8 %s: %w", name, err)
		}
		rep.AddRow(name, d(m.Bus.Aborts), d(m.Cache.InterventionsSupplied),
			f(m.TransPerRef()), f(m.BusUtilization()), f(m.Efficiency()))
	}
	rep.AddNote("expected shape: class members serve dirty misses with one intervened transaction; the adapted protocols abort, push the line to memory, and retry — roughly doubling the bus work per handoff (Futurebus cannot update memory during a cache-to-cache transfer, §4.3–4.5)")
	return rep, nil
}

// HandshakePenalty quantifies the §2.2 wired-OR broadcast penalty: the
// same workload run with and without the 25 ns glitch filter cost.
func HandshakePenalty(opts ExperimentOpts) (*Report, error) {
	rep := &Report{
		ID:      "F1/F2",
		Title:   "broadcast handshake penalty (wired-OR glitch filter)",
		Columns: []string{"wiredORPenalty", "busBusy(ns)", "busUtil", "efficiency"},
	}
	for _, penalty := range []int64{0, 25, 50} {
		cfg := Homogeneous("moesi", 4)
		cfg.Timing = bus.DefaultTiming()
		cfg.Timing.WiredORPenalty = penalty
		m, err := opts.run(cfg, abModel(0.2, 0.3, opts.Seed), false)
		if err != nil {
			return nil, err
		}
		rep.AddRow(d(penalty), d(m.Bus.BusyNanos), f(m.BusUtilization()), f(m.Efficiency()))
	}
	rep.AddNote("\"the exacted penalty on the Futurebus is that broadcast handshaking is 25 nanoseconds slower than single slave transactions. The reward is that broadcast operations are guaranteed to work\" (§2.2)")
	return rep, nil
}

// ArbitrationDisciplines is experiment P11: the bus tenure × arbitration
// discipline matrix under ping-pong overload — every board hammering a
// tiny shared set, the workload where the grant order IS the
// performance story. Fairness is the Jain index of per-board
// cumulative arbitration wait: 1 when the discipline spreads waiting
// evenly, collapsing toward 1/n as one board's requests starve.
func ArbitrationDisciplines(opts ExperimentOpts) (*Report, error) {
	rep := &Report{
		ID:    "P11",
		Title: "bus tenure × arbitration discipline, ping-pong overload (8 boards)",
		Columns: []string{"tenure", "discipline", "p50arb", "p99arb", "fairness",
			"peakQ", "nacks", "busBusy(ms)", "efficiency"},
	}
	pingPong := func(sys *System, proc int) workload.Generator {
		return workload.NewPingPong(proc, 4, sys.WordsPerLine(), opts.Seed)
	}
	for _, tenure := range []string{"atomic", "split"} {
		for _, disc := range bus.DisciplineNames() {
			cell := opts
			cell.Tenure, cell.Discipline = tenure, disc
			// The arbitration columns are the experiment, so every cell
			// reads Metrics.Perf (unlike P1, where telemetry is opt-in).
			m, err := cell.run(Homogeneous("moesi", 8), pingPong, true)
			if err != nil {
				return nil, fmt.Errorf("P11 %s/%s: %w", tenure, disc, err)
			}
			p50, p99, fair, peakQ := "-", "-", "-", "-"
			if m.Perf != nil {
				p50 = d(m.Perf.Latency[perf.MetricArbWait].P50)
				p99 = d(m.Perf.Latency[perf.MetricArbWait].P99)
				fair = f(m.Perf.ArbFairness)
				peakQ = d(m.Perf.PeakQueueDepth())
			}
			rep.AddRow(tenure, disc, p50, p99, fair, peakQ, d(m.Bus.Nacks),
				f2(float64(m.Bus.BusyNanos)/1e6), f(m.Efficiency()))
		}
	}
	rep.AddNote("grant order: fcfs serves arrival order (no bound on one board's tail under overload); rr rotates from the last grantee (bounded skips); priority always prefers the lowest board number (high boards starve — watch fairness fall); bounded is priority with a skip cap that promotes starved waiters")
	rep.AddNote("split tenure decouples the address grant from the data-return grant (responses re-arbitrate; a full pending table NACKs, see the nacks column) — overlap shortens busBusy, and the discipline picks who benefits")
	return rep, nil
}

// NamedExperiment pairs an experiment ID with its runner, so callers
// can schedule the battery themselves.
type NamedExperiment struct {
	ID  string
	Run func(ExperimentOpts) (*Report, error)
}

// Battery returns the full experiment battery in DESIGN.md order.
func Battery() []NamedExperiment {
	p1 := func(opts ExperimentOpts) (*Report, error) {
		return ProtocolComparison([]string{
			"moesi", "moesi-invalidate", "moesi-update", "berkeley", "dragon",
			"illinois", "write-once", "firefly", "synapse", "write-through",
		}, []int{1, 2, 4, 8, 16}, opts)
	}
	return []NamedExperiment{
		{"P1", p1},
		{"P2", UpdateVsInvalidate},
		{"P3", MixedBus},
		{"P4", RandomChoice},
		{"P5", CopyBackVsWriteThrough},
		{"P6", ReplacementStatusRefinement},
		{"P7", LineSizeSweep},
		{"P8", AbortRetryOverhead},
		{"P9", MultiBusScaling},
		{"P10", SectorVsPlain},
		{"P11", ArbitrationDisciplines},
		{"F1/F2", HandshakePenalty},
		{"F2B", SlowBoardTax},
	}
}

// RunBattery executes the experiments on a bounded pool of jobs worker
// goroutines (jobs ≤ 1 runs them one at a time, in order) and returns
// the reports in battery order regardless of completion order. Every
// experiment is internally deterministic — each builds its own systems
// and drives them with the deterministic engine — so the reports are
// identical at any worker count; only wall-clock time changes. The
// first error wins; remaining queued experiments are skipped.
func RunBattery(list []NamedExperiment, opts ExperimentOpts, jobs int) ([]*Report, error) {
	out := make([]*Report, len(list))
	errs := make([]error, len(list))
	work := make(chan int)
	var wg sync.WaitGroup
	var failed atomic.Bool
	for w := 0; w < max(jobs, 1); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range work {
				if failed.Load() {
					continue // drain the queue after a failure
				}
				rep, err := list[i].Run(opts)
				if err != nil {
					errs[i] = fmt.Errorf("%s: %w", list[i].ID, err)
					failed.Store(true)
					continue
				}
				out[i] = rep
			}
		}()
	}
	for i := range list {
		work <- i
	}
	close(work)
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return out, nil
}

// SlowBoardTax quantifies the other half of §2.2: a broadcast bus runs
// every address cycle at the pace of its SLOWEST board ("no matter how
// new or old, fast or slow, a particular board may be"). The address
// cost is derived from the simulated Figure 1/2 handshake over the
// board timings (bus.HandshakeTrace.Timing).
func SlowBoardTax(opts ExperimentOpts) (*Report, error) {
	rep := &Report{
		ID:      "F2b",
		Title:   "the slow-board tax: address cycles complete at the slowest board's pace",
		Columns: []string{"slowestBoard(ns)", "addrCycle(ns)", "busBusy(ms)", "efficiency"},
	}
	for _, slow := range []int64{90, 200, 400} {
		hs := bus.DefaultHandshakeConfig()
		hs.Slaves = append(hs.Slaves, bus.SlaveTiming{AckDelay: 5, ProcessTime: slow})
		tr := bus.SimulateBroadcastHandshake(hs)
		cfg := Homogeneous("moesi", 4)
		cfg.Timing = tr.Timing()
		m, err := opts.run(cfg, abModel(0.2, 0.3, opts.Seed), false)
		if err != nil {
			return nil, err
		}
		rep.AddRow(d(slow), d(tr.Complete), f2(float64(m.Bus.BusyNanos)/1e6), f(m.Efficiency()))
	}
	rep.AddNote("one slow board on the backplane raises EVERY unit's address-cycle cost — the price of guaranteed broadcast (§2.2); boards that cannot keep up belong behind a bridge (see P9)")
	return rep, nil
}
