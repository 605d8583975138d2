package sim

import (
	"fmt"
	"strings"

	"futurebus/internal/bus"
	"futurebus/internal/cache"
	"futurebus/internal/core"
	"futurebus/internal/memory"
	"futurebus/internal/obs"
	"futurebus/internal/obs/perf"
)

// Metrics aggregates the result of one simulation run.
type Metrics struct {
	// System is the board-mix description.
	System string
	// Procs is the number of boards driven.
	Procs int
	// Refs is the total references executed.
	Refs int64
	// ElapsedNanos is the simulated completion time (the slowest
	// board's clock in the deterministic engine).
	ElapsedNanos int64
	// HitLatency is the per-reference processor cost assumed.
	HitLatency int64
	// Bus, Memory and Cache are the substrate counters.
	Bus    bus.Stats
	Memory memory.Stats
	Cache  cache.Stats // summed over all caches
	// Hist carries latency/stall/retry distribution summaries when the
	// run had an obs.HistogramSink attached (nil otherwise). Keys are
	// the obs.Metric* names.
	Hist map[string]obs.Summary `json:",omitempty"`
	// Perf carries saturation telemetry — arbitration-wait/tenure/
	// retry/memory-service quantiles and per-shard queue-depth stats —
	// when the run had a perf.Sink attached (nil otherwise). It is the
	// per-epoch window, so each run in a sweep sharing one recorder
	// reports only its own telemetry.
	Perf *perf.Snapshot `json:",omitempty"`
}

// histSummaries digests the recorder's histogram sink, if any, as of
// every event emitted so far. Safe on a nil recorder or a recorder
// without a HistogramSink.
func histSummaries(rec *obs.Recorder) (sums map[string]obs.Summary) {
	rec.View(func() {
		if h := obs.FindHistogram(rec); h != nil {
			sums = h.Summaries()
		}
	})
	return sums
}

// perfSnapshot digests the recorder's perf sink's per-epoch window, if
// any, as of every event emitted so far. Safe on a nil recorder or a
// recorder without a perf sink.
func perfSnapshot(rec *obs.Recorder) (snap *perf.Snapshot) {
	rec.View(func() {
		if p := perf.FindSink(rec); p != nil {
			snap = p.EpochSnapshot()
		}
	})
	return snap
}

// aggregate sums per-cache stats via cache.Stats.Add, folding
// sector-cache counters in through SectorStats.AsStats — both live next
// to the Stats definitions, so a new counter cannot be silently dropped
// here.
func aggregate(caches []*cache.Cache, sectors []*cache.SectorCache) cache.Stats {
	var total cache.Stats
	for _, sc := range sectors {
		total.Add(sc.Stats().AsStats())
	}
	for _, c := range caches {
		total.Add(c.Stats())
	}
	return total
}

// TransitionTable renders the aggregated state-transition counts in
// M,O,E,S,I order — the instrumentation view of how a protocol actually
// moves lines around the MOESI diagram.
func (m Metrics) TransitionTable() string {
	order := []core.State{core.Modified, core.Owned, core.Exclusive, core.Shared, core.Invalid}
	var b strings.Builder
	b.WriteString("from\\to      M        O        E        S        I\n")
	for _, from := range order {
		fmt.Fprintf(&b, "%-5s", from.Letter())
		for _, to := range order {
			fmt.Fprintf(&b, " %8d", m.Cache.Transitions[from][to])
		}
		b.WriteByte('\n')
	}
	return b.String()
}

// TotalTransitions sums the aggregated MOESI transition matrix.
func (m Metrics) TotalTransitions() int64 {
	var t int64
	for _, row := range m.Cache.Transitions {
		for _, v := range row {
			t += v
		}
	}
	return t
}

// InvalidationsPerRef is transitions into Invalid per reference — the
// coherence churn an invalidation-based protocol pays for writes.
func (m Metrics) InvalidationsPerRef() float64 {
	if m.Refs == 0 {
		return 0
	}
	var inv int64
	for from := range m.Cache.Transitions {
		if core.State(from) == core.Invalid {
			continue
		}
		inv += m.Cache.Transitions[from][core.Invalid]
	}
	return float64(inv) / float64(m.Refs)
}

// OwnedShare is the fraction of transitions that land a line in an
// owned state (M or O) — how write-biased the protocol's traffic is.
func (m Metrics) OwnedShare() float64 {
	total := m.TotalTransitions()
	if total == 0 {
		return 0
	}
	var owned int64
	for from := range m.Cache.Transitions {
		owned += m.Cache.Transitions[from][core.Modified] + m.Cache.Transitions[from][core.Owned]
	}
	return float64(owned) / float64(total)
}

// MissRatio is misses over references (cached boards only).
func (m Metrics) MissRatio() float64 {
	refs := m.Cache.Reads + m.Cache.Writes
	if refs == 0 {
		return 0
	}
	return float64(m.Cache.ReadMisses+m.Cache.WriteMisses) / float64(refs)
}

// TransPerRef is bus transactions per reference — the paper's central
// cost: caches exist to cut the bus bandwidth demand (§1).
func (m Metrics) TransPerRef() float64 {
	if m.Refs == 0 {
		return 0
	}
	return float64(m.Bus.Transactions) / float64(m.Refs)
}

// BytesPerRef is bus data bytes moved per reference.
func (m Metrics) BytesPerRef() float64 {
	if m.Refs == 0 {
		return 0
	}
	return float64(m.Bus.BytesTransferred) / float64(m.Refs)
}

// BusUtilization is the fraction of elapsed time the bus was busy. It
// is NOT clamped: a value above 1.0 means the accounting model was
// overcommitted (BusyNanos exceeded the elapsed clock — e.g. the
// concurrent engine's wall-clock elapsed time undercounting simulated
// bus time) and should be surfaced, not hidden. See Overcommitted.
func (m Metrics) BusUtilization() float64 {
	if m.ElapsedNanos == 0 {
		return 0
	}
	return float64(m.Bus.BusyNanos) / float64(m.ElapsedNanos)
}

// Efficiency is processor efficiency in the [Arch85] sense: the
// fraction of a processor's time spent executing rather than stalled on
// the bus. 1.0 means every reference hit. Like BusUtilization it is
// unclamped; >1 indicates an inconsistent elapsed-time model.
func (m Metrics) Efficiency() float64 {
	if m.ElapsedNanos == 0 || m.Procs == 0 {
		return 0
	}
	useful := float64(m.Refs) * float64(m.HitLatency)
	total := float64(m.ElapsedNanos) * float64(m.Procs)
	if total == 0 {
		return 0
	}
	return useful / total
}

// Overcommitted reports whether either derived ratio exceeds 1.0 —
// i.e. the run's time accounting is internally inconsistent and the
// ratios should be read as model diagnostics, not physical fractions.
func (m Metrics) Overcommitted() bool {
	return m.BusUtilization() > 1 || m.Efficiency() > 1
}

// SystemPower is Procs × Efficiency: the effective number of
// processors' worth of work the machine delivers ([Arch85] reports this
// curve; it saturates when the bus does).
func (m Metrics) SystemPower() float64 { return float64(m.Procs) * m.Efficiency() }

func (m Metrics) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s: %d refs, miss=%.4f trans/ref=%.4f bytes/ref=%.2f",
		m.System, m.Refs, m.MissRatio(), m.TransPerRef(), m.BytesPerRef())
	fmt.Fprintf(&b, " util=%.3f eff=%.3f power=%.2f", m.BusUtilization(), m.Efficiency(), m.SystemPower())
	fmt.Fprintf(&b, " inv=%d upd=%d int=%d abrt=%d",
		m.Cache.InvalidationsReceived, m.Cache.UpdatesReceived,
		m.Cache.InterventionsSupplied, m.Bus.Aborts)
	return b.String()
}
