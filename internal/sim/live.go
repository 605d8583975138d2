package sim

import (
	"fmt"

	"futurebus/internal/bus"
	"futurebus/internal/obs/obshttp"
)

// LiveMetrics is a mid-run snapshot built only from race-safe sources:
// the bus counters (taken under the arbiter lock), the engines' atomic
// reference counter, and the recorder. Unlike Metrics it carries no
// cache counters — those live on engine goroutines and are only
// consistent at quiescence.
type LiveMetrics struct {
	// Refs is references completed so far across all boards.
	Refs int64 `json:"refs"`
	// Procs is the board count.
	Procs int `json:"procs"`
	// HitLatency is the assumed per-reference processor cost.
	HitLatency int64 `json:"hit_latency"`
	// Bus is the bus counter snapshot.
	Bus bus.Stats `json:"bus"`
	// Dropped is the recorder's post-close discard count (0 mid-run).
	Dropped int64 `json:"dropped"`
}

// ElapsedEstimate reconstructs elapsed simulated time the same way the
// concurrent engine does at quiescence: total bus occupancy plus the
// processors' hit-time share of the completed references.
func (m LiveMetrics) ElapsedEstimate() int64 {
	procs := int64(m.Procs)
	if procs == 0 {
		procs = 1
	}
	return m.Bus.BusyNanos + m.Refs*m.HitLatency/procs
}

// BusUtilization is the live busy fraction against the elapsed
// estimate.
func (m LiveMetrics) BusUtilization() float64 {
	el := m.ElapsedEstimate()
	if el == 0 {
		return 0
	}
	return float64(m.Bus.BusyNanos) / float64(el)
}

// LiveMetrics snapshots the system's progress. Safe to call from any
// goroutine while either engine is running.
func (s *System) LiveMetrics() LiveMetrics {
	return LiveMetrics{
		Refs:       s.RefsDone(),
		Procs:      len(s.Boards),
		HitLatency: DefaultHitLatency,
		Bus:        s.busStats(),
		Dropped:    s.Obs.Dropped(),
	}
}

// RegisterLiveGauges exposes the system's live progress on an obshttp
// registry: bus utilization, busy time, bytes moved, references
// completed, and recorder discards. Every gauge callback pulls a fresh
// LiveMetrics, so the scrape always reflects the current run state.
func (s *System) RegisterLiveGauges(reg *obshttp.Registry) {
	reg.GaugeFunc("futurebus_bus_utilization", "",
		"Live bus busy fraction against the elapsed-time estimate.",
		func() float64 { return s.LiveMetrics().BusUtilization() })
	reg.GaugeFunc("futurebus_bus_busy_ns", "",
		"Cumulative bus occupancy in simulated ns.",
		func() float64 { return float64(s.Bus.Stats().BusyNanos) })
	reg.GaugeFunc("futurebus_bus_bytes", "",
		"Cumulative data-phase bytes moved on the bus.",
		func() float64 { return float64(s.Bus.Stats().BytesTransferred) })
	reg.GaugeFunc("futurebus_refs_done", "",
		"References completed across all boards.",
		func() float64 { return float64(s.RefsDone()) })
	reg.GaugeFunc("futurebus_recorder_dropped_events", "",
		"Events discarded because they were emitted after recorder close.",
		func() float64 { return float64(s.Obs.Dropped()) })
	// Per-shard arbitration queue occupancy, polled from the arbiter at
	// scrape time (no hot-path publishing). Labelled by the shard's
	// ObsID so the series line up with the perf sink's reconstruction.
	for _, shard := range s.buses {
		reg.GaugeFunc("futurebus_arb_queue_live", fmt.Sprintf("bus=%q", fmt.Sprint(shard.ObsID())),
			"Instantaneous arbitration queue occupancy (master plus waiters), per fabric shard.",
			func() float64 { return float64(shard.ArbQueueDepth()) })
	}
}
