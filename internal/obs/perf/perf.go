// Package perf is the saturation-telemetry layer of the simulator: a
// Sink that folds the obs event stream into the queueing view the
// shared-bus design lives or dies on. The paper's single bus serialises
// every coherence transaction (§5), so the quantities that predict
// saturation are distributions, not means — how long masters wait for
// the arbiter, how long a granted master holds the bus, how much BS
// retry backoff and memory service cost — plus the arbitration queue
// depth over time per fabric shard.
//
// The sink is stream-driven: it needs no hooks beyond the events the
// bus and engines already emit. Arbitration waits come from KindGrant
// (the concurrent engine measures the wait across Acquire) and
// KindBlocked (the deterministic engine defers boards on its event
// timeline instead); both carry the wait as Dur, so one sink covers
// both engines. Queue depth is reconstructed from the wait intervals
// [TS-Dur, TS]: the depth at a grant is the number of masters whose
// waits overlap its start, which is exactly the arbiter queue the
// Futurebus priority network would be resolving.
//
// Two accumulation windows run side by side: a cumulative one (the
// /perf endpoint and Prometheus histograms) and a per-epoch one reset
// on KindEpoch, so a sweep sharing one recorder across many systems
// still gets per-system quantiles (Metrics.Perf, the fbsweep columns).
package perf

import (
	"fmt"
	"sort"
	"strings"
	"sync"

	"futurebus/internal/obs"
)

// Metric names produced by the Sink. Keys of Snapshot.Latency.
const (
	// MetricArbWait is the simulated time a master waited for the
	// arbiter before a grant, over waiting episodes (zero-wait grants
	// are not samples: both engines only report waits they measured,
	// and the interesting saturation signal is the wait when there is
	// one — queue depth carries the how-often).
	MetricArbWait = "perf.arb_wait_ns"
	// MetricTenure is per-transaction bus occupancy — how long a
	// granted master held the shard, including aborted attempts.
	MetricTenure = "perf.bus_tenure_ns"
	// MetricRetry is the BS abort/retry backoff paid by transactions
	// that suffered at least one abort.
	MetricRetry = "perf.retry_backoff_ns"
	// MetricMemSvc is the memory first-word service time of
	// memory-sourced transactions (cache-intervened reads excluded). In
	// split mode the service happens off-bus, reported by KindPend; the
	// metric covers both so atomic and split runs stay comparable.
	MetricMemSvc = "perf.mem_service_ns"
)

// TimelinePoints bounds the per-shard depth timeline kept for the
// /perf document; older points are dropped FIFO.
const TimelinePoints = 512

// DepthPoint is one sample of a shard's arbitration queue depth.
type DepthPoint struct {
	// TS is the simulated grant time the depth was sampled at.
	TS int64 `json:"ts"`
	// Depth is the number of masters queued on the shard's arbiter at
	// that moment, including the one just granted.
	Depth int64 `json:"depth"`
}

// QueueStats is the arbitration-queue digest of one fabric shard.
type QueueStats struct {
	// Bus is the shard's ObsID (events' Bus field).
	Bus int `json:"bus"`
	// Waits is the number of waiting episodes sampled.
	Waits int64 `json:"waits"`
	// Peak is the deepest queue observed.
	Peak int64 `json:"peak"`
	// Depth is the distribution of sampled depths.
	Depth obs.Summary `json:"depth"`
	// Timeline is a bounded trail of recent depth samples (cumulative
	// snapshots only; per-epoch snapshots omit it).
	Timeline []DepthPoint `json:"timeline,omitempty"`
}

// Snapshot is a point-in-time digest of the sink — the /perf document
// body and the Metrics.Perf payload.
type Snapshot struct {
	// Events is the number of events folded into this window.
	Events int64 `json:"events"`
	// Latency maps Metric* names to their quantile digests.
	Latency map[string]obs.Summary `json:"latency"`
	// Queue holds per-shard arbitration queue stats, ordered by Bus.
	Queue []QueueStats `json:"queue"`
	// Nacks counts split-mode NACKs (pending table full) in the window.
	Nacks int64 `json:"nacks,omitempty"`
	// WaitingBoards is the number of distinct boards that reported at
	// least one arbitration wait — the population the fairness index is
	// computed over.
	WaitingBoards int `json:"waiting_boards,omitempty"`
	// ArbFairness is the Jain fairness index (Σx)²/(n·Σx²) of per-board
	// cumulative arbitration wait: 1 when every waiting board waited
	// equally, approaching 1/n when one board absorbs all the waiting —
	// the starvation signature of priority arbitration under overload.
	// Zero when no board waited (index undefined).
	ArbFairness float64 `json:"arb_fairness,omitempty"`
}

// PeakQueueDepth returns the deepest arbitration queue across shards.
func (s *Snapshot) PeakQueueDepth() int64 {
	var peak int64
	for _, q := range s.Queue {
		if q.Peak > peak {
			peak = q.Peak
		}
	}
	return peak
}

// Render formats the snapshot for terminal output.
func (s *Snapshot) Render() string {
	var b strings.Builder
	names := make([]string, 0, len(s.Latency))
	for n := range s.Latency {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Fprintf(&b, "%-22s %s\n", n, s.Latency[n])
	}
	for _, q := range s.Queue {
		fmt.Fprintf(&b, "arb queue bus=%-3d waits=%d peak=%d p50=%d p99=%d\n",
			q.Bus, q.Waits, q.Peak, q.Depth.P50, q.Depth.P99)
	}
	if s.WaitingBoards > 0 {
		fmt.Fprintf(&b, "arb fairness %.3f over %d waiting boards\n", s.ArbFairness, s.WaitingBoards)
	}
	if s.Nacks > 0 {
		fmt.Fprintf(&b, "split nacks %d\n", s.Nacks)
	}
	return b.String()
}

// queueAccum accumulates one shard's depth samples in one window.
type queueAccum struct {
	depth    obs.Histogram
	last     int64
	peak     int64
	timeline []DepthPoint // FIFO ring, nil when the window keeps none
	tlHead   int
	tlFull   bool
}

func (q *queueAccum) observe(ts, depth int64, keepTimeline bool) {
	q.depth.Observe(depth)
	q.last = depth
	if depth > q.peak {
		q.peak = depth
	}
	if !keepTimeline {
		return
	}
	if q.timeline == nil {
		q.timeline = make([]DepthPoint, 0, TimelinePoints)
	}
	p := DepthPoint{TS: ts, Depth: depth}
	if len(q.timeline) < TimelinePoints {
		q.timeline = append(q.timeline, p)
		return
	}
	q.timeline[q.tlHead] = p
	q.tlHead = (q.tlHead + 1) % TimelinePoints
	q.tlFull = true
}

func (q *queueAccum) trail() []DepthPoint {
	if q.timeline == nil {
		return nil
	}
	if !q.tlFull {
		return append([]DepthPoint(nil), q.timeline...)
	}
	out := make([]DepthPoint, 0, len(q.timeline))
	out = append(out, q.timeline[q.tlHead:]...)
	return append(out, q.timeline[:q.tlHead]...)
}

// accum is one accumulation window. The four latency histograms are
// fixed fields, not a map: Consume runs on the hot drain path for
// every transaction, and two map lookups per sample per window is
// measurable against the record-only baseline the benchmark gates.
type accum struct {
	events  int64
	arbWait obs.Histogram
	tenure  obs.Histogram
	retry   obs.Histogram
	memSvc  obs.Histogram
	queues  map[int]*queueAccum
	// boardWait is each board's cumulative arbitration wait — the
	// fairness-index input. Small dense population (one entry per
	// board), so a map is off the per-sample hot path concern.
	boardWait map[int]int64
	nacks     int64
}

func newAccum() *accum {
	return &accum{queues: make(map[int]*queueAccum), boardWait: make(map[int]int64)}
}

// jain computes the Jain fairness index over the per-board waits.
func jain(waits map[int]int64) (float64, int) {
	if len(waits) == 0 {
		return 0, 0
	}
	var sum, sumSq float64
	for _, w := range waits {
		v := float64(w)
		sum += v
		sumSq += v * v
	}
	if sumSq == 0 {
		return 0, 0
	}
	return sum * sum / (float64(len(waits)) * sumSq), len(waits)
}

func (a *accum) queue(bus int) *queueAccum {
	q, ok := a.queues[bus]
	if !ok {
		q = &queueAccum{}
		a.queues[bus] = q
	}
	return q
}

// latency returns the window's histogram of metric, one of the Metric*
// names, or nil.
func (a *accum) latency(metric string) *obs.Histogram {
	switch metric {
	case MetricArbWait:
		return &a.arbWait
	case MetricTenure:
		return &a.tenure
	case MetricRetry:
		return &a.retry
	case MetricMemSvc:
		return &a.memSvc
	}
	return nil
}

func (a *accum) snapshot(withTimeline bool) *Snapshot {
	s := &Snapshot{
		Events:  a.events,
		Latency: make(map[string]obs.Summary, 4),
	}
	for _, name := range []string{MetricArbWait, MetricTenure, MetricRetry, MetricMemSvc} {
		if h := a.latency(name); h.Count() > 0 {
			s.Latency[name] = h.Summary()
		}
	}
	s.Nacks = a.nacks
	s.ArbFairness, s.WaitingBoards = jain(a.boardWait)
	buses := make([]int, 0, len(a.queues))
	for bus := range a.queues {
		buses = append(buses, bus)
	}
	sort.Ints(buses)
	for _, bus := range buses {
		q := a.queues[bus]
		qs := QueueStats{
			Bus:   bus,
			Waits: q.depth.Count(),
			Peak:  q.peak,
			Depth: q.depth.Summary(),
		}
		if withTimeline {
			qs.Timeline = q.trail()
		}
		s.Queue = append(s.Queue, qs)
	}
	return s
}

// Sink folds the event stream into saturation telemetry. The Recorder
// calls Consume one event at a time; Snapshot/EpochSnapshot may be
// called from any goroutine (a mutex separates them).
type Sink struct {
	mu    sync.Mutex
	cum   *accum
	epoch *accum
	// ends holds, per shard, the end times of wait intervals still
	// active at the last processed event — the reconstruction state the
	// depth samples come from. Sorted ascending (grant times are
	// monotone per shard).
	ends map[int][]int64
}

// NewSink creates a sink keeping TimelinePoints depth samples per shard
// in the cumulative window.
func NewSink() *Sink {
	return &Sink{
		cum:   newAccum(),
		epoch: newAccum(),
		ends:  make(map[int][]int64),
	}
}

// relevant reports whether the sink folds this event kind.
func relevant(k obs.Kind) bool {
	switch k {
	case obs.KindTx, obs.KindGrant, obs.KindBlocked, obs.KindEpoch,
		obs.KindPend, obs.KindNack:
		return true
	}
	return false
}

// Consume implements obs.Sink.
func (s *Sink) Consume(e *obs.Event) {
	if !relevant(e.Kind) {
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	s.cum.events++
	s.epoch.events++
	switch e.Kind {
	case obs.KindEpoch:
		// A fresh system was assembled on this stream: reset the
		// per-epoch window and forget wait intervals from the finished
		// system (its masters are gone; their waits must not deepen the
		// next system's queue).
		s.epoch = newAccum()
		for bus := range s.ends {
			s.ends[bus] = s.ends[bus][:0]
		}
	case obs.KindGrant, obs.KindBlocked:
		if e.Dur <= 0 {
			return
		}
		observe(&s.cum.arbWait, &s.epoch.arbWait, e.Dur)
		if e.Proc >= 0 {
			s.cum.boardWait[int(e.Proc)] += e.Dur
			s.epoch.boardWait[int(e.Proc)] += e.Dur
		}
		s.observeDepth(int(e.Bus), e.TS, e.Dur)
	case obs.KindPend:
		// Split-mode off-bus memory service (the first-word latency a
		// pending transaction spends in the table).
		if e.Dur > 0 {
			observe(&s.cum.memSvc, &s.epoch.memSvc, e.Dur)
		}
	case obs.KindNack:
		s.cum.nacks++
		s.epoch.nacks++
	case obs.KindTx:
		observe(&s.cum.tenure, &s.epoch.tenure, e.Dur)
		if e.RetryNS > 0 {
			observe(&s.cum.retry, &s.epoch.retry, e.RetryNS)
		}
		if e.MemNS > 0 {
			observe(&s.cum.memSvc, &s.epoch.memSvc, e.MemNS)
		}
	}
}

// observe folds one latency sample into both windows.
func observe(cum, epoch *obs.Histogram, v int64) {
	cum.Observe(v)
	epoch.Observe(v)
}

// observeDepth folds one wait interval [ts-dur, ts] into the shard's
// queue reconstruction and samples the depth at its start.
func (s *Sink) observeDepth(bus int, ts, dur int64) {
	start := ts - dur
	ends := s.ends[bus]
	// Evict intervals that ended at or before this wait began; ends is
	// sorted, so the survivors are a suffix.
	keep := sort.Search(len(ends), func(i int) bool { return ends[i] > start })
	if keep > 0 {
		ends = append(ends[:0], ends[keep:]...)
	}
	depth := int64(len(ends)) + 1 // the overlapping waiters plus this one
	// Grant times are monotone per shard, so appending keeps the slice
	// sorted.
	s.ends[bus] = append(ends, ts)
	s.cum.queue(bus).observe(ts, depth, true)
	s.epoch.queue(bus).observe(ts, depth, false)
}

// Flush implements obs.Sink (the sink is pull-only).
func (s *Sink) Flush() error { return nil }

// Snapshot digests everything observed since the sink was created,
// including the per-shard depth timelines.
func (s *Sink) Snapshot() *Snapshot {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.cum.snapshot(true)
}

// Latency returns a copy of the cumulative window's distribution of
// metric, one of the Metric* names (empty for any other name).
func (s *Sink) Latency(metric string) obs.Histogram {
	s.mu.Lock()
	defer s.mu.Unlock()
	if h := s.cum.latency(metric); h != nil {
		return *h
	}
	return obs.Histogram{}
}

// QueueDepth is one shard's arbitration queue in the cumulative window:
// the depth at its most recent sample and the deepest observed.
type QueueDepth struct {
	Bus        int
	Last, Peak int64
}

// QueueDepths returns the QueueDepth of every shard sampled so far, in
// no particular order.
func (s *Sink) QueueDepths() []QueueDepth {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]QueueDepth, 0, len(s.cum.queues))
	for bus, q := range s.cum.queues {
		out = append(out, QueueDepth{Bus: bus, Last: q.last, Peak: q.peak})
	}
	return out
}

// EpochSnapshot digests the window since the last KindEpoch marker —
// the current system's telemetry when one recorder spans a sweep.
func (s *Sink) EpochSnapshot() *Snapshot {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.epoch.snapshot(false)
}

// FindSink returns the first perf.Sink attached to r directly, or
// through any sink exposing it via a PerfSink() *Sink method (the
// obshttp wrapper does), or nil.
func FindSink(r *obs.Recorder) *Sink {
	for _, s := range r.Sinks() {
		switch v := s.(type) {
		case *Sink:
			return v
		case interface{ PerfSink() *Sink }:
			return v.PerfSink()
		}
	}
	return nil
}
