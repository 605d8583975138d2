package obshttp

import (
	"container/heap"
	"errors"
	"fmt"
	"sort"

	"futurebus/internal/obs"
	"futurebus/internal/obs/causal"
	"futurebus/internal/obs/coherence"
	"futurebus/internal/obs/perf"
	"futurebus/internal/obs/watch"
)

// Metric families exposed on /metrics. Kept as constants so the CI
// smoke test and the docs reference the same names the code emits.
const (
	MetricTransactions     = "futurebus_bus_transactions_total"
	MetricAborts           = "futurebus_bus_aborts_total"
	MetricRetries          = "futurebus_bus_retries_total"
	MetricStateTransitions = "futurebus_state_transitions_total"
	MetricEvents           = "futurebus_events_total"
	MetricPhaseLatency     = "futurebus_phase_latency_ns"
	MetricTxLatency        = "futurebus_tx_latency_ns"
	MetricStall            = "futurebus_proc_stall_ns"
	MetricSSEFrames        = "futurebus_sse_frames_total"
	MetricSSEShed          = "futurebus_sse_shed_total"
	MetricNacks            = "futurebus_bus_nacks_total"
	MetricRetryExhausted   = "futurebus_retry_exhausted_total"
	MetricDropped          = "obs_events_dropped_total"

	// Coherence analytics (see internal/obs/coherence and the
	// /coherence endpoint).
	MetricCoherenceTransitions    = "futurebus_coherence_transitions_total"
	MetricCoherenceInvalidations  = "futurebus_coherence_invalidations_total"
	MetricCoherenceOwnershipMoves = "futurebus_coherence_ownership_moves_total"
	MetricCoherenceReadSource     = "futurebus_coherence_read_source_total"

	// Runtime invariant monitor (see internal/obs/watch and the
	// /violations endpoint). The latch gauge goes to 1 at the first
	// violation and stays there, so a single end-of-run scrape (or a CI
	// probe) cannot miss a transient burst.
	MetricInvariantViolations = "futurebus_invariant_violations_total"
	MetricInvariantLatch      = "futurebus_invariant_violation_latch"
)

// Service bundles everything live observability needs: the metrics
// registry, the SSE event stream, the service's own fold of the stream
// (event counts, phase and stall histograms, the /slow ring), and the
// causal, coherence, saturation and (optionally) invariant analyzers.
// Attach Sinks() to a Recorder, name it with ObserveRecorder, then
// Serve to expose it all over HTTP.
//
// The analyzers are the same single-goroutine sinks fbt causal, lens
// and watch replay offline, attached straight to the recorder. Each
// number has one owner: the registry keeps none, but renders the
// sinks' counts and histograms. Every endpoint and every scrape reads
// them inside the recorder's View, so a served document covers every
// event emitted before the request; other readers of these fields do
// the same while the recorder runs.
type Service struct {
	Registry  *Registry
	Stream    *EventStream
	Causal    *causal.Analyzer
	Coherence *coherence.Analyzer
	// Perf is the saturation-telemetry sink: /perf serves its snapshot
	// and the registry renders its latency histograms and per-shard
	// queue gauges.
	Perf *PerfSink
	// Watch is the runtime invariant monitor (nil unless EnableWatch
	// attached one).
	Watch *WatchSink
	// Trend is the rolling-baseline regression source (nil unless
	// EnableTrend attached a run ledger); /trend serves its verdict.
	Trend *TrendSource

	metrics  *metricsSink
	rec      *obs.Recorder
	observed bool
}

// CoherenceSink is the coherence analyzer the service serves; the
// simulator benchmark (simbench) attaches one by this name.
type CoherenceSink = coherence.Analyzer

// NewService builds a service whose /slow ring keeps the topK slowest
// transactions (0 = DefaultTopK).
func NewService(topK int) *Service {
	s := &Service{
		Registry:  NewRegistry(),
		Stream:    NewEventStream(),
		Causal:    &causal.Analyzer{},
		Coherence: &coherence.Analyzer{},
	}
	s.metrics = newMetricsSink(s.Registry, topK)
	s.Perf = NewPerfSink(s.Registry)
	// perf's tenure histogram holds every completed transaction's bus
	// occupancy, the samples a per-transaction latency summary digests.
	s.Registry.Summary(MetricTxLatency, "", "Per-transaction bus occupancy in simulated ns.",
		func() obs.Histogram { return s.Perf.Latency(perf.MetricTenure) })
	s.registerCoherence()
	s.Registry.GaugeFunc(MetricSSEFrames, "", "Event frames marshalled for SSE subscribers.", func() float64 {
		frames, _ := s.Stream.Stats()
		return float64(frames)
	})
	s.Registry.GaugeFunc(MetricSSEShed, "", "Event frames shed because a subscriber was too slow.", func() float64 {
		_, shed := s.Stream.Stats()
		return float64(shed)
	})
	return s
}

// registerCoherence renders the coherence analyzer's transition
// matrices and totals: the state-transition families count only cells
// that happened, as the series appear when the first transition does.
func (s *Service) registerCoherence() {
	cells := func(m *coherence.Matrix, add func(from, to string, n int64)) {
		for f, row := range m {
			for t, n := range row {
				if n > 0 {
					add(coherence.StateLetters[f], coherence.StateLetters[t], n)
				}
			}
		}
	}
	reg := s.Registry
	reg.FamilyFunc(MetricStateTransitions, "counter", "Cache-line state transitions.", func(add func(string, int64)) {
		var all coherence.Matrix
		s.Coherence.Transitions(func(_ string, m *coherence.Matrix, _ int64) { all.Add(m) })
		cells(&all, func(from, to string, n int64) { add(fmt.Sprintf("from=%q,to=%q", from, to), n) })
	})
	reg.FamilyFunc(MetricCoherenceTransitions, "counter", "Cache-line state transitions by governing protocol.",
		func(add func(string, int64)) {
			s.Coherence.Transitions(func(proto string, m *coherence.Matrix, _ int64) {
				cells(m, func(from, to string, n int64) {
					add(fmt.Sprintf("proto=%q,from=%q,to=%q", proto, from, to), n)
				})
			})
		})
	reg.FamilyFunc(MetricCoherenceInvalidations, "counter", "Snoop-caused transitions to Invalid by protocol.",
		func(add func(string, int64)) {
			s.Coherence.Transitions(func(proto string, _ *coherence.Matrix, inv int64) {
				if inv > 0 {
					add(fmt.Sprintf("proto=%q", proto), inv)
				}
			})
		})
	reg.FamilyFunc(MetricCoherenceOwnershipMoves, "counter",
		"Line ownership migrating directly from one cache to another.", func(add func(string, int64)) {
			add("", s.Coherence.Totals().OwnershipMoves)
		})
	reg.FamilyFunc(MetricCoherenceReadSource, "counter",
		"Completed bus reads by who supplied the line.", func(add func(string, int64)) {
			t := s.Coherence.Totals()
			add(`source="cache"`, t.CacheSourced)
			add(`source="memory"`, t.MemSourced)
		})
}

// EnableWatch attaches the runtime invariant monitor to the service:
// Sinks() will include it, /violations serves its report, and the
// registry gains futurebus_invariant_violations_total plus the
// first-violation latch gauge. Call before Sinks()/Serve. Zero cfg
// fields take the monitor's defaults.
func (s *Service) EnableWatch(cfg watch.Config) *WatchSink {
	if s.Watch == nil {
		s.Watch = NewWatchSink(cfg, s.Registry)
	}
	return s.Watch
}

// Sinks returns the obs.Sinks the service needs attached to the
// Recorder, in the order they should run.
func (s *Service) Sinks() []obs.Sink {
	sinks := []obs.Sink{s.metrics, s.Causal, s.Coherence, s.Perf}
	if s.Watch != nil {
		sinks = append(sinks, s.Watch)
	}
	return append(sinks, s.Stream)
}

// ObserveRecorder names the recorder the service's Sinks() are
// attached to: the endpoints and the registry read the sinks through
// its View, so call it before Serve (which refuses to start without
// it) and before anything renders the registry. It also exposes the
// recorder's drop telemetry on /metrics: obs_events_dropped_total
// counts events discarded because they were emitted after the recorder
// closed — an instrumentation site outlived the recorder (0 on a
// healthy run; events are never shed while the recorder is open). Safe
// to call with a nil recorder (no events flow, and the counter reads
// 0).
func (s *Service) ObserveRecorder(rec *obs.Recorder) {
	s.rec, s.observed = rec, true
	s.Registry.mu.Lock()
	s.Registry.view = rec.View
	s.Registry.mu.Unlock()
	s.Registry.CounterFunc(MetricDropped, "",
		"Events discarded because they were emitted after the recorder closed.",
		rec.Dropped)
}

// Serve binds addr and starts the HTTP server over this service's
// registry, stream and analyzers. ObserveRecorder must have been
// called first.
func (s *Service) Serve(addr string) (*Server, error) {
	if !s.observed {
		return nil, errors.New("obshttp: Serve before ObserveRecorder (the handlers read the sinks through the recorder)")
	}
	srv := newServer(s)
	if err := srv.Listen(addr); err != nil {
		return nil, err
	}
	return srv, nil
}

// DefaultTopK is the /slow ring capacity of NewService(0).
const DefaultTopK = 16

// metricsSink is the service's own fold of the event stream: events by
// kind, completed transactions by op, the abort, retry, NACK and
// retry-exhaustion counts, the per-phase and per-bus-op stall
// histograms, and the /slow ring of the slowest transactions. The
// Recorder calls it one event at a time, and the registry and /slow
// read it inside the recorder's View.
type metricsSink struct {
	events  [obs.NumKinds]int64
	txOps   [obs.NumOps]int64
	aborts  int64
	retries int64
	nacks   int64
	exh     int64
	phases  [obs.NumPhases]obs.Histogram
	stall   obs.Histogram
	topK    int
	slow    slowHeap // min-heap by Dur, at most topK spans
}

func newMetricsSink(reg *Registry, topK int) *metricsSink {
	if topK <= 0 {
		topK = DefaultTopK
	}
	m := &metricsSink{topK: topK}
	reg.FamilyFunc(MetricEvents, "counter", "Events by kind.", func(add func(string, int64)) {
		for k, n := range m.events {
			if n > 0 {
				add(fmt.Sprintf("kind=%q", obs.Kind(k)), n)
			}
		}
	})
	reg.FamilyFunc(MetricTransactions, "counter", "Completed bus transactions by data-phase op.",
		func(add func(string, int64)) {
			for op, n := range m.txOps {
				if n > 0 {
					add(fmt.Sprintf("op=%q", obs.Op(op)), n)
				}
			}
		})
	for _, c := range []struct {
		name, help string
		n          *int64
	}{
		{MetricAborts, "BS aborts of bus transaction attempts.", &m.aborts},
		{MetricRetries, "BS abort/retry rounds across all transactions.", &m.retries},
		{MetricNacks, "Split-mode NACKs: address tenures bounced because the pending table was full.", &m.nacks},
		{MetricRetryExhausted, "Transactions that gave up after the BS abort/retry bound (ErrTooManyRetries).", &m.exh},
	} {
		reg.FamilyFunc(c.name, "counter", c.help, func(add func(string, int64)) { add("", *c.n) })
	}
	for ph, name := range obs.PhaseNames {
		reg.Summary(MetricPhaseLatency, fmt.Sprintf("phase=%q", name),
			"Per-phase bus transaction latency in simulated ns.", func() obs.Histogram { return m.phases[ph] })
	}
	reg.Summary(MetricStall, "", "Per-bus-op processor stall in simulated ns.",
		func() obs.Histogram { return m.stall })
	return m
}

// Consume implements obs.Sink.
func (m *metricsSink) Consume(e *obs.Event) {
	m.events[e.Kind]++
	switch e.Kind {
	case obs.KindTx:
		op := e.Op
		if op == 0 {
			op = obs.OpAddr
		}
		m.txOps[op]++
		m.retries += int64(e.Retries)
		span, _ := obs.SpanFromEvent(e)
		for ph, v := range span.Phases {
			// Arb, Addr and Data are paid by every transaction, so zero
			// is a real sample ("no wait"); the remaining phases only
			// happened when they cost something — a zero there would
			// skew the distribution with not-applicable entries.
			if ph > obs.PhaseData && v == 0 {
				continue
			}
			m.phases[ph].Observe(v)
		}
		if len(m.slow) < m.topK {
			heap.Push(&m.slow, span)
		} else if span.Dur > m.slow[0].Dur {
			m.slow[0] = span
			heap.Fix(&m.slow, 0)
		}
	case obs.KindAbort:
		m.aborts++
	case obs.KindStall:
		m.stall.Observe(e.Dur)
	case obs.KindNack:
		m.nacks++
	case obs.KindRetryExhausted:
		m.exh++
	}
}

// Flush implements obs.Sink.
func (m *metricsSink) Flush() error { return nil }

// slowest returns the retained slowest transactions, slowest first.
func (m *metricsSink) slowest() []obs.TxSpan {
	out := append([]obs.TxSpan(nil), m.slow...)
	sort.Slice(out, func(i, j int) bool { return out[i].Dur > out[j].Dur })
	return out
}

// slowHeap is a min-heap of spans by duration, so the root is the
// cheapest retained span — the one a slower newcomer evicts.
type slowHeap []obs.TxSpan

func (h slowHeap) Len() int           { return len(h) }
func (h slowHeap) Less(i, j int) bool { return h[i].Dur < h[j].Dur }
func (h slowHeap) Swap(i, j int)      { h[i], h[j] = h[j], h[i] }
func (h *slowHeap) Push(x any)        { *h = append(*h, x.(obs.TxSpan)) }
func (h *slowHeap) Pop() any          { old := *h; x := old[len(old)-1]; *h = old[:len(old)-1]; return x }
