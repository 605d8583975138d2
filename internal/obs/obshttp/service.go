package obshttp

import (
	"errors"
	"fmt"
	"strings"

	"futurebus/internal/obs"
	"futurebus/internal/obs/causal"
	"futurebus/internal/obs/coherence"
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
// registry, the SSE event stream, the phase-attribution sink, the
// causal, coherence, saturation and (optionally) invariant analyzers,
// and a registry-feeding event sink. Attach Sinks() to a Recorder,
// name it with ObserveRecorder, then Serve to expose it all over HTTP.
//
// The analyzers are the same single-goroutine sinks fbt causal, lens
// and watch replay offline, attached straight to the recorder. Every
// endpoint and every /metrics callback that reads one does so inside
// the recorder's View, so a served document covers every event emitted
// before the request; other readers of these fields do the same while
// the recorder runs.
type Service struct {
	Registry  *Registry
	Stream    *EventStream
	Attr      *obs.AttributionSink
	Causal    *causal.Analyzer
	Coherence *coherence.Analyzer
	// Perf is the saturation-telemetry sink: /perf serves its snapshot
	// and the registry carries its native latency histograms and
	// per-shard queue gauges.
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

// NewService builds a service with an attribution ring of topK slowest
// transactions (0 = obs.DefaultTopK).
func NewService(topK int) *Service {
	s := &Service{
		Registry:  NewRegistry(),
		Stream:    NewEventStream(),
		Attr:      obs.NewAttributionSink(topK),
		Causal:    &causal.Analyzer{},
		Coherence: &coherence.Analyzer{},
	}
	s.metrics = newMetricsSink(s.Registry)
	s.Perf = NewPerfSink(s.Registry)
	s.Registry.CounterFunc(MetricCoherenceOwnershipMoves, "",
		"Line ownership migrating directly from one cache to another.", func() int64 {
			return s.coherenceTotals().OwnershipMoves
		})
	s.Registry.CounterFunc(MetricCoherenceReadSource, `source="cache"`,
		"Completed bus reads by who supplied the line.", func() int64 {
			return s.coherenceTotals().CacheSourced
		})
	s.Registry.CounterFunc(MetricCoherenceReadSource, `source="memory"`,
		"Completed bus reads by who supplied the line.", func() int64 {
			return s.coherenceTotals().MemSourced
		})
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

func (s *Service) coherenceTotals() (t coherence.Totals) {
	s.rec.View(func() { t = s.Coherence.Totals() })
	return t
}

// EnableWatch attaches the runtime invariant monitor to the service:
// Sinks() will include it, /violations serves its report, and the
// registry gains futurebus_invariant_violations_total plus the
// first-violation latch gauge. Call before Sinks()/Serve. Zero cfg
// fields take the monitor's defaults.
func (s *Service) EnableWatch(cfg watch.Config) *WatchSink {
	if s.Watch != nil {
		return s.Watch
	}
	s.Watch = NewWatchSink(cfg, s.Registry)
	s.Registry.GaugeFunc(MetricInvariantLatch, "",
		"1 once any protocol invariant has been violated, else 0 (latched).", func() float64 {
			var total int64
			s.rec.View(func() { total = s.Watch.Total() })
			if total > 0 {
				return 1
			}
			return 0
		})
	return s.Watch
}

// Sinks returns the obs.Sinks the service needs attached to the
// Recorder, in the order they should run.
func (s *Service) Sinks() []obs.Sink {
	sinks := []obs.Sink{s.metrics, s.Attr, s.Causal, s.Coherence, s.Perf}
	if s.Watch != nil {
		sinks = append(sinks, s.Watch)
	}
	return append(sinks, s.Stream)
}

// ObserveRecorder names the recorder the service's Sinks() are
// attached to: the endpoints and the registry's analyzer callbacks read
// through its View, so call it before Serve (which refuses to start
// without it) and before anything renders the registry. It also
// exposes the recorder's drop telemetry on /metrics:
// obs_events_dropped_total counts events discarded because they were
// emitted after the recorder closed — an instrumentation site outlived
// the recorder (0 on a healthy run; events are never shed while the
// recorder is open). Safe to call with a nil recorder (no events flow,
// and the counter reads 0).
func (s *Service) ObserveRecorder(rec *obs.Recorder) {
	s.rec, s.observed = rec, true
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
	srv := NewServer(s.Registry, s.Stream, s.Attr)
	srv.rec = s.rec
	srv.causal = s.Causal
	srv.coherence = s.Coherence
	srv.watch = s.Watch
	srv.perf = s.Perf
	srv.trend = s.Trend
	if err := srv.Listen(addr); err != nil {
		return nil, err
	}
	return srv, nil
}

// metricsSink feeds the registry from the event stream. The Recorder
// calls it one event at a time, so lazy per-label registration has no
// registration races beyond what Registry already handles.
type metricsSink struct {
	reg    *Registry
	events map[obs.Kind]*Counter
	txOps  map[string]*Counter
	trans  map[[2]string]*Counter
	ctrans map[[3]string]*Counter
	cinv   map[string]*Counter
	aborts *Counter
	retry  *Counter
	nacks  *Counter
	exh    *Counter
	phases [obs.NumPhases]*SummaryMetric
	txLat  *SummaryMetric
	stall  *SummaryMetric
}

func newMetricsSink(reg *Registry) *metricsSink {
	m := &metricsSink{
		reg:    reg,
		events: make(map[obs.Kind]*Counter),
		txOps:  make(map[string]*Counter),
		trans:  make(map[[2]string]*Counter),
		ctrans: make(map[[3]string]*Counter),
		cinv:   make(map[string]*Counter),
		aborts: reg.Counter(MetricAborts, "", "BS aborts of bus transaction attempts."),
		retry:  reg.Counter(MetricRetries, "", "BS abort/retry rounds across all transactions."),
		nacks: reg.Counter(MetricNacks, "",
			"Split-mode NACKs: address tenures bounced because the pending table was full."),
		exh: reg.Counter(MetricRetryExhausted, "",
			"Transactions that gave up after the BS abort/retry bound (ErrTooManyRetries)."),
		txLat: reg.Summary(MetricTxLatency, "", "Per-transaction bus occupancy in simulated ns."),
		stall: reg.Summary(MetricStall, "", "Per-bus-op processor stall in simulated ns."),
	}
	for ph, name := range obs.PhaseNames {
		m.phases[ph] = reg.Summary(MetricPhaseLatency, fmt.Sprintf("phase=%q", name),
			"Per-phase bus transaction latency in simulated ns.")
	}
	return m
}

// Consume implements obs.Sink.
func (m *metricsSink) Consume(e *obs.Event) {
	c, ok := m.events[e.Kind]
	if !ok {
		c = m.reg.Counter(MetricEvents, fmt.Sprintf("kind=%q", e.Kind), "Events by kind.")
		m.events[e.Kind] = c
	}
	c.Inc()

	switch e.Kind {
	case obs.KindTx:
		op := e.Op
		if op == "" {
			op = "A"
		}
		oc, ok := m.txOps[op]
		if !ok {
			oc = m.reg.Counter(MetricTransactions, fmt.Sprintf("op=%q", op),
				"Completed bus transactions by data-phase op.")
			m.txOps[op] = oc
		}
		oc.Inc()
		m.retry.Add(int64(e.Retries))
		m.txLat.Observe(e.Dur)
		if span, ok := obs.SpanFromEvent(e); ok {
			for ph, v := range span.Phases {
				// Same rule as AttributionSink: the always-paid phases
				// count zeros, conditional phases only real samples.
				if ph > obs.PhaseData && v == 0 {
					continue
				}
				m.phases[ph].Observe(v)
			}
		}
	case obs.KindAbort:
		m.aborts.Inc()
	case obs.KindState:
		key := [2]string{e.From, e.To}
		tc, ok := m.trans[key]
		if !ok {
			tc = m.reg.Counter(MetricStateTransitions,
				fmt.Sprintf("from=%q,to=%q", e.From, e.To),
				"Cache-line state transitions.")
			m.trans[key] = tc
		}
		tc.Inc()
		proto := e.Proto
		if proto == "" {
			proto = "unknown"
		}
		ckey := [3]string{proto, e.From, e.To}
		cc, ok := m.ctrans[ckey]
		if !ok {
			cc = m.reg.Counter(MetricCoherenceTransitions,
				fmt.Sprintf("proto=%q,from=%q,to=%q", proto, e.From, e.To),
				"Cache-line state transitions by governing protocol.")
			m.ctrans[ckey] = cc
		}
		cc.Inc()
		if e.To == "I" && strings.HasPrefix(e.Cause, "snoop-") {
			ic, ok := m.cinv[proto]
			if !ok {
				ic = m.reg.Counter(MetricCoherenceInvalidations,
					fmt.Sprintf("proto=%q", proto),
					"Snoop-caused transitions to Invalid by protocol.")
				m.cinv[proto] = ic
			}
			ic.Inc()
		}
	case obs.KindStall:
		m.stall.Observe(e.Dur)
	case obs.KindNack:
		m.nacks.Inc()
	case obs.KindRetryExhausted:
		m.exh.Inc()
	}
}

// Flush implements obs.Sink.
func (m *metricsSink) Flush() error { return nil }
