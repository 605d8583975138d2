package obshttp

import (
	"fmt"

	"futurebus/internal/obs"
	"futurebus/internal/obs/watch"
)

// WatchSink is the service's runtime invariant monitor: a watch.Monitor
// that also brings the registry's futurebus_invariant_violations_total
// {invariant,proto} counters up to date whenever it detects a
// violation. Like every analyzer the service serves, it is read through
// Recorder.View while the recorder runs.
type WatchSink struct {
	*watch.Monitor

	// Registry bridge (Consume only): the registered counter per
	// (invariant, proto) label pair, and the monitor's total when they
	// were last brought up to date.
	reg    *Registry
	ctrs   map[watchLabel]*Counter
	pushed int64
}

type watchLabel struct {
	inv   watch.Invariant
	proto string
}

// NewWatchSink builds a watch sink; zero cfg fields take the monitor's
// defaults. reg may be nil (no metrics export).
func NewWatchSink(cfg watch.Config, reg *Registry) *WatchSink {
	return &WatchSink{Monitor: watch.New(cfg), reg: reg, ctrs: make(map[watchLabel]*Counter)}
}

// Consume implements obs.Sink.
func (s *WatchSink) Consume(e *obs.Event) {
	s.Monitor.Consume(e)
	if s.reg != nil && s.Total() != s.pushed {
		s.push()
	}
}

// push adds each (invariant, proto) count's growth since the last push
// to its registry counter.
func (s *WatchSink) push() {
	s.pushed = s.Total()
	for _, c := range s.Counts() {
		key := watchLabel{c.Invariant, c.Proto}
		ctr, ok := s.ctrs[key]
		if !ok {
			ctr = s.reg.Counter(MetricInvariantViolations,
				fmt.Sprintf("invariant=%q,proto=%q", c.Invariant, c.Proto),
				"Runtime invariant violations by invariant and protocol.")
			s.ctrs[key] = ctr
		}
		ctr.Add(c.N - ctr.Value())
	}
}
