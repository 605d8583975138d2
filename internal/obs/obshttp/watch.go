package obshttp

import (
	"fmt"
	"sync"

	"futurebus/internal/obs"
	"futurebus/internal/obs/watch"
)

// watchBatch mirrors coherenceBatch: WatchSink buffers events in
// Consume and folds them into the monitor once per batch, so the hot
// path stays lock-free and live snapshots lag the stream by at most one
// batch (Recorder.Flush forces an exact cut).
const watchBatch = 256

// WatchSink adapts watch.Monitor (single-goroutine, like
// coherence.Analyzer) for concurrent snapshotting from HTTP handlers:
// Consume runs where the recorder delivers, Report/Total on any handler
// goroutine, with a mutex between them. It also syncs the monitor's
// per-(invariant, proto) counters into the metrics registry after every
// fold, exposing futurebus_invariant_violations_total on /metrics.
type WatchSink struct {
	// Batch state of Consume and Flush, touched without the lock.
	buf []obs.Event

	mu  sync.Mutex
	mon *watch.Monitor

	// Metric sync state (Consume and Flush only): the registered counter
	// and last pushed value per (invariant, proto) label pair.
	reg    *Registry
	ctrs   map[watchLabel]*Counter
	pushed map[watchLabel]int64
}

type watchLabel struct {
	inv   watch.Invariant
	proto string
}

// NewWatchSink builds a watch sink; zero cfg fields take the monitor's
// defaults. reg may be nil (no metrics export).
func NewWatchSink(cfg watch.Config, reg *Registry) *WatchSink {
	return &WatchSink{
		mon:    watch.New(cfg),
		reg:    reg,
		ctrs:   make(map[watchLabel]*Counter),
		pushed: make(map[watchLabel]int64),
	}
}

// relevant mirrors the kinds the monitor folds or remembers as context;
// everything else is skipped before buffering.
func relevant(k obs.Kind) bool {
	switch k {
	case obs.KindState, obs.KindTx, obs.KindEpoch, obs.KindAbort,
		obs.KindRecover, obs.KindCapture:
		return true
	}
	return false
}

// Consume implements obs.Sink.
func (s *WatchSink) Consume(e *obs.Event) {
	if !relevant(e.Kind) {
		return
	}
	if s.buf == nil {
		s.buf = make([]obs.Event, 0, watchBatch)
	}
	s.buf = append(s.buf, *e)
	if len(s.buf) >= watchBatch {
		s.fold()
	}
}

// fold replays the buffered batch into the monitor under the lock and
// pushes counter deltas to the registry. Only Consume and Flush call
// it.
func (s *WatchSink) fold() {
	s.mu.Lock()
	for i := range s.buf {
		s.mon.Consume(&s.buf[i])
	}
	var counts []watch.Count
	if s.reg != nil {
		counts = s.mon.Counts()
	}
	s.mu.Unlock()
	s.buf = s.buf[:0]
	for _, c := range counts {
		key := watchLabel{c.Invariant, c.Proto}
		ctr, ok := s.ctrs[key]
		if !ok {
			ctr = s.reg.Counter(MetricInvariantViolations,
				fmt.Sprintf("invariant=%q,proto=%q", c.Invariant, c.Proto),
				"Runtime invariant violations by invariant and protocol.")
			s.ctrs[key] = ctr
		}
		if d := c.N - s.pushed[key]; d > 0 {
			ctr.Add(d)
			s.pushed[key] = c.N
		}
	}
}

// Flush implements obs.Sink: it folds the partial batch so snapshots
// taken after Recorder.Flush see the complete stream.
func (s *WatchSink) Flush() error {
	if len(s.buf) > 0 {
		s.fold()
	}
	return nil
}

// Report snapshots the monitor (the /violations document).
func (s *WatchSink) Report() *watch.Report {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.mon.Report()
}

// Total returns the violations detected so far (cheap; pulled on every
// /metrics scrape by the first-violation latch).
func (s *WatchSink) Total() int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.mon.Total()
}

// First returns the first violation, or nil while the run is clean.
func (s *WatchSink) First() *watch.Violation {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.mon.First()
}
