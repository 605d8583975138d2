package obshttp

import (
	"sync"

	"futurebus/internal/obs"
	"futurebus/internal/obs/coherence"
)

// coherenceBatch is how many events CoherenceSink buffers before
// folding them into the analyzer. Only Consume and Flush touch the
// buffer, and the recorder never runs two of those at once, so Consume
// stays lock-free on the hot path; the mutex is only taken once per
// batch (and by snapshot readers). Live snapshots may therefore lag the
// stream by up to one batch — call Recorder.Flush first when an exact
// cut matters.
const coherenceBatch = 256

// CoherenceSink adapts coherence.Analyzer (which assumes one Consume
// at a time, as the recorder delivers) for concurrent snapshotting from
// HTTP handlers: Consume runs where the recorder delivers, Analyze and
// Totals on any handler goroutine, with a mutex between them. The
// /coherence endpoint snapshots per request, so the simulation never
// pays for report construction.
type CoherenceSink struct {
	// Batch state of Consume and Flush, touched without the lock.
	// Events are digested on arrival; kinds the analyzer ignores are
	// not buffered at all — only their count and time horizon carry
	// over, via AddSpan at fold time.
	buf     []coherence.Compact
	events  int64
	spanMax int64

	mu sync.Mutex
	a  coherence.Analyzer
}

// Consume implements obs.Sink.
func (s *CoherenceSink) Consume(e *obs.Event) {
	s.events++
	if ts := e.TS + e.Dur; ts > s.spanMax {
		s.spanMax = ts
	}
	if c, ok := coherence.Digest(e); ok {
		if s.buf == nil {
			s.buf = make([]coherence.Compact, 0, coherenceBatch)
		}
		s.buf = append(s.buf, c)
		if len(s.buf) >= coherenceBatch {
			s.fold()
		}
	}
}

// fold replays the buffered batch into the analyzer under the lock.
// Only Consume and Flush call it.
func (s *CoherenceSink) fold() {
	s.mu.Lock()
	for i := range s.buf {
		s.a.ConsumeCompact(&s.buf[i])
	}
	s.a.AddSpan(s.events, s.spanMax)
	s.mu.Unlock()
	s.buf = s.buf[:0]
	s.events = 0
}

// Flush implements obs.Sink: it folds the partial batch so snapshots
// taken after Recorder.Flush see the complete stream.
func (s *CoherenceSink) Flush() error {
	if len(s.buf) > 0 || s.events > 0 {
		s.fold()
	}
	return nil
}

// Analyze snapshots the coherence aggregates of the run so far.
func (s *CoherenceSink) Analyze() *coherence.Analysis {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.a.Analyze(0)
}

// Totals returns the cheap running totals (for CounterFunc metrics,
// which are pulled on every /metrics scrape).
func (s *CoherenceSink) Totals() coherence.Totals {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.a.Totals()
}
