package obs

import (
	"fmt"
	"strings"
	"sync"
)

// LineAuditSink keeps a bounded per-line trail of every event that
// touched each address — the "why is this line Owned here?" view. It
// retains the most recent MaxPerLine events per address; older history
// is discarded, which keeps long runs bounded while the recent causal
// chain (the part a divergence investigation needs) stays intact.
type LineAuditSink struct {
	mu      sync.Mutex
	perLine map[uint64][]Event
	max     int
}

// DefaultAuditDepth is the per-line retention of NewLineAuditSink.
const DefaultAuditDepth = 128

// NewLineAuditSink creates an audit sink retaining maxPerLine events
// per address (0 = DefaultAuditDepth).
func NewLineAuditSink(maxPerLine int) *LineAuditSink {
	if maxPerLine <= 0 {
		maxPerLine = DefaultAuditDepth
	}
	return &LineAuditSink{perLine: make(map[uint64][]Event), max: maxPerLine}
}

// audited reports whether kind is part of a line's causal history.
func auditedKind(k Kind) bool {
	switch k {
	case KindTx, KindAbort, KindRecover, KindState, KindIntervene,
		KindUpdate, KindCapture, KindEvict, KindMemWrite:
		return true
	}
	return false
}

// Consume implements Sink.
func (s *LineAuditSink) Consume(e *Event) {
	if !auditedKind(e.Kind) {
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	trail := s.perLine[e.Addr]
	if len(trail) >= s.max {
		// Drop the oldest half in one move instead of shifting per
		// event; amortised O(1) per append.
		n := copy(trail, trail[len(trail)-s.max/2:])
		trail = trail[:n]
	}
	s.perLine[e.Addr] = append(trail, *e)
}

// Flush implements Sink.
func (s *LineAuditSink) Flush() error { return nil }

// LineHistory returns the retained events for a line, oldest first.
func (s *LineAuditSink) LineHistory(addr uint64) []Event {
	s.mu.Lock()
	defer s.mu.Unlock()
	return append([]Event(nil), s.perLine[addr]...)
}

// Explain renders a line's history as a human-readable audit trail.
func (s *LineAuditSink) Explain(addr uint64) string {
	var b strings.Builder
	fmt.Fprintf(&b, "line %#x:\n", addr)
	for _, e := range s.LineHistory(addr) {
		fmt.Fprintf(&b, "  t=%-8d bus=%d proc=%-2d %-9s", e.TS, e.Bus, e.Proc, e.Kind)
		switch e.Kind {
		case KindTx:
			fmt.Fprintf(&b, " col%d %s CH=%t DI=%t SL=%t retries=%d cost=%dns",
				e.Col, e.Op, e.CH, e.DI, e.SL, e.Retries, e.Dur)
		case KindState:
			from, to := e.Letters()
			fmt.Fprintf(&b, " %s→%s (%s)", from, to, e.Cause)
		}
		b.WriteByte('\n')
	}
	return b.String()
}
