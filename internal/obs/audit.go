package obs

import (
	"fmt"
	"strings"
	"sync"
)

// LineAuditSink keeps the trail of every event that touched one
// address — the "why is this line Owned here?" view. It retains the
// most recent AuditDepth events; older history is discarded, which
// keeps long runs bounded while the recent causal chain (the part a
// divergence investigation needs) stays intact.
type LineAuditSink struct {
	mu    sync.Mutex
	addr  uint64
	trail []Event
}

// AuditDepth is the number of recent events a LineAuditSink retains.
const AuditDepth = 128

// NewLineAuditSink creates an audit sink for the line at addr.
func NewLineAuditSink(addr uint64) *LineAuditSink {
	return &LineAuditSink{addr: addr}
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
	if e.Addr != s.addr || !auditedKind(e.Kind) {
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if len(s.trail) >= AuditDepth {
		// Drop the oldest half in one move instead of shifting per
		// event; amortised O(1) per append.
		s.trail = s.trail[:copy(s.trail, s.trail[len(s.trail)-AuditDepth/2:])]
	}
	s.trail = append(s.trail, *e)
}

// Flush implements Sink.
func (s *LineAuditSink) Flush() error { return nil }

// LineHistory returns the retained events, oldest first.
func (s *LineAuditSink) LineHistory() []Event {
	s.mu.Lock()
	defer s.mu.Unlock()
	return append([]Event(nil), s.trail...)
}

// Explain renders the line's history as a human-readable audit trail.
func (s *LineAuditSink) Explain() string {
	var b strings.Builder
	fmt.Fprintf(&b, "line %#x:\n", s.addr)
	for _, e := range s.LineHistory() {
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
