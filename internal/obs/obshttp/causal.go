package obshttp

import (
	"sync"

	"futurebus/internal/obs"
	"futurebus/internal/obs/causal"
)

// CausalSink makes a causal.Analyzer safe to feed from the Recorder
// while the /causal HTTP handler snapshots it: Consume and Analyze
// serialize on one mutex. Analysis cost is paid per request
// (the analyzer itself only folds events in-loop), so a heavy run stays
// cheap until somebody actually asks.
type CausalSink struct {
	mu sync.Mutex
	a  causal.Analyzer
}

// Consume implements obs.Sink.
func (c *CausalSink) Consume(e *obs.Event) {
	c.mu.Lock()
	c.a.Consume(e)
	c.mu.Unlock()
}

// Flush implements obs.Sink.
func (c *CausalSink) Flush() error { return nil }

// Analyze snapshots the dependency DAG and critical path reconstructed
// from events consumed so far.
func (c *CausalSink) Analyze() *causal.Analysis {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.a.Analyze()
}
