package obshttp

import (
	"fmt"

	"futurebus/internal/obs/watch"
)

// WatchSink is the service's runtime invariant monitor: a watch.Monitor
// whose counts the registry renders as the
// futurebus_invariant_violations_total{invariant,proto} counters and
// the first-violation latch gauge. Like every analyzer the service
// serves, it is read through Recorder.View while the recorder runs.
type WatchSink struct{ *watch.Monitor }

// NewWatchSink builds a watch sink whose counts reg renders; zero cfg
// fields take the monitor's defaults. reg may be nil (no metrics
// export).
func NewWatchSink(cfg watch.Config, reg *Registry) *WatchSink {
	s := &WatchSink{watch.New(cfg)}
	if reg == nil {
		return s
	}
	reg.FamilyFunc(MetricInvariantViolations, "counter",
		"Runtime invariant violations by invariant and protocol.", func(add func(string, int64)) {
			for _, c := range s.Counts() {
				add(fmt.Sprintf("invariant=%q,proto=%q", c.Invariant, c.Proto), c.N)
			}
		})
	reg.FamilyFunc(MetricInvariantLatch, "gauge",
		"1 once any protocol invariant has been violated, else 0 (latched).", func(add func(string, int64)) {
			add("", min(s.Total(), 1))
		})
	return s
}
