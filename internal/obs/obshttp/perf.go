package obshttp

import (
	"fmt"

	"futurebus/internal/obs"
	"futurebus/internal/obs/perf"
)

// Perf metric families exposed on /metrics when a PerfSink is
// attached. All four latency families are native Prometheus histograms
// (cumulative _bucket/_sum/_count over the log buckets); the queue
// families are gauges per fabric shard.
const (
	MetricArbWaitHist = "futurebus_arb_wait_ns"
	MetricTenureHist  = "futurebus_bus_tenure_ns"
	MetricRetryHist   = "futurebus_retry_backoff_ns"
	MetricMemSvcHist  = "futurebus_mem_service_ns"
	MetricQueueDepth  = "futurebus_arb_queue_depth"
	MetricQueuePeak   = "futurebus_arb_queue_peak"
)

// perfFamilies maps the perf.Sink metric names to registry families.
var perfFamilies = []struct {
	metric string // perf.Metric* key
	name   string // registry family
	help   string
}{
	{perf.MetricArbWait, MetricArbWaitHist, "Arbitration wait before a grant in simulated ns (waiting episodes only)."},
	{perf.MetricTenure, MetricTenureHist, "Per-transaction bus tenure (occupancy incl. aborted attempts) in simulated ns."},
	{perf.MetricRetry, MetricRetryHist, "BS abort/retry backoff per suffering transaction in simulated ns."},
	{perf.MetricMemSvc, MetricMemSvcHist, "Memory first-word service time of memory-sourced transactions in simulated ns."},
}

// PerfSink is the service's saturation-telemetry sink: /perf serves
// its cumulative snapshot, and the registry renders the same
// cumulative window — the four latency histograms and each shard's
// latest and peak arbitration queue depth.
type PerfSink struct{ *perf.Sink }

// NewPerfSink builds a perf sink whose cumulative window reg renders
// (nil = no metric export: fbsim -perf without -serve, and the
// overhead benchmark).
func NewPerfSink(reg *Registry) *PerfSink {
	s := &PerfSink{perf.NewSink(0)}
	if reg == nil {
		return s
	}
	for _, f := range perfFamilies {
		reg.Histogram(f.name, "", f.help, func() obs.Histogram { return s.Latency(f.metric) })
	}
	queue := func(name, help string, v func(perf.QueueDepth) int64) {
		reg.FamilyFunc(name, "gauge", help, func(add func(string, int64)) {
			for _, q := range s.QueueDepths() {
				add(fmt.Sprintf("bus=%q", fmt.Sprint(q.Bus)), v(q))
			}
		})
	}
	queue(MetricQueueDepth, "Arbitration queue depth at the most recent grant, per fabric shard.",
		func(q perf.QueueDepth) int64 { return q.Last })
	queue(MetricQueuePeak, "Deepest arbitration queue observed, per fabric shard.",
		func(q perf.QueueDepth) int64 { return q.Peak })
	return s
}

// PerfSink exposes the wrapped saturation sink (perf.FindSink unwraps
// through this, so engines fill Metrics.Perf from a served run too).
func (s *PerfSink) PerfSink() *perf.Sink { return s.Sink }
