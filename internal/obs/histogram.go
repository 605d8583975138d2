package obs

import (
	"fmt"
	"math/bits"
	"sort"
	"strings"
	"sync"
)

// Histogram is a log-bucketed distribution of non-negative int64
// samples: bucket i holds values whose bit length is i, so buckets are
// powers of two and Observe is two instructions of bookkeeping. It
// replaces totals-only views (BusyNanos, StallNanos) with p50/p95/p99.
type Histogram struct {
	counts   [65]int64
	n        int64
	sum      int64
	min, max int64
}

// Observe records one sample (negatives are clamped to 0).
func (h *Histogram) Observe(v int64) {
	if v < 0 {
		v = 0
	}
	if h.n == 0 || v < h.min {
		h.min = v
	}
	if v > h.max {
		h.max = v
	}
	h.counts[bits.Len64(uint64(v))]++
	h.n++
	h.sum += v
}

// Count returns the number of samples.
func (h *Histogram) Count() int64 { return h.n }

// Sum returns the exact sample sum.
func (h *Histogram) Sum() int64 { return h.sum }

// Buckets returns the log-bucket counts up to (and including) the
// highest non-empty bucket: bucket i holds samples of bit length i,
// i.e. values in [2^(i-1), 2^i-1] (bucket 0 holds exactly 0). The
// obshttp registry renders these as a cumulative Prometheus histogram
// with le = 2^i - 1.
func (h *Histogram) Buckets() []int64 {
	top := -1
	for i, c := range h.counts {
		if c != 0 {
			top = i
		}
	}
	return append([]int64(nil), h.counts[:top+1]...)
}

// Mean returns the exact sample mean.
func (h *Histogram) Mean() float64 {
	if h.n == 0 {
		return 0
	}
	return float64(h.sum) / float64(h.n)
}

// Quantile returns an upper bound for the q-th quantile (0 ≤ q ≤ 1):
// the top of the bucket containing the q·n-th sample. Resolution is
// one power of two, which is what a log-bucketed latency view gives.
func (h *Histogram) Quantile(q float64) int64 {
	if h.n == 0 {
		return 0
	}
	rank := int64(q * float64(h.n))
	if rank >= h.n {
		rank = h.n - 1
	}
	var seen int64
	for i, c := range h.counts {
		seen += c
		if seen > rank {
			if i == 0 {
				return 0
			}
			upper := int64(1)<<uint(i) - 1
			if upper > h.max {
				upper = h.max
			}
			return upper
		}
	}
	return h.max
}

// Summary is the fixed-quantile digest of a Histogram. P90 and P999
// bracket the P95/P99 pair the original sinks reported: the saturation
// telemetry (internal/obs/perf) reads tail latency at p999, which a
// log-bucketed histogram resolves as cheaply as the median.
type Summary struct {
	Count int64   `json:"count"`
	Mean  float64 `json:"mean"`
	Min   int64   `json:"min"`
	P50   int64   `json:"p50"`
	P90   int64   `json:"p90"`
	P95   int64   `json:"p95"`
	P99   int64   `json:"p99"`
	P999  int64   `json:"p999"`
	Max   int64   `json:"max"`
}

// Summary digests the histogram.
func (h *Histogram) Summary() Summary {
	return Summary{
		Count: h.n,
		Mean:  h.Mean(),
		Min:   h.min,
		P50:   h.Quantile(0.50),
		P90:   h.Quantile(0.90),
		P95:   h.Quantile(0.95),
		P99:   h.Quantile(0.99),
		P999:  h.Quantile(0.999),
		Max:   h.max,
	}
}

func (s Summary) String() string {
	return fmt.Sprintf("n=%d mean=%.1f min=%d p50=%d p90=%d p95=%d p99=%d p999=%d max=%d",
		s.Count, s.Mean, s.Min, s.P50, s.P90, s.P95, s.P99, s.P999, s.Max)
}

// Histogram metric names produced by HistogramSink.
const (
	MetricTxLatency = "bus.tx.latency_ns" // per-transaction bus cost
	MetricTxRetries = "bus.tx.retries"    // BS abort/retry rounds per tx
	MetricStall     = "proc.stall_ns"     // per-bus-op master stall
)

// HistogramSink accumulates latency/stall/retry distributions from the
// event stream. Summaries may be read concurrently with draining.
type HistogramSink struct {
	mu    sync.Mutex
	hists [len(histNames)]Histogram // indexed like histNames
}

// histNames are HistogramSink's metrics, in its array order.
var histNames = [...]string{MetricTxLatency, MetricTxRetries, MetricStall}

// NewHistogramSink creates an empty histogram sink.
func NewHistogramSink() *HistogramSink { return &HistogramSink{} }

// Consume implements Sink.
func (s *HistogramSink) Consume(e *Event) {
	s.mu.Lock()
	defer s.mu.Unlock()
	switch e.Kind {
	case KindTx:
		s.hists[0].Observe(e.Dur)
		s.hists[1].Observe(int64(e.Retries))
	case KindStall:
		s.hists[2].Observe(e.Dur)
	}
}

// Flush implements Sink (histograms are pull-only).
func (s *HistogramSink) Flush() error { return nil }

// Summaries digests every metric observed so far.
func (s *HistogramSink) Summaries() map[string]Summary {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make(map[string]Summary, len(histNames))
	for i, name := range histNames {
		if s.hists[i].Count() > 0 {
			out[name] = s.hists[i].Summary()
		}
	}
	return out
}

// Render formats the summaries for terminal output, sorted by name.
func (s *HistogramSink) Render() string {
	sums := s.Summaries()
	names := make([]string, 0, len(sums))
	for n := range sums {
		names = append(names, n)
	}
	sort.Strings(names)
	var b strings.Builder
	for _, n := range names {
		fmt.Fprintf(&b, "%-20s %s\n", n, sums[n])
	}
	return b.String()
}

// FindHistogram returns the first HistogramSink attached to r, or nil.
func FindHistogram(r *Recorder) *HistogramSink {
	for _, s := range r.Sinks() {
		if h, ok := s.(*HistogramSink); ok {
			return h
		}
	}
	return nil
}
