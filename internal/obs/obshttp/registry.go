// Package obshttp is the live-observability service of the simulator:
// a lightweight metrics registry with Prometheus text-format
// exposition, a server-sent-events tail of the obs event stream, and
// an embedded net/http server exposing /metrics, /healthz, /events,
// /slow and /debug/pprof — so a multi-hour sweep can be scraped and
// tailed mid-flight instead of being a black box until it exits.
//
// The package deliberately implements the exposition format itself
// (the text format is a page of code) rather than depending on the
// Prometheus client library: the simulator's metric needs are atomic
// counters, gauge callbacks, and the log-bucketed obs.Histogram
// re-exposed either as a summary (p50/p90/p95/p99/p999 quantiles) or
// as a native cumulative histogram (_bucket/_sum/_count) so scrapers
// can aggregate and compute quantiles server-side.
package obshttp

import (
	"fmt"
	"io"
	"math"
	"sort"
	"strings"
	"sync"
	"sync/atomic"

	"futurebus/internal/obs"
)

// Counter is a monotonically increasing metric, safe from any
// goroutine (the concurrent engine's goroutine-per-board emitters
// update counters through the recorder's sinks, one event at a time,
// but gauges and direct instrumentation may come from anywhere).
type Counter struct{ v atomic.Int64 }

// Add increments the counter by d (negative deltas are a bug; they are
// applied anyway so the inconsistency is visible rather than hidden).
func (c *Counter) Add(d int64) { c.v.Add(d) }

// Inc increments the counter by one.
func (c *Counter) Inc() { c.v.Add(1) }

// Value returns the current count.
func (c *Counter) Value() int64 { return c.v.Load() }

// SummaryMetric wraps an obs.Histogram as a concurrency-safe
// Prometheus summary: quantile series plus _sum and _count.
type SummaryMetric struct {
	mu sync.Mutex
	h  obs.Histogram
}

// Observe records one sample.
func (s *SummaryMetric) Observe(v int64) {
	s.mu.Lock()
	s.h.Observe(v)
	s.mu.Unlock()
}

// Summary digests the distribution.
func (s *SummaryMetric) Summary() obs.Summary {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.h.Summary()
}

// HistogramMetric wraps an obs.Histogram as a native Prometheus
// histogram: cumulative _bucket{le="…"} series plus _sum and _count.
// Unlike SummaryMetric's pre-digested quantiles, the buckets let a
// scraper aggregate across instances and compute any quantile with
// histogram_quantile(). Bucket boundaries are the log buckets of
// obs.Histogram: le = 2^i − 1 for each non-empty power-of-two bucket.
type HistogramMetric struct {
	mu sync.Mutex
	h  obs.Histogram
}

// Observe records one sample.
func (m *HistogramMetric) Observe(v int64) {
	m.mu.Lock()
	m.h.Observe(v)
	m.mu.Unlock()
}

// snapshot copies the bucket counts, sum and count under the lock.
func (m *HistogramMetric) snapshot() (buckets []int64, sum, count int64) {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.h.Buckets(), m.h.Sum(), m.h.Count()
}

// Summary digests the distribution (the /perf text view reuses it).
func (m *HistogramMetric) Summary() obs.Summary {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.h.Summary()
}

// series is one labelled time series within a family.
type series struct {
	labels  string // rendered label set: `phase="arb"` (no braces), "" = unlabelled
	ctr     *Counter
	ctrFunc func() int64
	gauge   func() float64
	sum     *SummaryMetric
	histo   *HistogramMetric
}

// family is one metric name with its TYPE/HELP header and series.
type family struct {
	name string
	typ  string // "counter", "gauge", "summary", "histogram"
	help string
	ser  []*series
}

// Registry holds metric families and renders them in the Prometheus
// text exposition format. Registration methods are idempotent on
// (name, labels): re-registering returns the existing metric, so
// event-driven sinks can register lazily per label value.
type Registry struct {
	mu   sync.Mutex
	fams map[string]*family
}

// NewRegistry creates an empty registry.
func NewRegistry() *Registry {
	return &Registry{fams: make(map[string]*family)}
}

func (r *Registry) familyLocked(name, typ, help string) *family {
	f, ok := r.fams[name]
	if !ok {
		f = &family{name: name, typ: typ, help: help}
		r.fams[name] = f
	} else if f.typ != typ {
		panic(fmt.Sprintf("obshttp: metric %s re-registered as %s (was %s)", name, typ, f.typ))
	}
	return f
}

func (f *family) seriesLocked(labels string) (*series, bool) {
	for _, s := range f.ser {
		if s.labels == labels {
			return s, true
		}
	}
	s := &series{labels: labels}
	f.ser = append(f.ser, s)
	return s, false
}

// Counter registers (or finds) a counter. labels is a rendered label
// set like `op="R"` or empty.
func (r *Registry) Counter(name, labels, help string) *Counter {
	r.mu.Lock()
	defer r.mu.Unlock()
	s, ok := r.familyLocked(name, "counter", help).seriesLocked(labels)
	if !ok {
		s.ctr = &Counter{}
	}
	return s.ctr
}

// CounterFunc registers a counter whose value is pulled from fn at
// exposition time — for monotonic totals another subsystem already
// tracks (e.g. the Recorder's dropped-event count). fn must be safe to
// call from the HTTP handler goroutine at any moment.
func (r *Registry) CounterFunc(name, labels, help string, fn func() int64) {
	r.mu.Lock()
	defer r.mu.Unlock()
	s, _ := r.familyLocked(name, "counter", help).seriesLocked(labels)
	s.ctrFunc = fn
}

// GaugeFunc registers a gauge whose value is pulled from fn at
// exposition time. fn must be safe to call from the HTTP handler
// goroutine at any moment.
func (r *Registry) GaugeFunc(name, labels, help string, fn func() float64) {
	r.mu.Lock()
	defer r.mu.Unlock()
	s, _ := r.familyLocked(name, "gauge", help).seriesLocked(labels)
	s.gauge = fn
}

// Summary registers (or finds) a summary metric.
func (r *Registry) Summary(name, labels, help string) *SummaryMetric {
	r.mu.Lock()
	defer r.mu.Unlock()
	s, ok := r.familyLocked(name, "summary", help).seriesLocked(labels)
	if !ok {
		s.sum = &SummaryMetric{}
	}
	return s.sum
}

// Histogram registers (or finds) a native histogram metric.
func (r *Registry) Histogram(name, labels, help string) *HistogramMetric {
	r.mu.Lock()
	defer r.mu.Unlock()
	s, ok := r.familyLocked(name, "histogram", help).seriesLocked(labels)
	if !ok {
		s.histo = &HistogramMetric{}
	}
	return s.histo
}

// WritePrometheus renders every family in the text exposition format,
// sorted by family name for stable scrapes.
func (r *Registry) WritePrometheus(w io.Writer) error {
	r.mu.Lock()
	fams := make([]*family, 0, len(r.fams))
	for _, f := range r.fams {
		fams = append(fams, f)
	}
	r.mu.Unlock()
	sort.Slice(fams, func(i, j int) bool { return fams[i].name < fams[j].name })

	var b strings.Builder
	for _, f := range fams {
		if f.help != "" {
			fmt.Fprintf(&b, "# HELP %s %s\n", f.name, f.help)
		}
		fmt.Fprintf(&b, "# TYPE %s %s\n", f.name, f.typ)
		// Take the series snapshot under the registry lock so lazy
		// registrations during rendering cannot tear the slice.
		r.mu.Lock()
		ser := append([]*series(nil), f.ser...)
		r.mu.Unlock()
		for _, s := range ser {
			switch {
			case s.ctr != nil:
				fmt.Fprintf(&b, "%s %d\n", renderName(f.name, s.labels), s.ctr.Value())
			case s.ctrFunc != nil:
				fmt.Fprintf(&b, "%s %d\n", renderName(f.name, s.labels), s.ctrFunc())
			case s.gauge != nil:
				fmt.Fprintf(&b, "%s %s\n", renderName(f.name, s.labels), formatFloat(s.gauge()))
			case s.sum != nil:
				writeSummary(&b, f.name, s.labels, s.sum.Summary())
			case s.histo != nil:
				buckets, sum, count := s.histo.snapshot()
				writeHistogram(&b, f.name, s.labels, buckets, sum, count)
			}
		}
	}
	_, err := io.WriteString(w, b.String())
	return err
}

// writeHistogram renders one native-histogram series: the cumulative
// _bucket counts with le = 2^i − 1 (the log-bucket upper bounds), the
// mandatory le="+Inf" terminator, then _sum and _count.
func writeHistogram(b *strings.Builder, name, labels string, buckets []int64, sum, count int64) {
	withQ := func(extra string) string {
		if labels == "" {
			return extra
		}
		return labels + "," + extra
	}
	var cum int64
	for i, c := range buckets {
		cum += c
		le := int64(1)<<uint(i) - 1
		fmt.Fprintf(b, "%s %d\n", renderName(name+"_bucket", withQ(fmt.Sprintf("le=%q", fmt.Sprint(le)))), cum)
	}
	fmt.Fprintf(b, "%s %d\n", renderName(name+"_bucket", withQ(`le="+Inf"`)), count)
	fmt.Fprintf(b, "%s %d\n", renderName(name+"_sum", labels), sum)
	fmt.Fprintf(b, "%s %d\n", renderName(name+"_count", labels), count)
}

// writeSummary renders one summary series: the p50/p90/p95/p99/p999
// quantiles (upper bounds of the log buckets) plus _sum and _count.
func writeSummary(b *strings.Builder, name, labels string, s obs.Summary) {
	for _, q := range [...]struct {
		q string
		v int64
	}{{"0.5", s.P50}, {"0.9", s.P90}, {"0.95", s.P95}, {"0.99", s.P99}, {"0.999", s.P999}} {
		ql := fmt.Sprintf("quantile=%q", q.q)
		if labels != "" {
			ql = labels + "," + ql
		}
		fmt.Fprintf(b, "%s %d\n", renderName(name, ql), q.v)
	}
	fmt.Fprintf(b, "%s %s\n", renderName(name+"_sum", labels), formatFloat(s.Mean*float64(s.Count)))
	fmt.Fprintf(b, "%s %d\n", renderName(name+"_count", labels), s.Count)
}

func renderName(name, labels string) string {
	if labels == "" {
		return name
	}
	return name + "{" + labels + "}"
}

// formatFloat renders a float the way Prometheus expects: integers
// without an exponent, NaN/Inf spelled out.
func formatFloat(v float64) string {
	switch {
	case math.IsNaN(v):
		return "NaN"
	case math.IsInf(v, 1):
		return "+Inf"
	case math.IsInf(v, -1):
		return "-Inf"
	case v == math.Trunc(v) && math.Abs(v) < 1e15:
		return fmt.Sprintf("%d", int64(v))
	}
	return fmt.Sprintf("%g", v)
}
