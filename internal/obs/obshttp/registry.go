// Package obshttp is the live-observability service of the simulator:
// a lightweight metrics registry with Prometheus text-format
// exposition, a server-sent-events tail of the obs event stream, and
// an embedded net/http server exposing /metrics, /healthz, /events,
// /slow and /debug/pprof — so a multi-hour sweep can be scraped and
// tailed mid-flight instead of being a black box until it exits.
//
// The package deliberately implements the exposition format itself
// (the text format is a page of code) rather than depending on the
// Prometheus client library. The registry keeps no numbers of its own:
// it reads every series at exposition time, from the sink that folds
// it or from a gauge callback. A sink's log-bucketed obs.Histogram is
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

	"futurebus/internal/obs"
)

// series is one labelled time series within a family, read at
// exposition time from exactly one of its sources.
type series struct {
	labels string // rendered label set: `phase="arb"` (no braces), "" = unlabelled
	ctr    func() int64
	gauge  func() float64
	hist   func() obs.Histogram // a sink's histogram, read inside the view
}

// family is one metric name with its TYPE/HELP header and series.
type family struct {
	name string
	typ  string // "counter", "gauge", "summary", "histogram"
	help string
	ser  []series
	// collect, when set, lists the family's series inside the view.
	collect func(add func(labels string, v int64))
}

// Registry holds metric families and renders them in the Prometheus
// text exposition format. Registering a (name, labels) pair again
// replaces its source.
type Registry struct {
	mu   sync.Mutex
	fams map[string]*family
	// view runs the reads of sink-owned series: Recorder.View once the
	// service observes a recorder, so a scrape covers every event
	// emitted before it.
	view func(func())
}

// NewRegistry creates an empty registry.
func NewRegistry() *Registry {
	return &Registry{fams: make(map[string]*family), view: func(fn func()) { fn() }}
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

func (r *Registry) put(name, typ, help string, s series) {
	r.mu.Lock()
	defer r.mu.Unlock()
	f := r.familyLocked(name, typ, help)
	for i := range f.ser {
		if f.ser[i].labels == s.labels {
			f.ser[i] = s
			return
		}
	}
	f.ser = append(f.ser, s)
}

// CounterFunc registers a counter pulled from fn at exposition time,
// for a total kept outside the sinks (the Recorder's dropped-event
// count). fn runs outside the view and must be safe to call from the
// HTTP handler goroutine at any moment.
func (r *Registry) CounterFunc(name, labels, help string, fn func() int64) {
	r.put(name, "counter", help, series{labels: labels, ctr: fn})
}

// GaugeFunc registers a gauge pulled from fn at exposition time. fn
// runs outside the view — it may take a lock an emitter holds, as
// Bus.Stats takes the arbiter's — and must be safe to call from the
// HTTP handler goroutine at any moment.
func (r *Registry) GaugeFunc(name, labels, help string, fn func() float64) {
	r.put(name, "gauge", help, series{labels: labels, gauge: fn})
}

// Summary registers a summary series — p50/p90/p95/p99/p999 quantile
// series (upper bounds of the log buckets) plus _sum and _count —
// rendered from the histogram read returns. read runs inside the view
// and returns a histogram one sink owns.
func (r *Registry) Summary(name, labels, help string, read func() obs.Histogram) {
	r.put(name, "summary", help, series{labels: labels, hist: read})
}

// Histogram registers a native histogram series rendered from the
// histogram read returns: cumulative _bucket{le="…"} series plus _sum
// and _count. Unlike a summary's pre-digested quantiles, the buckets
// let a scraper aggregate across instances and compute any quantile
// with histogram_quantile(). Bucket boundaries are the log buckets of
// obs.Histogram: le = 2^i − 1 for each bucket up to the highest
// non-empty one. read runs inside the view and returns a histogram one
// sink owns.
func (r *Registry) Histogram(name, labels, help string, read func() obs.Histogram) {
	r.put(name, "histogram", help, series{labels: labels, hist: read})
}

// FamilyFunc registers a counter or gauge family one sink owns whose
// label set is only known at scrape time: collect runs inside the view
// and calls add once per series. A family that adds no series renders
// nothing, not even its header.
func (r *Registry) FamilyFunc(name, typ, help string, collect func(add func(labels string, v int64))) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.familyLocked(name, typ, help).collect = collect
}

// WritePrometheus renders every family in the text exposition format,
// sorted by family name for stable scrapes. The sink-owned series are
// all read inside one view; the callbacks run after it.
func (r *Registry) WritePrometheus(w io.Writer) error {
	r.mu.Lock()
	fams := make([]family, 0, len(r.fams))
	for _, f := range r.fams {
		c := *f
		c.ser = append([]series(nil), f.ser...)
		fams = append(fams, c)
	}
	view := r.view
	r.mu.Unlock()
	sort.Slice(fams, func(i, j int) bool { return fams[i].name < fams[j].name })

	body := make([]strings.Builder, len(fams))
	view(func() {
		for i := range fams {
			fams[i].write(&body[i], true)
		}
	})
	var b strings.Builder
	for i := range fams {
		f := &fams[i]
		f.write(&body[i], false)
		if body[i].Len() == 0 {
			continue
		}
		if f.help != "" {
			fmt.Fprintf(&b, "# HELP %s %s\n", f.name, f.help)
		}
		fmt.Fprintf(&b, "# TYPE %s %s\n", f.name, f.typ)
		b.WriteString(body[i].String())
	}
	_, err := io.WriteString(w, b.String())
	return err
}

// write renders the family's series that are read inside the view
// (inView) or outside it. A collected family's series come out sorted
// by label set.
func (f *family) write(b *strings.Builder, inView bool) {
	if f.collect != nil {
		if !inView {
			return
		}
		type sample struct {
			labels string
			v      int64
		}
		var got []sample
		f.collect(func(labels string, v int64) { got = append(got, sample{labels, v}) })
		sort.Slice(got, func(i, j int) bool { return got[i].labels < got[j].labels })
		for _, s := range got {
			fmt.Fprintf(b, "%s %d\n", renderName(f.name, s.labels), s.v)
		}
		return
	}
	for _, s := range f.ser {
		if (s.hist != nil) != inView {
			continue
		}
		switch {
		case s.ctr != nil:
			fmt.Fprintf(b, "%s %d\n", renderName(f.name, s.labels), s.ctr())
		case s.gauge != nil:
			fmt.Fprintf(b, "%s %s\n", renderName(f.name, s.labels), formatFloat(s.gauge()))
		case f.typ == "summary":
			h := s.hist()
			writeSummary(b, f.name, s.labels, &h)
		default:
			h := s.hist()
			writeHistogram(b, f.name, s.labels, &h)
		}
	}
}

// withLabel appends one label to a rendered label set.
func withLabel(labels, extra string) string {
	if labels == "" {
		return extra
	}
	return labels + "," + extra
}

// writeHistogram renders one native-histogram series: the cumulative
// _bucket counts with le = 2^i − 1 (the log-bucket upper bounds), the
// mandatory le="+Inf" terminator, then _sum and _count.
func writeHistogram(b *strings.Builder, name, labels string, h *obs.Histogram) {
	var cum int64
	for i, c := range h.Buckets() {
		cum += c
		le := int64(1)<<uint(i) - 1
		fmt.Fprintf(b, "%s %d\n", renderName(name+"_bucket", withLabel(labels, fmt.Sprintf("le=%q", fmt.Sprint(le)))), cum)
	}
	fmt.Fprintf(b, "%s %d\n", renderName(name+"_bucket", withLabel(labels, `le="+Inf"`)), h.Count())
	fmt.Fprintf(b, "%s %d\n", renderName(name+"_sum", labels), h.Sum())
	fmt.Fprintf(b, "%s %d\n", renderName(name+"_count", labels), h.Count())
}

// writeSummary renders one summary series: the p50/p90/p95/p99/p999
// quantiles (upper bounds of the log buckets) plus the exact _sum and
// _count.
func writeSummary(b *strings.Builder, name, labels string, h *obs.Histogram) {
	s := h.Summary()
	for _, q := range [...]struct {
		q string
		v int64
	}{{"0.5", s.P50}, {"0.9", s.P90}, {"0.95", s.P95}, {"0.99", s.P99}, {"0.999", s.P999}} {
		fmt.Fprintf(b, "%s %d\n", renderName(name, withLabel(labels, fmt.Sprintf("quantile=%q", q.q))), q.v)
	}
	fmt.Fprintf(b, "%s %d\n", renderName(name+"_sum", labels), h.Sum())
	fmt.Fprintf(b, "%s %d\n", renderName(name+"_count", labels), h.Count())
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
