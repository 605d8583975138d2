package obs

import (
	"bufio"
	"bytes"
	"encoding/json"
	"strings"
	"testing"

	"futurebus/internal/core"
)

// TestHistogramQuantiles: log-bucket bounds behave as documented.
func TestHistogramQuantiles(t *testing.T) {
	var h Histogram
	if h.Quantile(0.5) != 0 || h.Mean() != 0 {
		t.Error("empty histogram not zero")
	}
	for i := int64(1); i <= 100; i++ {
		h.Observe(i)
	}
	if h.Count() != 100 {
		t.Errorf("count = %d", h.Count())
	}
	if h.Mean() != 50.5 {
		t.Errorf("mean = %f", h.Mean())
	}
	s := h.Summary()
	if s.Min != 1 || s.Max != 100 {
		t.Errorf("min/max = %d/%d", s.Min, s.Max)
	}
	// The median of 1..100 is in the [32,64) bucket: upper bound 63.
	if s.P50 != 63 {
		t.Errorf("p50 = %d", s.P50)
	}
	// p99 lands in the top bucket, clamped to the observed max.
	if s.P99 != 100 {
		t.Errorf("p99 = %d", s.P99)
	}
	h.Observe(-5) // clamps to zero
	if h.Quantile(0) != 0 {
		t.Errorf("q0 = %d", h.Quantile(0))
	}
}

// TestHistogramSink: tx and stall events land in the right metrics.
func TestHistogramSink(t *testing.T) {
	hs := NewHistogramSink()
	hs.Consume(&Event{Kind: KindTx, Dur: 500, Retries: 2})
	hs.Consume(&Event{Kind: KindTx, Dur: 700})
	hs.Consume(&Event{Kind: KindStall, Dur: 900})
	hs.Consume(&Event{Kind: KindState}) // ignored
	sums := hs.Summaries()
	if sums[MetricTxLatency].Count != 2 {
		t.Errorf("tx latency count = %d", sums[MetricTxLatency].Count)
	}
	if sums[MetricTxRetries].Max != 2 {
		t.Errorf("retries max = %d", sums[MetricTxRetries].Max)
	}
	if sums[MetricStall].Count != 1 {
		t.Errorf("stall count = %d", sums[MetricStall].Count)
	}
	if !strings.Contains(hs.Render(), MetricTxLatency) {
		t.Errorf("render missing metric: %q", hs.Render())
	}
}

// TestJSONLRoundTrip: write → read reproduces the events exactly.
func TestJSONLRoundTrip(t *testing.T) {
	in := []Event{
		{Seq: 0, TS: 0, Kind: KindGrant, Bus: 0, Proc: 2, Addr: 0x10},
		{Seq: 1, TS: 10, Dur: 425, Kind: KindTx, Bus: 0, Proc: 2, Addr: 0x10,
			Col: 6, Op: OpRead, CH: true, DI: true, Retries: 1, Bytes: 32},
		{Seq: 2, TS: 435, Kind: KindState, Bus: 0, Proc: 1, Addr: 0x10,
			From: core.Modified, To: core.Owned, Cause: CauseSnoop},
		{Seq: 3, TS: 435, Kind: KindMemWrite, Bus: -1, Proc: -1, Addr: 0x20},
	}
	var buf bytes.Buffer
	sink := NewJSONLSink(&buf)
	for i := range in {
		sink.Consume(&in[i])
	}
	if err := sink.Flush(); err != nil {
		t.Fatal(err)
	}
	var out []Event
	sc := bufio.NewScanner(&buf)
	for sc.Scan() {
		var e Event
		if err := json.Unmarshal(sc.Bytes(), &e); err != nil {
			t.Fatal(err)
		}
		out = append(out, e)
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if len(out) != len(in) {
		t.Fatalf("round-trip count %d != %d", len(out), len(in))
	}
	for i := range in {
		if in[i] != out[i] {
			t.Errorf("event %d: %+v != %+v", i, out[i], in[i])
		}
	}
}

// TestLineAudit: history is per-line, bounded, and explainable.
func TestLineAudit(t *testing.T) {
	a := NewLineAuditSink(8)
	for i := 0; i < 20; i++ {
		a.Consume(&Event{Seq: uint64(i), Kind: KindTx, Addr: 0x10, Col: 5, Op: OpRead})
	}
	a.Consume(&Event{Kind: KindState, Addr: 0x20, From: core.Invalid, To: core.Modified, Cause: CauseFill})
	a.Consume(&Event{Kind: KindGrant, Addr: 0x20}) // not audited
	h := a.LineHistory(0x10)
	if len(h) > 8 {
		t.Errorf("history overflow: %d", len(h))
	}
	if h[len(h)-1].Seq != 19 {
		t.Errorf("newest event lost: seq %d", h[len(h)-1].Seq)
	}
	if got := a.LineHistory(0x20); len(got) != 1 {
		t.Errorf("line 0x20 history = %d events", len(got))
	}
	if s := a.Explain(0x20); !strings.Contains(s, "I→M (fill)") {
		t.Errorf("explain = %q", s)
	}
	if len(a.LineHistory(0x99)) != 0 {
		t.Error("phantom history")
	}
}

// TestChromeTraceExport: the exporter produces structurally valid
// trace JSON with metadata, slices and instants on the right tracks.
func TestChromeTraceExport(t *testing.T) {
	var buf bytes.Buffer
	s := NewChromeTraceSink(&buf)
	s.Consume(&Event{Seq: 1, TS: 0, Dur: 425, Kind: KindTx, Bus: 0, Proc: 1, Addr: 0x10, Col: 5, Op: OpRead, Bytes: 32})
	s.Consume(&Event{Seq: 2, TS: 425, Kind: KindState, Bus: 0, Proc: 0, Addr: 0x10, From: core.Invalid, To: core.Shared, Cause: CauseFill})
	s.Consume(&Event{Seq: 3, TS: 425, Kind: KindMemRead, Bus: -1, Proc: -1, Addr: 0x10})
	s.Consume(&Event{Seq: 4, TS: 425, Dur: 425, Kind: KindStall, Bus: 0, Proc: 1, Addr: 0x10})
	if err := s.Flush(); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []map[string]any `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("invalid JSON: %v", err)
	}
	var slices, instants, metas int
	for _, te := range doc.TraceEvents {
		for _, k := range []string{"name", "ph", "pid", "tid"} {
			if _, ok := te[k]; !ok {
				t.Fatalf("trace event missing %q: %v", k, te)
			}
		}
		switch te["ph"] {
		case "X":
			slices++
			if _, ok := te["dur"]; !ok {
				t.Errorf("X event without dur: %v", te)
			}
		case "i":
			instants++
		case "M":
			metas++
		}
	}
	if slices != 2 || instants != 2 || metas < 3 {
		t.Errorf("slices=%d instants=%d metas=%d", slices, instants, metas)
	}
}
