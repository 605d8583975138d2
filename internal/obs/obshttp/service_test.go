package obshttp

import (
	"strings"
	"testing"

	"futurebus/internal/obs"
)

// Split-mode stream events surface as their own counter families:
// NACKs (pending table full) and retry exhaustion (ErrTooManyRetries),
// so a scrape distinguishes back-pressure from livelock.
func TestMetricsSinkSplitCounters(t *testing.T) {
	reg := NewRegistry()
	m := newMetricsSink(reg, 0)
	m.Consume(&obs.Event{Kind: obs.KindNack, Bus: 0})
	m.Consume(&obs.Event{Kind: obs.KindNack, Bus: 1})
	m.Consume(&obs.Event{Kind: obs.KindRetryExhausted, Proc: 3})
	var b strings.Builder
	if err := reg.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{MetricNacks + " 2\n", MetricRetryExhausted + " 1\n"} {
		if !strings.Contains(b.String(), want) {
			t.Errorf("exposition missing %q in:\n%s", want, b.String())
		}
	}
}
