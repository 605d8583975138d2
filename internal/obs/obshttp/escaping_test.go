package obshttp

import (
	"encoding/json"
	"fmt"
	"math"
	"strings"
	"testing"

	"futurebus/internal/obs"
)

// TestRegistryTextEscaping: label values reach the registry
// preformatted with %q, so quotes, backslashes and newlines in
// protocol or cause names must come out as valid Prometheus text
// escapes — one series per line, label value properly quoted.
func TestRegistryTextEscaping(t *testing.T) {
	reg := NewRegistry()
	reg.FamilyFunc("esc_total", "counter", "escaping", func(add func(string, int64)) {
		for _, raw := range []string{`plain`, `quo"te`, `back\slash`, "new\nline"} {
			add(fmt.Sprintf("proto=%q", raw), 1)
		}
	})

	var b strings.Builder
	if err := reg.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	text := b.String()
	for _, want := range []string{
		`esc_total{proto="plain"} 1`,
		`esc_total{proto="quo\"te"} 1`,
		`esc_total{proto="back\\slash"} 1`,
		`esc_total{proto="new\nline"} 1`,
	} {
		if !strings.Contains(text, want) {
			t.Errorf("exposition missing %q in:\n%s", want, text)
		}
	}
	// A raw newline inside a series line would corrupt the format:
	// every line must be a header or start with the family name.
	for _, line := range strings.Split(strings.TrimRight(text, "\n"), "\n") {
		if line == "" || strings.HasPrefix(line, "#") || strings.HasPrefix(line, "esc_total{") {
			continue
		}
		t.Errorf("stray exposition line %q — unescaped label bleed", line)
	}
}

// TestRegistryGaugeFormatting: gauge and counter values render the way
// Prometheus parses them — integers without exponents, NaN/±Inf
// spelled out.
func TestRegistryGaugeFormatting(t *testing.T) {
	reg := NewRegistry()
	vals := map[string]float64{
		"int":  42,
		"big":  1e14,
		"frac": 0.125,
		"nan":  math.NaN(),
		"pinf": math.Inf(1),
		"ninf": math.Inf(-1),
	}
	for name, v := range vals {
		v := v
		reg.GaugeFunc("fmt_gauge", fmt.Sprintf("case=%q", name), "formatting", func() float64 { return v })
	}
	var b strings.Builder
	if err := reg.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	text := b.String()
	for _, want := range []string{
		`fmt_gauge{case="int"} 42` + "\n",
		`fmt_gauge{case="big"} 100000000000000` + "\n",
		`fmt_gauge{case="frac"} 0.125` + "\n",
		`fmt_gauge{case="nan"} NaN` + "\n",
		`fmt_gauge{case="pinf"} +Inf` + "\n",
		`fmt_gauge{case="ninf"} -Inf` + "\n",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("exposition missing %q in:\n%s", want, text)
		}
	}
}

// TestSSEReplayAfterShed: after a slow subscriber forced shedding, a
// reconnecting subscriber's replay ring must be a coherent snapshot —
// contiguous sequence numbers ending at the newest event, no gaps or
// duplicates inside the window — and live frames must continue exactly
// where the replay left off.
func TestSSEReplayAfterShed(t *testing.T) {
	es := NewEventStream()
	// A subscriber that never drains, to force the shed path.
	_, _, cancelSlow := es.Subscribe()
	defer cancelSlow()
	total := DefaultSubscriberBuffer + 3*DefaultReplay
	for i := 0; i < total; i++ {
		es.Consume(&obs.Event{Kind: obs.KindState, Seq: uint64(i)})
	}
	if _, shed := es.Stats(); shed == 0 {
		t.Fatal("test did not force shedding")
	}

	ch, replay, cancel := es.Subscribe()
	defer cancel()
	if len(replay) != DefaultReplay {
		t.Fatalf("replay depth = %d, want %d", len(replay), DefaultReplay)
	}
	seqs := make([]uint64, len(replay))
	for i, frame := range replay {
		var e obs.Event
		if err := json.Unmarshal(frame, &e); err != nil {
			t.Fatalf("replay frame %d: %v", i, err)
		}
		seqs[i] = e.Seq
	}
	for i := 1; i < len(seqs); i++ {
		if seqs[i] != seqs[i-1]+1 {
			t.Fatalf("replay not contiguous at %d: seq %d follows %d", i, seqs[i], seqs[i-1])
		}
	}
	if last := seqs[len(seqs)-1]; last != uint64(total-1) {
		t.Errorf("replay tail seq = %d, want newest event %d", last, total-1)
	}

	// The next live frame continues the snapshot without gap or repeat.
	es.Consume(&obs.Event{Kind: obs.KindState, Seq: uint64(total)})
	select {
	case frame := <-ch:
		var e obs.Event
		if err := json.Unmarshal(frame, &e); err != nil {
			t.Fatal(err)
		}
		if e.Seq != uint64(total) {
			t.Errorf("first live frame seq = %d, want %d", e.Seq, total)
		}
	default:
		t.Fatal("no live frame delivered to fresh subscriber")
	}
}
