package watch_test

import (
	"bytes"
	"encoding/json"
	"io"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	"futurebus/internal/obs"
	"futurebus/internal/obs/coherence"
	"futurebus/internal/obs/watch"
)

// FuzzAnalyzeTrace feeds every event the .fbt decoder accepts to the
// two per-line analyzers, as `fbt watch` and `fbt lens analyze` replay
// a trace, and renders both reports: no trace may make either panic.
// The decoder accepts any int32 bus and proc, so the seeds in
// testdata/fuzz/FuzzAnalyzeTrace include one-event traces whose state
// event names proc 1<<20, proc -1 or bus 1<<20, beside short recorded
// runs: a split-tenure, two-shard mixed-protocol run, a §6 tree's first
// system and a run with a drop-inv board. A few bytes can name any id,
// so an analyzer that allocated in proportion to one would exhaust the
// fuzzer's memory.
func FuzzAnalyzeTrace(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		tr, err := obs.NewTraceReader(bytes.NewReader(data))
		if err != nil {
			return
		}
		mon := watch.New(watch.Config{})
		var lens coherence.Analyzer
		var n int64
		for e := (obs.Event{}); n < 1<<16 && tr.Next(&e) == nil; n++ {
			mon.Consume(&e)
			lens.Consume(&e)
		}
		rep, an := mon.Report(), lens.Analyze(0)
		if rep.Events != n || an.Events != n {
			t.Fatalf("fed %d events; the monitor counted %d, the analyzer %d", n, rep.Events, an.Events)
		}
		if _, err := json.Marshal(rep); err != nil {
			t.Fatalf("watch report: %v", err)
		}
		if _, err := json.Marshal(an); err != nil {
			t.Fatalf("coherence analysis: %v", err)
		}
		_ = rep.Summary()
		an.Render(io.Discard)
	})
}

// TestTruncationNamesBothCauses: a trace's one state event from proc
// 1<<20 (the proc-1M seed) gets no line in either analyzer. Both count
// it as truncated, and both reports say that an event outside the id
// bound is counted there too, not only one past the line cap.
func TestTruncationNamesBothCauses(t *testing.T) {
	raw, err := os.ReadFile(filepath.Join("testdata", "fuzz", "FuzzAnalyzeTrace", "proc-1M"))
	if err != nil {
		t.Fatal(err)
	}
	_, lit, _ := strings.Cut(string(raw), "[]byte(")
	data, err := strconv.Unquote(strings.TrimSuffix(strings.TrimSpace(lit), ")"))
	if err != nil {
		t.Fatal(err)
	}
	tr, err := obs.NewTraceReader(strings.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	mon := watch.New(watch.Config{})
	var lens coherence.Analyzer
	for e := (obs.Event{}); tr.Next(&e) == nil; {
		mon.Consume(&e)
		lens.Consume(&e)
	}
	rep, an := mon.Report(), lens.Analyze(0)
	if rep.TruncatedEvents != 1 || an.TruncatedLines != 1 {
		t.Fatalf("truncated_events %d, truncated_lines %d; want 1 and 1", rep.TruncatedEvents, an.TruncatedLines)
	}
	var sb strings.Builder
	an.Render(&sb)
	for name, text := range map[string]string{"watch": rep.Summary(), "lens": sb.String()} {
		if !strings.Contains(text, "line cap") || !strings.Contains(text, "bus or proc outside [0, 1024)") {
			t.Errorf("%s report does not name both causes:\n%s", name, text)
		}
	}
}
