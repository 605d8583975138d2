package watch_test

import (
	"bytes"
	"encoding/json"
	"io"
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
