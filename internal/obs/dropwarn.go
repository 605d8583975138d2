package obs

import (
	"fmt"
	"io"
)

// WarnDropped writes a warning to w when the recorder discarded events
// (events emitted after Close — some instrumentation site outlived the
// recorder). Any file sinks attached to the recorder are missing those
// events, so recorded .fbt / JSONL traces are silently truncated and
// downstream analyses (fbt causal, lens and watch) see an incomplete
// stream. Returns whether a warning was written. Call after
// Recorder.Close; a nil recorder is fine (no warning).
func WarnDropped(w io.Writer, tool string, rec *Recorder) bool {
	if rec == nil {
		return false
	}
	dropped := rec.Dropped()
	if dropped == 0 {
		return false
	}
	fmt.Fprintf(w, "%s: warning: %d events were dropped after the recorder closed — recorded traces are truncated and analyses over them are incomplete\n",
		tool, dropped)
	return true
}
