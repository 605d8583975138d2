package coherence_test

import (
	"bytes"
	"fmt"
	"strings"
	"testing"

	"futurebus/internal/core"
	"futurebus/internal/obs"
	"futurebus/internal/obs/coherence"
	"futurebus/internal/obs/ledger"
)

func analyze(events ...obs.Event) *coherence.Analysis {
	var a coherence.Analyzer
	for i := range events {
		a.Consume(&events[i])
	}
	return a.Analyze(0)
}

func state(ts int64, proc int, from, to, cause string, txid uint64) obs.Event {
	f, errF := core.ParseState(from)
	t, errT := core.ParseState(to)
	c, errC := obs.ParseCause(cause)
	if errF != nil || errT != nil || errC != nil {
		panic(fmt.Sprintf("state(%q, %q, %q): %v %v %v", from, to, cause, errF, errT, errC))
	}
	return obs.Event{TS: ts, Kind: obs.KindState, Proc: int32(proc), Addr: 0x40,
		From: f, To: t, Cause: c, Proto: obs.NameOf("moesi"), TxID: txid}
}

func diff(oldA, newA *coherence.Analysis) ledger.GateReport {
	return ledger.Diff(ledger.LensRecord("", oldA), ledger.LensRecord("", newA), 0)
}

// TestDiffSelfCleanAndRegression: self-diff reports zero regressions
// and renders "no regressions"; a run with more invalidation traffic
// trips the gate.
func TestDiffSelfCleanAndRegression(t *testing.T) {
	quiet := analyze(
		state(0, 0, "I", "E", "fill", 1),
		state(50, 0, "E", "M", "silent-write", 0),
	)
	self := diff(quiet, quiet)
	if self.Regressions != 0 {
		t.Fatalf("self-diff regressions = %d, want 0", self.Regressions)
	}
	var buf bytes.Buffer
	self.Render(&buf)
	if !strings.Contains(buf.String(), "no regressions") {
		t.Errorf("self-diff output missing 'no regressions':\n%s", buf.String())
	}

	noisy := analyze(
		state(0, 0, "I", "E", "fill", 1),
		state(50, 1, "I", "M", "fill", 2),
		state(50, 0, "E", "I", "snoop-cache-rfo", 2),
		obs.Event{TS: 50, Kind: obs.KindTx, Proc: 1, Addr: 0x40, Col: 6, Op: obs.OpRead, TxID: 2},
	)
	r := diff(quiet, noisy)
	flagged := false
	for _, row := range r.Rows {
		flagged = flagged || row.Key == "lens.moesi.inv_per_transition" && row.Direction == "regressed"
	}
	if !flagged {
		t.Errorf("invalidation-heavy run not flagged on lens.moesi.inv_per_transition: %+v", r.Rows)
	}
}
