package causal_test

import (
	"bytes"
	"strings"
	"testing"

	"futurebus/internal/obs"
	"futurebus/internal/obs/causal"
	"futurebus/internal/obs/ledger"
)

// analyze builds the analysis of one transaction of dur nanoseconds.
func analyze(dur int64) *causal.Analysis {
	return causal.AnalyzeEvents([]obs.Event{{
		Kind: obs.KindTx, Addr: 0x40, Col: 6, Op: obs.OpRead,
		Dur: dur, AddrNS: 125, DataNS: dur - 125, TxID: 1,
	}})
}

func diff(oldA, newA *causal.Analysis) ledger.GateReport {
	return ledger.Diff(ledger.CausalRecord("", oldA), ledger.CausalRecord("", newA), 0)
}

func TestDiffThresholds(t *testing.T) {
	if r := diff(analyze(1000), analyze(3000)); r.Regressions == 0 {
		t.Fatal("3× cost growth not flagged as regression")
	}
	// Same analysis diffed against itself: zero regressions.
	if r := diff(analyze(1000), analyze(1000)); r.Regressions != 0 {
		t.Errorf("self-diff reported %d regressions", r.Regressions)
	}
	// Below the 1µs absolute floor nothing triggers regardless of ratio.
	if r := diff(analyze(10), analyze(25)); r.Regressions != 0 {
		t.Errorf("sub-threshold delta reported %d regressions", r.Regressions)
	}
}

func TestDiffRender(t *testing.T) {
	var buf bytes.Buffer
	diff(analyze(1000), analyze(5000)).Render(&buf)
	out := buf.String()
	for _, want := range []string{"REGRESSED", "causal.by_cause.bs-retry_ns", "causal.by_phase.data_ns"} {
		if !strings.Contains(out, want) {
			t.Errorf("render missing %q:\n%s", want, out)
		}
	}
	buf.Reset()
	diff(analyze(1000), analyze(1000)).Render(&buf)
	if !strings.Contains(buf.String(), "no regressions") {
		t.Errorf("self-diff render missing 'no regressions':\n%s", buf.String())
	}
}

func TestEmptyAnalysis(t *testing.T) {
	an := causal.AnalyzeEvents(nil)
	if an.Txs != 0 || len(an.Path) != 0 {
		t.Errorf("empty analysis = %+v", an)
	}
	var buf bytes.Buffer
	an.Render(&buf, 3) // must not panic
	if r := diff(an, an); r.Regressions != 0 || r.Verdict != "ok" {
		t.Errorf("empty self-diff: verdict %q, %d regressions", r.Verdict, r.Regressions)
	}
}
