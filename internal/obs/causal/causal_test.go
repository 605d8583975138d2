package causal

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"

	"futurebus/internal/obs"
)

// tx builds a KindTx event with sensible phase fields: addr+data cost,
// plus optional wait and retry overhead.
func tx(seq uint64, ts, dur int64, proc int, txid, causeID uint64) obs.Event {
	return obs.Event{
		Seq: seq, TS: ts, Dur: dur, Kind: obs.KindTx, Proc: int32(proc),
		Addr: 0x40, Col: 6, Op: obs.OpRead,
		AddrNS: 125, DataNS: dur - 125,
		TxID: txid, CauseID: causeID,
	}
}

// TestAnalyzerBlockingEdge: a grant with non-zero Dur carries the
// blocking transaction; the analysis must attribute the wait to
// arb-wait and put the blocker on the critical path.
func TestAnalyzerBlockingEdge(t *testing.T) {
	events := []obs.Event{
		tx(0, 0, 400, 0, 1, 0),
		{Seq: 1, TS: 400, Dur: 400, Kind: obs.KindGrant, Proc: 1, TxID: 2, CauseID: 1},
		func() obs.Event { e := tx(2, 400, 300, 1, 2, 0); e.ArbNS = 400; return e }(),
	}
	an := AnalyzeEvents(events)
	if an.Txs != 2 {
		t.Fatalf("Txs = %d, want 2", an.Txs)
	}
	if got := an.ByCause[0]; got != 400 {
		t.Errorf("arb-wait = %d, want 400", got)
	}
	if len(an.Path) != 2 {
		t.Fatalf("path length = %d, want 2 (blocker then blocked): %+v", len(an.Path), an.Path)
	}
	if an.Path[0].TxID != 1 || an.Path[1].TxID != 2 {
		t.Errorf("path = %d → %d, want 1 → 2", an.Path[0].TxID, an.Path[1].TxID)
	}
	if an.Path[1].Via != CauseArbWait {
		t.Errorf("edge = %q, want %q", an.Path[1].Via, CauseArbWait)
	}
}

// TestAnalyzerBlockedEvent: the deterministic engine's KindBlocked
// linkage must fold into the board's next transaction.
func TestAnalyzerBlockedEvent(t *testing.T) {
	events := []obs.Event{
		tx(0, 0, 400, 0, 1, 0),
		{Seq: 1, TS: 400, Dur: 250, Kind: obs.KindBlocked, Proc: 1, CauseID: 1},
		tx(2, 400, 300, 1, 2, 0),
	}
	an := AnalyzeEvents(events)
	if got := an.ByCause[0]; got != 250 {
		t.Errorf("arb-wait = %d, want 250", got)
	}
	if len(an.Path) != 2 || an.Path[1].Via != CauseArbWait || an.Path[1].BlockedBy != 1 {
		t.Errorf("path = %+v, want blocked-behind-tx-1 edge", an.Path)
	}
}

// TestAnalyzerRecoveryChain: a BS recovery push (KindTx with CauseID
// naming the aborted transaction) charges its whole cost to bs-retry
// and chains onto the retried transaction's critical path.
func TestAnalyzerRecoveryChain(t *testing.T) {
	events := []obs.Event{
		{Seq: 0, TS: 0, Kind: obs.KindGrant, Proc: 0, TxID: 1},
		{Seq: 1, TS: 0, Kind: obs.KindAbort, Proc: 0, TxID: 1},
		{Seq: 2, TS: 0, Kind: obs.KindRecover, Proc: 2, TxID: 1},
		// The owner's push, nested inside tx 1's attempt loop.
		tx(3, 0, 500, 2, 2, 1),
		// The retried master's completion: retry overhead recorded.
		func() obs.Event {
			e := tx(4, 500, 800, 0, 1, 0)
			e.Retries = 1
			e.RetryNS = 125
			e.DataNS = 800 - 250
			return e
		}(),
	}
	an := AnalyzeEvents(events)
	if an.Aborts != 1 {
		t.Errorf("Aborts = %d, want 1", an.Aborts)
	}
	// bs-retry = whole push (500) + master's wasted address cycles (125).
	if got := an.ByCause[5]; got != 625 {
		t.Errorf("bs-retry = %d, want 625", got)
	}
	if len(an.Path) != 2 || an.Path[0].TxID != 2 || an.Path[1].TxID != 1 {
		t.Fatalf("path = %+v, want push(2) → retried(1)", an.Path)
	}
	if an.Path[1].Via != CauseBSRetry {
		t.Errorf("edge = %q, want %q", an.Path[1].Via, CauseBSRetry)
	}
}

// TestAnalyzerProgramOrder: independent boards chain on program order;
// the path follows the last-finishing board.
func TestAnalyzerProgramOrder(t *testing.T) {
	events := []obs.Event{
		tx(0, 0, 300, 0, 1, 0),
		tx(1, 300, 300, 1, 2, 0),
		tx(2, 600, 400, 0, 3, 0),
	}
	an := AnalyzeEvents(events)
	if len(an.Path) != 2 || an.Path[0].TxID != 1 || an.Path[1].TxID != 3 {
		t.Fatalf("path = %+v, want 1 → 3 (program order on board 0)", an.Path)
	}
	if an.Path[1].Via != "program" {
		t.Errorf("edge = %q, want program", an.Path[1].Via)
	}
}

func TestAnalyzerLimit(t *testing.T) {
	a := Analyzer{limit: 2}
	for i := uint64(1); i <= 5; i++ {
		e := tx(i, int64(i)*100, 100, 0, i, 0)
		a.Consume(&e)
	}
	an := a.Analyze()
	if an.Txs != 2 || an.Truncated != 3 {
		t.Errorf("Txs = %d Truncated = %d, want 2 and 3", an.Txs, an.Truncated)
	}
}

func TestCanonicalize(t *testing.T) {
	// Two interleavings of the same per-board program: board 0 runs
	// t1,t3; board 1 runs t2. Run B saw board 1 first, with different
	// global seq, timestamps, arb waits and TxIDs.
	runA := []obs.Event{
		{Seq: 0, TS: 0, Kind: obs.KindGrant, Proc: 0, TxID: 1},
		tx(1, 0, 300, 0, 1, 0),
		func() obs.Event { e := tx(2, 300, 200, 1, 2, 0); e.ArbNS = 300; return e }(),
		tx(3, 500, 400, 0, 3, 0),
	}
	runB := []obs.Event{
		tx(10, 0, 200, 1, 7, 0),
		func() obs.Event { e := tx(11, 200, 300, 0, 8, 0); e.ArbNS = 200; return e }(),
		{Seq: 12, TS: 500, Dur: 77, Kind: obs.KindStall, Proc: 0},
		tx(13, 500, 400, 0, 9, 0),
	}
	ca, cb := Canonicalize(runA), Canonicalize(runB)
	if len(ca) != 3 || len(cb) != 3 {
		t.Fatalf("canonical lengths %d, %d; want 3, 3", len(ca), len(cb))
	}
	for i := range ca {
		if ca[i] != cb[i] {
			t.Errorf("canonical event %d differs:\nA: %+v\nB: %+v", i, ca[i], cb[i])
		}
	}
	pa, pb := AnalyzeEvents(ca), AnalyzeEvents(cb)
	if len(pa.Path) != len(pb.Path) {
		t.Fatalf("canonical paths differ in length: %d vs %d", len(pa.Path), len(pb.Path))
	}
	for i := range pa.Path {
		if pa.Path[i] != pb.Path[i] {
			t.Errorf("canonical path segment %d differs", i)
		}
	}
}

func TestCanonicalizeRemapsCauseID(t *testing.T) {
	events := []obs.Event{
		tx(5, 0, 300, 0, 42, 0),
		tx(6, 300, 200, 1, 43, 42), // recovery push referencing tx 42
	}
	c := Canonicalize(events)
	if c[0].TxID != 1 || c[1].TxID != 2 {
		t.Fatalf("TxIDs = %d, %d; want dense renumbering 1, 2", c[0].TxID, c[1].TxID)
	}
	if c[1].CauseID != 1 {
		t.Errorf("CauseID = %d, want remapped 1", c[1].CauseID)
	}
}

func TestAnalysisRender(t *testing.T) {
	an := AnalyzeEvents([]obs.Event{
		tx(0, 0, 400, 0, 1, 0),
		{Seq: 1, TS: 400, Dur: 250, Kind: obs.KindBlocked, Proc: 1, CauseID: 1},
		tx(2, 400, 300, 1, 2, 0),
	})
	var buf bytes.Buffer
	an.Render(&buf, 5)
	out := buf.String()
	for _, want := range []string{"cost by cause", "critical path", "per-board blame", CauseArbWait} {
		if !strings.Contains(out, want) {
			t.Errorf("render missing %q:\n%s", want, out)
		}
	}
}

func TestCauseVecJSON(t *testing.T) {
	v := CauseVec{100, 0, 200, 0, 0, 300}
	b, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	var got CauseVec
	if err := json.Unmarshal(b, &got); err != nil {
		t.Fatal(err)
	}
	if got != v {
		t.Errorf("round-trip = %v, want %v", got, v)
	}
	if v.Dominant() != CauseBSRetry {
		t.Errorf("Dominant = %q, want %q", v.Dominant(), CauseBSRetry)
	}
}

// TestDisciplineBlame: epoch markers label the discipline in force;
// waits aggregate under the label active when the transaction ran,
// and split-mode queued data tenures count against it too.
func TestDisciplineBlame(t *testing.T) {
	events := []obs.Event{
		{Seq: 0, Kind: obs.KindEpoch, Proc: -1, Disc: obs.NameOf("fcfs")},
		tx(1, 0, 400, 0, 1, 0),
		func() obs.Event { e := tx(2, 400, 300, 1, 2, 0); e.ArbNS = 400; return e }(),
		{Seq: 3, TS: 700, Kind: obs.KindEpoch, Proc: -1, Disc: obs.NameOf("rr")},
		func() obs.Event { e := tx(4, 700, 300, 0, 3, 0); e.ArbNS = 150; return e }(),
		{Seq: 5, TS: 1000, Dur: 64, Kind: obs.KindData, Proc: 1, TxID: 4, CauseID: 3},
	}
	an := AnalyzeEvents(events)
	if len(an.ByDiscipline) != 2 {
		t.Fatalf("ByDiscipline = %+v, want 2 rows", an.ByDiscipline)
	}
	// Sorted by wait descending: fcfs (400) before rr (150).
	fcfs, rr := an.ByDiscipline[0], an.ByDiscipline[1]
	if fcfs.Discipline != "fcfs" || fcfs.Txs != 2 || fcfs.WaitNS != 400 || fcfs.MaxWaitNS != 400 {
		t.Errorf("fcfs row = %+v, want txs 2 wait 400 max 400", fcfs)
	}
	if rr.Discipline != "rr" || rr.Txs != 1 || rr.WaitNS != 150 || rr.QueuedData != 1 {
		t.Errorf("rr row = %+v, want txs 1 wait 150 queued 1", rr)
	}
	if got, want := fcfs.Share, 400.0/550.0; got < want-1e-9 || got > want+1e-9 {
		t.Errorf("fcfs share = %v, want %v", got, want)
	}

	var buf bytes.Buffer
	an.Render(&buf, 0)
	out := buf.String()
	if !strings.Contains(out, "arb-wait blame by arbitration discipline") {
		t.Errorf("render missing discipline table:\n%s", out)
	}
	if !strings.Contains(out, "fcfs") || !strings.Contains(out, "rr") {
		t.Errorf("render missing discipline rows:\n%s", out)
	}
}

// TestDisciplineBlameUnlabelled: traces recorded before the epoch
// marker carried a discipline label must analyze and render exactly as
// before — no table, no by_discipline key in the JSON.
func TestDisciplineBlameUnlabelled(t *testing.T) {
	events := []obs.Event{
		{Seq: 0, Kind: obs.KindEpoch, Proc: -1}, // pre-label marker: empty Cause
		tx(1, 0, 400, 0, 1, 0),
		func() obs.Event { e := tx(2, 400, 300, 1, 2, 0); e.ArbNS = 400; return e }(),
	}
	an := AnalyzeEvents(events)
	if len(an.ByDiscipline) != 0 {
		t.Fatalf("ByDiscipline = %+v, want empty on unlabelled trace", an.ByDiscipline)
	}
	var buf bytes.Buffer
	an.Render(&buf, 0)
	if strings.Contains(buf.String(), "discipline") {
		t.Errorf("unlabelled render grew a discipline table:\n%s", buf.String())
	}
	blob, err := json.Marshal(an)
	if err != nil {
		t.Fatal(err)
	}
	if strings.Contains(string(blob), "by_discipline") {
		t.Errorf("unlabelled analysis JSON carries by_discipline: %s", blob)
	}
}
