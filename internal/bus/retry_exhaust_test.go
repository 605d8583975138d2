package bus

import (
	"errors"
	"testing"

	"futurebus/internal/core"
	"futurebus/internal/obs"
	"futurebus/internal/obs/watch"
)

// wedgedSnooper asserts BS on every query but its recovery push is a
// no-op — the line never quiesces, so the master's retries can never
// succeed. This is the fault ErrTooManyRetries exists to bound.
type wedgedSnooper struct {
	fakeSnooper
	recoveries int
	calm       bool
}

func (w *wedgedSnooper) Query(tx *Transaction) SnoopResponse {
	w.locked = true
	if w.calm {
		return SnoopResponse{}
	}
	act, _ := core.ParseSnoopAction("BS;S,CA,W")
	return SnoopResponse{Action: act, State: core.Modified, Hit: true}
}

func (w *wedgedSnooper) Recover(b *Bus, aborted *Transaction, resp SnoopResponse) error {
	w.recoveries++
	return nil
}

// TestRetryExhaustionSurfaced: a wedged abort loop must fail with
// ErrTooManyRetries AND leave a structural trail — the
// Stats.RetryExhausted counter (the futurebus_retry_exhausted_total
// scrape source), a KindRetryExhausted event, and a forward-progress
// violation from the runtime invariant monitor watching the stream.
func TestRetryExhaustionSurfaced(t *testing.T) {
	mon := watch.New(watch.Config{})
	rec := obs.New(mon)
	mem := newFakeMemory(16)
	b := New(mem, Config{LineSize: 16, Obs: rec})
	wedged := &wedgedSnooper{fakeSnooper: fakeSnooper{id: 1}}
	b.Attach(wedged)

	_, err := b.Execute(Transaction{MasterID: 0, Signals: core.SigCA, Op: core.BusRead, Addr: 7, Data: make([]byte, b.LineSize())})
	if !errors.Is(err, ErrTooManyRetries) {
		t.Fatalf("err = %v, want ErrTooManyRetries", err)
	}
	if wedged.recoveries <= maxRetries {
		t.Errorf("recoveries = %d, want > %d (one per abort round)", wedged.recoveries, maxRetries)
	}
	st := b.Stats()
	if st.RetryExhausted != 1 {
		t.Errorf("Stats.RetryExhausted = %d, want 1", st.RetryExhausted)
	}
	if err := rec.Close(); err != nil {
		t.Fatal(err)
	}
	rep := mon.Report()
	if rep.Total == 0 {
		t.Fatal("invariant monitor saw no violation in a wedged retry loop")
	}
	found := false
	for i := range rep.Violations {
		if rep.Violations[i].Invariant == watch.InvProgress {
			found = true
		}
	}
	if !found {
		t.Fatalf("no %s violation reported: %s", watch.InvProgress, rep.Summary())
	}

	// The bus must stay usable after the wedged transaction failed.
	wedged.calm = true
	if _, err := b.Execute(Transaction{MasterID: 0, Op: core.BusRead, Addr: 8, Data: make([]byte, b.LineSize())}); err != nil {
		t.Fatalf("bus wedged after retry exhaustion: %v", err)
	}
}
