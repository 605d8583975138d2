package perf

import (
	"testing"

	"futurebus/internal/obs"
)

func grant(bus int, ts, dur int64) *obs.Event {
	return &obs.Event{Kind: obs.KindGrant, Bus: int32(bus), TS: ts, Dur: dur}
}

// The queue reconstruction derives depth from wait-interval overlap:
// the depth at a grant is the number of earlier waits still unfinished
// when this wait began, plus the new waiter itself.
func TestQueueDepthReconstruction(t *testing.T) {
	s := NewSink(0)
	// Three overlapping waits on bus 0: [0,100], [50,150], [120,200] —
	// depths 1 (nothing before), 2 (overlaps the first), 2 (the first
	// ended at 100 ≤ 120, the second is still live).
	s.Consume(grant(0, 100, 100))
	s.Consume(grant(0, 150, 100))
	s.Consume(grant(0, 200, 80))
	// A disjoint wait on bus 1 must not see bus 0's queue.
	s.Consume(grant(1, 500, 10))

	snap := s.Snapshot()
	if len(snap.Queue) != 2 {
		t.Fatalf("queue shards = %d, want 2", len(snap.Queue))
	}
	q0 := snap.Queue[0]
	if q0.Bus != 0 || q0.Waits != 3 || q0.Peak != 2 {
		t.Errorf("bus 0: got bus=%d waits=%d peak=%d, want 0/3/2", q0.Bus, q0.Waits, q0.Peak)
	}
	wantDepths := []int64{1, 2, 2}
	if len(q0.Timeline) != len(wantDepths) {
		t.Fatalf("timeline = %v", q0.Timeline)
	}
	for i, p := range q0.Timeline {
		if p.Depth != wantDepths[i] {
			t.Errorf("timeline[%d].Depth = %d, want %d (%v)", i, p.Depth, wantDepths[i], q0.Timeline)
		}
	}
	q1 := snap.Queue[1]
	if q1.Bus != 1 || q1.Peak != 1 {
		t.Errorf("bus 1: got bus=%d peak=%d, want 1/1", q1.Bus, q1.Peak)
	}
}

// Zero-duration grants are not waiting episodes; they must not pollute
// the wait distribution or the queue reconstruction.
func TestZeroWaitIgnored(t *testing.T) {
	s := NewSink(0)
	s.Consume(grant(0, 100, 0))
	snap := s.Snapshot()
	if snap.Latency[MetricArbWait].Count != 0 || len(snap.Queue) != 0 {
		t.Errorf("zero-dur grant observed: %+v", snap)
	}
}

// KindBlocked (the deterministic engine's wait shape) feeds the same
// distribution as KindGrant, so both engines report symmetric waits.
func TestBlockedCountsAsWait(t *testing.T) {
	s := NewSink(0)
	s.Consume(&obs.Event{Kind: obs.KindBlocked, Bus: 0, TS: 100, Dur: 40})
	snap := s.Snapshot()
	if snap.Latency[MetricArbWait].Count != 1 {
		t.Errorf("blocked event not folded into arb wait: %+v", snap.Latency)
	}
}

func TestLatencyMetricsFromTx(t *testing.T) {
	s := NewSink(0)
	s.Consume(&obs.Event{Kind: obs.KindTx, Bus: 0, TS: 1000, Dur: 300, RetryNS: 50, MemNS: 120})
	s.Consume(&obs.Event{Kind: obs.KindTx, Bus: 0, TS: 2000, Dur: 200})
	snap := s.Snapshot()
	if got := snap.Latency[MetricTenure].Count; got != 2 {
		t.Errorf("tenure count = %d, want 2", got)
	}
	// Retry and memory-service are conditional: only real samples count.
	if got := snap.Latency[MetricRetry].Count; got != 1 {
		t.Errorf("retry count = %d, want 1", got)
	}
	if got := snap.Latency[MetricMemSvc].Count; got != 1 {
		t.Errorf("memsvc count = %d, want 1", got)
	}
	if snap.Events != 2 {
		t.Errorf("events = %d, want 2", snap.Events)
	}
}

// KindEpoch resets the per-epoch window and the wait-interval state,
// but never the cumulative window — a sweep sharing one recorder gets
// per-system quantiles from EpochSnapshot and whole-sweep data from
// Snapshot.
func TestEpochReset(t *testing.T) {
	s := NewSink(0)
	s.Consume(grant(0, 100, 100))
	s.Consume(&obs.Event{Kind: obs.KindTx, Bus: 0, TS: 150, Dur: 50})
	s.Consume(&obs.Event{Kind: obs.KindEpoch})
	if got := s.EpochSnapshot(); len(got.Latency) != 0 || len(got.Queue) != 0 {
		t.Errorf("epoch window not reset: %+v", got)
	}
	// A wait in the new epoch must not stack on the previous system's
	// intervals even if the timestamps overlap.
	s.Consume(grant(0, 150, 100))
	ep := s.EpochSnapshot()
	if len(ep.Queue) != 1 || ep.Queue[0].Peak != 1 {
		t.Errorf("stale intervals leaked across epoch: %+v", ep.Queue)
	}
	cum := s.Snapshot()
	if got := cum.Latency[MetricArbWait].Count; got != 2 {
		t.Errorf("cumulative lost samples across epoch: count = %d, want 2", got)
	}
}

func TestTimelineBounded(t *testing.T) {
	s := NewSink(4)
	for i := int64(0); i < 10; i++ {
		s.Consume(grant(0, i*1000, 1))
	}
	tl := s.Snapshot().Queue[0].Timeline
	if len(tl) != 4 {
		t.Fatalf("timeline length = %d, want 4", len(tl))
	}
	// FIFO: the survivors are the most recent four, oldest first.
	if tl[0].TS != 6000 || tl[3].TS != 9000 {
		t.Errorf("timeline not the most recent window: %v", tl)
	}
}

func TestPeakQueueDepthAcrossShards(t *testing.T) {
	s := NewSink(0)
	s.Consume(grant(0, 100, 100))
	s.Consume(grant(1, 100, 100))
	s.Consume(grant(1, 150, 100))
	if got := s.Snapshot().PeakQueueDepth(); got != 2 {
		t.Errorf("peak across shards = %d, want 2", got)
	}
}

func TestFindSinkDirect(t *testing.T) {
	sink := NewSink(0)
	rec := obs.New(sink)
	defer rec.Close()
	if FindSink(rec) != sink {
		t.Error("FindSink failed to find a directly attached sink")
	}
}

// The registry renders the cumulative window through Latency and
// QueueDepths: copies of the histograms Snapshot digests, and each
// shard's latest and deepest queue.
func TestCumulativeReads(t *testing.T) {
	s := NewSink(0)
	s.Consume(grant(0, 100, 100)) // depth 1
	s.Consume(grant(0, 150, 100)) // overlaps the first wait: depth 2
	s.Consume(grant(0, 400, 50))  // alone again: depth 1
	s.Consume(&obs.Event{Kind: obs.KindTx, Bus: 0, TS: 450, Dur: 50, MemNS: 10})
	s.Consume(&obs.Event{Kind: obs.KindEpoch})
	s.Consume(&obs.Event{Kind: obs.KindTx, Bus: 0, TS: 500, Dur: 70})
	snap := s.Snapshot()
	for _, m := range []string{MetricArbWait, MetricTenure, MetricMemSvc} {
		if got := s.Latency(m); got.Summary() != snap.Latency[m] {
			t.Errorf("Latency(%s) = %v, snapshot %v", m, got.Summary(), snap.Latency[m])
		}
	}
	if h := s.Latency(MetricTenure); h.Count() != 2 || h.Sum() != 120 {
		t.Errorf("tenure spans the epoch: count %d sum %d, want 2 and 120", h.Count(), h.Sum())
	}
	if h := s.Latency("no.such.metric"); h.Count() != 0 {
		t.Errorf("unknown metric has %d samples", h.Count())
	}
	if got := s.QueueDepths(); len(got) != 1 || got[0] != (QueueDepth{Bus: 0, Last: 1, Peak: 2}) {
		t.Errorf("QueueDepths = %+v, want bus 0 last 1 peak 2", got)
	}
}

// The Jain fairness index over per-board arbitration waits: 1.0 when
// every board waits equally, 1/n when one board absorbs all the wait.
func TestArbFairnessIndex(t *testing.T) {
	s := NewSink(0)
	// Two boards, equal waits → index 1.
	s.Consume(&obs.Event{Kind: obs.KindGrant, Bus: 0, Proc: 0, TS: 100, Dur: 50})
	s.Consume(&obs.Event{Kind: obs.KindGrant, Bus: 0, Proc: 1, TS: 200, Dur: 50})
	snap := s.Snapshot()
	if snap.WaitingBoards != 2 || snap.ArbFairness < 0.999 {
		t.Fatalf("equal waits: boards=%d fairness=%.3f, want 2/1.0",
			snap.WaitingBoards, snap.ArbFairness)
	}
	// Board 2 starves: its wait dwarfs the others, the index collapses
	// toward 1/n.
	s.Consume(&obs.Event{Kind: obs.KindBlocked, Bus: 0, Proc: 2, TS: 300, Dur: 1e6})
	snap = s.Snapshot()
	if snap.WaitingBoards != 3 || snap.ArbFairness > 0.5 {
		t.Fatalf("starved board: boards=%d fairness=%.3f, want 3/<0.5",
			snap.WaitingBoards, snap.ArbFairness)
	}
}

// No waits → the index is undefined and reported as 0 with no boards,
// not NaN.
func TestArbFairnessUndefinedWithoutWaits(t *testing.T) {
	s := NewSink(0)
	s.Consume(&obs.Event{Kind: obs.KindTx, Bus: 0, TS: 100, Dur: 10})
	snap := s.Snapshot()
	if snap.WaitingBoards != 0 || snap.ArbFairness != 0 {
		t.Fatalf("got boards=%d fairness=%v, want 0/0", snap.WaitingBoards, snap.ArbFairness)
	}
}

// Split-mode events: KindNack increments the window's NACK counter and
// KindPend's duration folds into the memory-service distribution, both
// respecting the epoch reset.
func TestSplitEventsFolded(t *testing.T) {
	s := NewSink(0)
	if !relevant(obs.KindNack) || !relevant(obs.KindPend) {
		t.Fatal("split kinds not relevant to the perf sink")
	}
	s.Consume(&obs.Event{Kind: obs.KindNack, Bus: 0, TS: 100})
	s.Consume(&obs.Event{Kind: obs.KindPend, Bus: 0, TS: 150, Dur: 400})
	snap := s.Snapshot()
	if snap.Nacks != 1 {
		t.Errorf("nacks = %d, want 1", snap.Nacks)
	}
	if got := snap.Latency[MetricMemSvc].Count; got != 1 {
		t.Errorf("pend not folded into mem service: count = %d, want 1", got)
	}
	s.Consume(&obs.Event{Kind: obs.KindEpoch})
	if ep := s.EpochSnapshot(); ep.Nacks != 0 {
		t.Errorf("epoch nacks not reset: %d", ep.Nacks)
	}
	if cum := s.Snapshot(); cum.Nacks != 1 {
		t.Errorf("cumulative nacks lost on epoch: %d", cum.Nacks)
	}
}
