package bus

import (
	"runtime"
	"sync"
	"testing"
)

// ArbQueueDepth exposes the arbiter's live ticket occupancy — the
// current master plus queued contenders — for the telemetry gauges.
func TestArbQueueDepth(t *testing.T) {
	b := New(newFakeMemory(16), Config{LineSize: 16})
	if got := b.ArbQueueDepth(); got != 0 {
		t.Fatalf("idle bus depth = %d, want 0", got)
	}

	b.Acquire(0, -1)
	if got := b.ArbQueueDepth(); got != 1 {
		t.Errorf("held bus depth = %d, want 1", got)
	}

	// Queue a contender; it blocks in Acquire until we release, so its
	// ticket must be visible while we still hold the bus. The ticket is
	// taken inside Acquire, so poll until it lands.
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		b.Acquire(0, -1)
		b.Release(0)
	}()
	for b.ArbQueueDepth() != 2 {
		runtime.Gosched()
	}

	b.Release(0)
	wg.Wait()
	if got := b.ArbQueueDepth(); got != 0 {
		t.Errorf("drained bus depth = %d, want 0", got)
	}
}

// A shared arbiter reports the queue across every bus serialising
// through it.
func TestArbQueueDepthSharedArbiter(t *testing.T) {
	arb := NewArbiter()
	b1 := New(newFakeMemory(16), Config{LineSize: 16, Arbiter: arb})
	b2 := New(newFakeMemory(16), Config{LineSize: 16, Arbiter: arb})
	b1.Acquire(0, -1)
	if got := b2.ArbQueueDepth(); got != 1 {
		t.Errorf("sibling bus depth = %d, want 1 (shared arbiter)", got)
	}
	b1.Release(0)
}

// A warm contended grant allocates nothing: the waiter a contender
// parks on, and its wake channel, go back on the arbiter's free list
// once the waiter has held and released the lock.
func TestContendedGrantAllocatesNothing(t *testing.T) {
	var m arbMutex
	m.disc = disciplines["rr"]()
	start, done := make(chan struct{}), make(chan struct{})
	go func() {
		for range start {
			m.Lock(1)
			m.Unlock()
			done <- struct{}{}
		}
	}()
	defer close(start)
	grant := func() {
		m.Lock(0)
		start <- struct{}{}
		for m.pending() < 2 { // the contender has parked
			runtime.Gosched()
		}
		m.Unlock()
		<-done
	}
	grant() // the first wait makes the waiter
	if allocs := testing.AllocsPerRun(100, grant); allocs != 0 {
		t.Errorf("a contended grant allocated %.1f times", allocs)
	}
}
