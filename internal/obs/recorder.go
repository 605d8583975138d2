package obs

import (
	"sync"
	"sync/atomic"
)

// Sink consumes drained events. The Recorder calls Consume one event at
// a time, never concurrently, in Seq order — on its drain goroutine or
// on the goroutine calling View, Flush or Close — so sinks need no
// locking against each other. A sink read while the recorder runs is
// read through View, which needs no lock in the sink either; sinks that
// are also read outside View lock themselves (see HistogramSink,
// LineAuditSink). Consume must not call back into the Recorder that
// feeds it: an Emit, View or Flush from inside Consume blocks forever.
type Sink interface {
	// Consume observes one event. The pointee is only valid for the
	// duration of the call; sinks that retain events must copy.
	Consume(e *Event)
	// Flush finalises buffered output (write files, close arrays).
	Flush() error
}

// SinkFunc adapts a function to a Sink with a no-op Flush.
type SinkFunc func(e *Event)

// Consume implements Sink.
func (f SinkFunc) Consume(e *Event) { f(e) }

// Flush implements Sink.
func (f SinkFunc) Flush() error { return nil }

// DefaultBuffer is how many events New buffers between its producers
// and its sinks, over all its batches. Kept small enough that the
// batches stay cache-resident: a larger buffer makes every append a
// cold-memory write and evicts the simulator's working set.
const DefaultBuffer = 1 << 10

// batches is how many batches a recorder cycles: the one producers are
// filling, and the others queued for the drain goroutine, being
// consumed, or free.
const batches = 4

// Recorder accepts events from any goroutine and delivers them to its
// sinks in batches. Producers append to the current batch under one
// mutex; a full batch goes over a channel to a background drain
// goroutine, which consumes it and sends it back empty. A producer that
// finds every other batch still in flight parks until one comes back. A
// nil *Recorder is valid and inert: every method is a no-op, which is
// the branch-cheap fast path the substrates rely on.
type Recorder struct {
	clock   atomic.Int64
	sinks   []Sink
	dropped atomic.Int64

	mu     sync.Mutex // guards cur, seq and closed
	cur    []Event    // the batch being filled
	seq    uint64
	closed bool

	full   chan []Event  // batches to consume, in Seq order; nil is a sync token
	free   chan []Event  // consumed batches, back to the producers
	synced chan struct{} // the drain goroutine reached a sync token; closed when it exits
}

// New creates a recorder that buffers DefaultBuffer events.
func New(sinks ...Sink) *Recorder { return NewSized(DefaultBuffer, sinks...) }

// NewSized creates a recorder that buffers at least buffer events.
func NewSized(buffer int, sinks ...Sink) *Recorder {
	size := max(1, (buffer+batches-1)/batches)
	r := &Recorder{
		sinks: sinks,
		// Sized so that no send blocks: at most batches-1 batches and
		// one sync token are in flight, and at most batches-1 are free.
		full:   make(chan []Event, batches),
		free:   make(chan []Event, batches),
		synced: make(chan struct{}),
	}
	r.cur = make([]Event, 0, size)
	for i := 1; i < batches; i++ {
		r.free <- make([]Event, 0, size)
	}
	go r.drainLoop()
	return r
}

// Sinks returns the attached sinks (for summary extraction at the end
// of a run, e.g. FindHistogram).
func (r *Recorder) Sinks() []Sink {
	if r == nil {
		return nil
	}
	return r.sinks
}

// Clock returns the simulated time in nanoseconds: the cumulative bus
// occupancy advanced by the bus as transactions complete.
func (r *Recorder) Clock() int64 {
	if r == nil {
		return 0
	}
	return r.clock.Load()
}

// Advance moves the simulated clock forward by d and returns the clock
// value BEFORE the advance — the begin timestamp of the span that d
// paid for.
func (r *Recorder) Advance(d int64) int64 {
	if r == nil {
		return 0
	}
	return r.clock.Add(d) - d
}

// Emit stamps e with the next Seq and buffers it. Safe from any
// goroutine. When every batch is full or in flight, Emit parks until
// the drain goroutine frees one (events are never dropped while the
// recorder is open, so audit trails stay complete). Emits after Close
// are discarded and counted (Dropped) instead of being silently lost.
func (r *Recorder) Emit(e Event) {
	if r == nil {
		return
	}
	r.mu.Lock()
	if r.closed {
		r.mu.Unlock()
		r.dropped.Add(1)
		return
	}
	e.Seq = r.seq
	r.seq++
	r.cur = append(r.cur, e)
	if len(r.cur) == cap(r.cur) {
		r.full <- r.cur
		// Wait for an empty batch still holding mu: the next Seq must
		// not be given out before there is a batch to put it in, and
		// the producers queued on mu sleep, as this one does.
		r.cur = <-r.free
	}
	r.mu.Unlock()
}

// MarkEpoch emits the KindEpoch marker that opens a freshly assembled
// system on the stream, at the current clock: bus is the system's first
// segment and discipline its effective arbitration discipline, which
// causal's per-discipline blame table reads back. Sweeps reuse one
// recorder across many systems, and the stateful sinks start over on
// the marker. A nil recorder ignores it.
func (r *Recorder) MarkEpoch(bus int, discipline string) {
	if r == nil {
		return
	}
	r.Emit(Event{TS: r.Clock(), Kind: KindEpoch, Bus: int32(bus), Proc: -1, Disc: NameOf(discipline)})
}

// Dropped returns the number of events discarded because they were
// emitted after Close. A non-zero value means some instrumentation
// site outlived the recorder — surface it rather than hide it.
func (r *Recorder) Dropped() int64 {
	if r == nil {
		return 0
	}
	return r.dropped.Load()
}

func (r *Recorder) drainLoop() {
	for b := range r.full {
		if b == nil {
			r.synced <- struct{}{}
			continue
		}
		r.consume(b)
		r.free <- b[:0]
	}
	close(r.synced)
}

// consume delivers b to the sinks straight from the batch (the Sink
// contract already limits the pointee's lifetime to the Consume call,
// so no defensive copy is needed). It reads r.sinks once: that word
// shares a cache line with mu, which producers write on every Emit.
func (r *Recorder) consume(b []Event) {
	sinks := r.sinks
	for i := range b {
		for _, s := range sinks {
			s.Consume(&b[i])
		}
	}
}

// drainLocked waits until the drain goroutine has consumed every batch
// handed to it, then consumes the partial batch on this goroutine. The
// caller holds mu, so no batch can be handed off meanwhile and the
// sinks still see one Consume at a time, in Seq order.
func (r *Recorder) drainLocked() {
	if !r.closed {
		r.full <- nil
	}
	<-r.synced
	r.consume(r.cur)
	r.cur = r.cur[:0]
}

// View is the read path for sinks while the recorder runs: it delivers
// every buffered event to the sinks, then runs fn while no sink can
// consume, so fn reads any sink — a single-goroutine analyzer included
// — as of every event emitted before the call. It flushes nothing:
// document-style sinks (the Chrome exporter writes a single JSON
// document on Flush) keep their output open. On a nil recorder View
// just runs fn.
//
// fn runs under the producer mutex, with emitters waiting. So fn must
// not call back into the recorder (Emit, View, Flush, Close), the same
// rule as Consume, nor take a lock that an emitter may hold while it
// emits (Bus.Stats takes the arbiter's). And no caller of View may hold
// a lock that a sink's Consume takes: View waits for the drain
// goroutine, which may be waiting for that lock.
func (r *Recorder) View(fn func()) {
	if r == nil {
		fn()
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.drainLocked()
	fn()
}

// Flush delivers every buffered event and flushes every sink. Call it
// when the system is quiescent (no emitters mid-flight) to get a
// complete view.
func (r *Recorder) Flush() error {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock() // held through the sinks' Flush, so none overlaps a Consume
	r.drainLocked()
	var first error
	for _, s := range r.sinks {
		if err := s.Flush(); err != nil && first == nil {
			first = err
		}
	}
	return first
}

// Close stops the drain goroutine, delivers whatever remains and
// flushes the sinks. The recorder accepts (and discards) Emits
// afterwards.
func (r *Recorder) Close() error {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	if r.closed {
		r.mu.Unlock()
		return nil
	}
	r.closed = true
	close(r.full)
	r.mu.Unlock()
	return r.Flush()
}
