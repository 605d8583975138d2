package obs

import (
	"io"
	"sync"
	"sync/atomic"
	"syscall"
	"testing"
	"time"

	"futurebus/internal/obs/leaktest"
)

// TestRecorderConcurrentEmit: many producers through a buffer far
// smaller than the events emitted, so batches hand off to the drain
// goroutine thousands of times, while another goroutine keeps calling
// View, which consumes partial batches itself and then reads the sink.
// Every event arrives exactly once, Seq as the sink sees it counts up
// from zero without a gap (the drain order is the global emission
// order), and each producer's events keep its own order. The sink
// takes no lock: the recorder alone must order its Consume calls and
// keep them off View's reads, which -race checks.
func TestRecorderConcurrentEmit(t *testing.T) {
	leaktest.Check(t)
	const producers, each = 8, 5000
	var got []Event
	rec := newSized(64, SinkFunc(func(e *Event) { got = append(got, *e) }))
	var wg sync.WaitGroup
	for p := 0; p < producers; p++ {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			for i := 0; i < each; i++ {
				rec.Emit(&Event{Kind: KindTx, Proc: int32(p), Addr: uint64(i)})
			}
		}(p)
	}
	stop, drained := make(chan struct{}), make(chan struct{})
	go func() {
		defer close(drained)
		for {
			select {
			case <-stop:
				return
			default:
				rec.View(func() {
					if n := len(got); n > 0 && got[n-1].Seq != uint64(n-1) {
						t.Errorf("View saw %d events ending at Seq %d", n, got[n-1].Seq)
					}
				})
			}
		}
	}()
	wg.Wait()
	close(stop)
	<-drained
	if err := rec.Close(); err != nil {
		t.Fatal(err)
	}
	if len(got) != producers*each {
		t.Fatalf("got %d events, want %d", len(got), producers*each)
	}
	next := make([]uint64, producers)
	for i, e := range got {
		if e.Seq != uint64(i) {
			t.Fatalf("event %d arrived with Seq %d", i, e.Seq)
		}
		if e.Addr != next[e.Proc] {
			t.Fatalf("producer %d reordered: addr %d, want %d", e.Proc, e.Addr, next[e.Proc])
		}
		next[e.Proc]++
	}
}

// TestNilRecorder: the nil fast path is inert and safe.
func TestNilRecorder(t *testing.T) {
	var r *Recorder
	r.Emit(&Event{Kind: KindTx})
	r.Advance(100)
	ran := false
	r.View(func() { ran = true })
	if !ran {
		t.Error("nil View skipped fn")
	}
	if r.Clock() != 0 {
		t.Error("nil clock moved")
	}
	if err := r.Flush(); err != nil {
		t.Error(err)
	}
	if err := r.Close(); err != nil {
		t.Error(err)
	}
	if FindHistogram(r) != nil {
		t.Error("nil recorder has a histogram")
	}
}

// TestRecorderClock: Advance returns the pre-advance value (the begin
// timestamp of the span being paid for).
func TestRecorderClock(t *testing.T) {
	rec := New()
	defer rec.Close()
	if begin := rec.Advance(100); begin != 0 {
		t.Errorf("first Advance returned %d", begin)
	}
	if begin := rec.Advance(50); begin != 100 {
		t.Errorf("second Advance returned %d", begin)
	}
	if rec.Clock() != 150 {
		t.Errorf("clock = %d", rec.Clock())
	}
}

// TestRecorderDropped: emits after Close are counted, not silently
// lost; an emit that races Close is either delivered or counted; and
// the drain goroutine is provably gone.
func TestRecorderDropped(t *testing.T) {
	leaktest.Check(t)
	var got int
	rec := newSized(16, SinkFunc(func(*Event) { got++ }))
	rec.Emit(&Event{Kind: KindTx})
	if err := rec.Close(); err != nil {
		t.Fatal(err)
	}
	if rec.Dropped() != 0 {
		t.Errorf("dropped before close = %d", rec.Dropped())
	}
	rec.Emit(&Event{Kind: KindTx})
	rec.Emit(&Event{Kind: KindStall})
	if rec.Dropped() != 2 {
		t.Errorf("dropped = %d, want 2", rec.Dropped())
	}
	if got != 1 {
		t.Errorf("delivered = %d, want 1", got)
	}
	var nilRec *Recorder
	if nilRec.Dropped() != 0 {
		t.Error("nil recorder dropped != 0")
	}

	// Producers still emitting while Close runs.
	const producers = 8
	var delivered int64
	rec = newSized(64, SinkFunc(func(*Event) { delivered++ }))
	var emitted atomic.Int64
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for p := 0; p < producers; p++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				rec.Emit(&Event{Kind: KindTx})
				emitted.Add(1)
			}
		}()
	}
	time.Sleep(2 * time.Millisecond)
	if err := rec.Close(); err != nil {
		t.Fatal(err)
	}
	close(stop)
	wg.Wait()
	if delivered+rec.Dropped() != emitted.Load() {
		t.Errorf("%d delivered + %d dropped of %d emitted", delivered, rec.Dropped(), emitted.Load())
	}
}

// TestRecorderStalledSinkParks: a producer that outruns a stalled sink
// parks until a batch comes back instead of spinning, and once the
// sink resumes every event arrives exactly once, in Seq order.
func TestRecorderStalledSinkParks(t *testing.T) {
	leaktest.Check(t)
	const buffer, window = 64, 200 * time.Millisecond
	release := make(chan struct{})
	var seqs []uint64
	rec := newSized(buffer, SinkFunc(func(e *Event) {
		<-release
		seqs = append(seqs, e.Seq)
	}))
	emitted := make(chan struct{})
	go func() {
		defer close(emitted)
		for i := 0; i < 4*buffer; i++ {
			rec.Emit(&Event{Kind: KindTx})
		}
	}()
	time.Sleep(window / 10) // the producer fills every batch and waits
	c0 := processCPU(t)
	time.Sleep(window)
	cpu := processCPU(t) - c0
	close(release)
	<-emitted
	if err := rec.Close(); err != nil {
		t.Fatal(err)
	}
	if cpu > window/4 {
		t.Errorf("process used %v of CPU while the sink stalled for %v", cpu, window)
	}
	if len(seqs) != 4*buffer {
		t.Fatalf("delivered %d events, want %d", len(seqs), 4*buffer)
	}
	for i, s := range seqs {
		if s != uint64(i) {
			t.Fatalf("event %d arrived with Seq %d", i, s)
		}
	}
}

// TestRecorderEmitAllocFree: once its batches have cycled and the
// sink's dictionaries hold the event's strings, Emit allocates nothing,
// on the emitting goroutine or the drain goroutine.
func TestRecorderEmitAllocFree(t *testing.T) {
	rec := New(NewRecordSink(io.Discard, TraceMeta{Fingerprint: "alloc"}))
	defer rec.Close()
	e := Event{Kind: KindTx, Proc: 1, Addr: 0x40, Col: 5, Op: OpRead, Dur: 425, Bytes: 32}
	for i := 0; i < 4*DefaultBuffer; i++ {
		rec.Emit(&e)
	}
	rec.View(func() {})
	if n := testing.AllocsPerRun(4*DefaultBuffer, func() { rec.Emit(&e) }); n != 0 {
		t.Errorf("warm Emit allocates %v times per event", n)
	}
}

// processCPU is the process's CPU time so far, user and system, every
// thread.
func processCPU(t *testing.T) time.Duration {
	t.Helper()
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		t.Fatal(err)
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}
