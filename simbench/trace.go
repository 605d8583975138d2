package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"futurebus/internal/bus"
	"futurebus/internal/obs"
	"futurebus/internal/obs/perf"
	"futurebus/internal/sim"
	"futurebus/internal/workload"
)

// Span kinds, one per call the traced run times from outside the
// program. A span's layer is the prefix of its name.
const (
	spanRun    = iota // sim.Engine.Run or sim.RunConcurrent
	spanNext          // workload.Generator.Next
	spanStall         // Board.Stall
	spanProbe         // Board.UsesBusNext
	spanHit           // Board.Read/Write that did not stall
	spanBusRef        // Board.Read/Write that stalled on the bus
	numSpans
)

var spanNames = [numSpans]string{"sim.run", "workload.next", "cache.stall", "cache.probe", "cache.hit", "cache.bus_ref"}

// Sampling bounds the spans kept in memory: every sampleEvery-th
// reference of a board, at most maxSpans in all. Totals count every
// call.
const (
	sampleEvery = 64
	maxSpans    = 1 << 17
)

// span is one timed call. Times are host ns since the tracer started.
type span struct {
	kind       uint8
	board      int16
	start, end int64
	// parent is the run span the call happened under; ref is the
	// board's reference sequence number.
	parent int64
	ref    int64
}

// layerTotals are the counts and host times summed over every traced
// episode of a run.
type layerTotals struct {
	ns, n     [numSpans]int64
	deferrals int64
	// tx and phase come from the bus's transaction observer.
	tx    int64
	phase [6]int64
	// Per-sink Consume time and calls, in build's sink order.
	consumeNs, consumeN [4]int64
	dropped             int64
}

func (a *layerTotals) add(b *layerTotals) {
	for i := range a.ns {
		a.ns[i] += b.ns[i]
		a.n[i] += b.n[i]
	}
	a.deferrals += b.deferrals
	a.tx += b.tx
	for i := range a.phase {
		a.phase[i] += b.phase[i]
	}
	for i := range a.consumeNs {
		a.consumeNs[i] += b.consumeNs[i]
		a.consumeN[i] += b.consumeN[i]
	}
	a.dropped += b.dropped
}

// tracer collects a run's layer totals and sampled spans.
type tracer struct {
	base     time.Time
	totals   layerTotals
	spans    []span
	episodes int64
}

func newTracer() *tracer { return &tracer{base: time.Now()} }

func (t *tracer) now() int64 { return int64(time.Since(t.base)) }

// episodeTrace is one traced episode. Each board's counters belong to
// the goroutine driving that board; the rest is merged after the run.
type episodeTrace struct {
	t      *tracer
	id     int64
	boards []*boardTrace
	bus    layerTotals // tx and phase, from the bus observer
	sinks  []*timedSink
	rec    *obs.Recorder
}

func (t *tracer) newEpisode(boards int) *episodeTrace {
	t.episodes++
	et := &episodeTrace{t: t, id: t.episodes}
	for i := 0; i < boards; i++ {
		et.boards = append(et.boards, &boardTrace{t: t, board: int16(i), parent: et.id})
	}
	return et
}

// attach wraps every board and generator of the built system and
// installs the bus transaction observer. With selfStall (the concurrent
// engine, which never calls Stall) the board wrapper reads the stall
// counter itself to tell hits from bus references.
func (et *episodeTrace) attach(st *system, selfStall bool) {
	for i, b := range st.sys.Boards {
		bt := et.boards[i]
		st.sys.Boards[i] = &tracedBoard{Board: b, bt: bt, selfStall: selfStall}
		st.gens[i] = &tracedGen{Generator: st.gens[i], bt: bt}
	}
	st.sys.Bus.SetTrace(func(tx *bus.Transaction, r *bus.Result) {
		p := &r.Phases
		et.bus.tx++
		for i, v := range [6]int64{p.Addr, p.Data, p.Intervention, p.Memory, p.Retry, p.Pend} {
			et.bus.phase[i] += v
		}
	})
	et.rec = st.rec
}

// finish closes the episode's run span and merges its counters into
// the tracer.
func (et *episodeTrace) finish(start time.Time, wall time.Duration) {
	t := et.t
	from := int64(start.Sub(t.base))
	t.totals.ns[spanRun] += int64(wall)
	t.totals.n[spanRun]++
	if len(t.spans) < maxSpans {
		t.spans = append(t.spans, span{kind: spanRun, board: -1, start: from, end: from + int64(wall), parent: 0, ref: -1})
	}
	for _, bt := range et.boards {
		t.totals.add(&bt.layerTotals)
		t.keep(bt.spans)
	}
	t.totals.add(&et.bus)
	for i, s := range et.sinks {
		t.totals.consumeNs[i] += s.ns
		t.totals.consumeN[i] += s.n
	}
	t.totals.dropped += et.rec.Dropped()
}

func (t *tracer) keep(spans []span) {
	if room := maxSpans - len(t.spans); room < len(spans) {
		spans = spans[:max(room, 0)]
	}
	t.spans = append(t.spans, spans...)
}

// writeSpans writes the sampled spans as JSON lines.
func (t *tracer) writeSpans(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return fmt.Errorf("spans: %w", err)
	}
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("spans: %w", err)
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range t.spans {
		rec := struct {
			Name   string `json:"name"`
			Start  int64  `json:"start_ns"`
			End    int64  `json:"end_ns"`
			Parent int64  `json:"parent"`
			Board  int16  `json:"board"`
			Ref    int64  `json:"ref"`
		}{spanNames[s.kind], s.start, s.end, s.parent, s.board, s.ref}
		if err := enc.Encode(rec); err != nil {
			f.Close()
			return fmt.Errorf("spans: %w", err)
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return fmt.Errorf("spans: %w", err)
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("spans: %w", err)
	}
	return nil
}

// boardTrace is one board's share of an episode trace.
type boardTrace struct {
	layerTotals
	t      *tracer
	board  int16
	parent int64
	ref    int64
	spans  []span
}

func (bt *boardTrace) record(kind int, start, end int64) {
	bt.ns[kind] += end - start
	bt.n[kind]++
	if bt.ref%sampleEvery == 0 && len(bt.spans) < maxSpans/8 {
		bt.spans = append(bt.spans, span{
			kind: uint8(kind), board: bt.board, start: start, end: end, parent: bt.parent, ref: bt.ref,
		})
	}
}

// tracedGen times Generator.Next and numbers the board's references.
type tracedGen struct {
	workload.Generator
	bt *boardTrace
}

func (g *tracedGen) Next() workload.Ref {
	start := g.bt.t.now()
	r := g.Generator.Next()
	g.bt.ref++
	g.bt.record(spanNext, start, g.bt.t.now())
	return r
}

// tracedBoard times the engine's calls into a board. A Read or Write is
// a hit when the board's stall counter did not move across it; the
// deterministic engine reads that counter right before and right after
// every access, so the access is classified at the following Stall.
type tracedBoard struct {
	sim.Board
	bt        *boardTrace
	selfStall bool

	lastStall        int64
	open             bool
	accStart, accEnd int64
}

func (b *tracedBoard) Read(addr bus.Addr, word int) (uint32, error) {
	b.begin()
	v, err := b.Board.Read(addr, word)
	b.end()
	return v, err
}

func (b *tracedBoard) Write(addr bus.Addr, word int, val uint32) error {
	b.begin()
	err := b.Board.Write(addr, word, val)
	b.end()
	return err
}

func (b *tracedBoard) begin() {
	if b.selfStall {
		b.lastStall = b.Board.Stall()
	}
	b.accStart = b.bt.t.now()
}

func (b *tracedBoard) end() {
	b.accEnd = b.bt.t.now()
	b.open = true
	if b.selfStall {
		b.classify(b.Board.Stall())
	}
}

func (b *tracedBoard) classify(stall int64) {
	kind := spanHit
	if stall != b.lastStall {
		kind = spanBusRef
	}
	b.bt.record(kind, b.accStart, b.accEnd)
	b.open = false
	b.lastStall = stall
}

func (b *tracedBoard) Stall() int64 {
	start := b.bt.t.now()
	s := b.Board.Stall()
	b.bt.record(spanStall, start, b.bt.t.now())
	if b.open {
		b.classify(s)
	}
	b.lastStall = s
	return s
}

func (b *tracedBoard) UsesBusNext(addr bus.Addr, write bool) bool {
	start := b.bt.t.now()
	uses := b.Board.UsesBusNext(addr, write)
	b.bt.record(spanProbe, start, b.bt.t.now())
	if uses {
		b.bt.deferrals++
	}
	return uses
}

// timedSink times an obs.Sink's Consume. Consume runs on the
// recorder's drain goroutine (or under its drain lock), one call at a
// time; the totals are read after the recorder is closed.
type timedSink struct {
	obs.Sink
	ns, n int64
}

func (s *timedSink) Consume(e *obs.Event) {
	start := time.Now()
	s.Sink.Consume(e)
	s.ns += int64(time.Since(start))
	s.n++
}

// timedPerfSink keeps the perf sink findable by perf.FindSink, so the
// engine digests it the same way traced or not.
type timedPerfSink struct {
	*timedSink
	p interface{ PerfSink() *perf.Sink }
}

func (s timedPerfSink) PerfSink() *perf.Sink { return s.p.PerfSink() }

func (et *episodeTrace) wrapSinks(sinks []obs.Sink) []obs.Sink {
	out := make([]obs.Sink, len(sinks))
	for i, s := range sinks {
		ts := &timedSink{Sink: s}
		et.sinks = append(et.sinks, ts)
		out[i] = ts
		if p, ok := s.(interface{ PerfSink() *perf.Sink }); ok {
			out[i] = timedPerfSink{timedSink: ts, p: p}
		}
	}
	return out
}
