package main

import (
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"io"
	"runtime"
	"sort"
	"syscall"
	"time"

	"futurebus/internal/bus"
	"futurebus/internal/obs"
	"futurebus/internal/obs/obshttp"
	"futurebus/internal/obs/watch"
	"futurebus/internal/sim"
	"futurebus/internal/workload"
)

// options configure one benchmark run.
type options struct {
	workload string
	seed     uint64
	// seconds is how long the run keeps starting episodes.
	seconds float64
	// minEpisodes is the least number of episodes (rounds, in a traced
	// run) the run makes, however short seconds is.
	minEpisodes int
	trace       bool
	// refs, when non-zero, overrides the scenario's references per board
	// per episode; the benchmark's test uses it for tiny runs.
	refs int
	// fault names an internal/faults wrapper injected into board 0: a
	// deliberately broken protocol whose runs must count as failed.
	fault string
	// spansOut is the file a traced run writes its sampled spans to
	// ("" = keep them in memory only).
	spansOut string
}

// episode is one system built from empty caches, driven through every
// board's reference stream, and checked.
type episode struct {
	refs  int64
	setup time.Duration
	wall  time.Duration
	// cpu is the process's CPU time (user and system, every thread)
	// over the run: the engine's goroutines, the GC and, on ab-observed,
	// the recorder's drain. Unlike wall it excludes time the process
	// waited for a CPU, so a busy host moves it much less.
	cpu     time.Duration
	mallocs uint64
	bytes   uint64
	numGC   uint32
	pauseNs uint64
	verify  time.Duration
	m       sim.Metrics
	// stream is the reference stream the episode ran (see streams).
	stream int
	digest string
	// watchViolations is the live invariant monitor's total (observed
	// workloads only).
	watchViolations int64
	// failed names the check the episode failed, "" when all passed.
	failed string
}

// system is an assembled, not yet run, episode.
type system struct {
	sys   *sim.System
	gens  []workload.Generator
	rec   *obs.Recorder
	watch *obshttp.WatchSink
}

// build assembles the scenario's system: sim.New, the generators of the
// given stream and, for an observed workload, the recorder and its
// sinks. wrap, when non-nil, wraps the sinks before the recorder is made
// (the traced run times each sink's Consume).
func build(sc scenario, o options, stream int, wrap func([]obs.Sink) []obs.Sink) (*system, error) {
	boards := append([]sim.BoardSpec(nil), sc.boards...)
	if o.fault != "" {
		boards[0].Fault = o.fault
	}
	cfg := sim.Config{
		Boards: boards, Shards: sc.shards, Tenure: sc.tenure, Discipline: sc.discipline,
		Shadow: true,
	}
	st := &system{}
	if sc.observed {
		st.watch = obshttp.NewWatchSink(watch.Config{}, nil)
		sinks := []obs.Sink{
			obs.NewRecordSink(io.Discard, obs.TraceMeta{Fingerprint: "simbench " + sc.name}),
			&obshttp.CoherenceSink{},
			st.watch,
			obshttp.NewPerfSink(nil),
		}
		if wrap != nil {
			sinks = wrap(sinks)
		}
		st.rec = obs.New(sinks...)
		cfg.Obs = st.rec
	}
	sys, err := sim.New(cfg)
	if err != nil {
		_ = st.rec.Close() // nothing was emitted; only the drain goroutine to stop
		return nil, err
	}
	st.sys = sys
	st.gens = sc.gens(len(sys.Boards), sys.WordsPerLine(), streamSeed(o.seed, stream))
	return st, nil
}

// runEpisode builds, runs and checks one episode on the given stream.
// tr, when non-nil, traces the calls into each layer. A panic anywhere
// in the program is reported as the episode's failed check: on this
// goroutine through the recover below, on the concurrent engine's board
// goroutines through runConcurrent.
func runEpisode(sc scenario, o options, stream int, tr *tracer) (ep episode) {
	refsPerProc := sc.refs
	if o.refs > 0 {
		refsPerProc = o.refs
	}
	ep.refs = int64(refsPerProc) * int64(len(sc.boards))
	ep.stream = stream
	defer func() {
		if p := recover(); p != nil {
			ep.failed = fmt.Sprintf("panic: %v", p)
		}
	}()

	var wrap func([]obs.Sink) []obs.Sink
	var et *episodeTrace
	if tr != nil {
		et = tr.newEpisode(len(sc.boards))
		wrap = et.wrapSinks
	}
	// Start every episode from a collected heap, so set-up and the run
	// do not pay for the previous episode's garbage. Set-up is timed in
	// process CPU time, like the run.
	runtime.GC()
	s0 := processCPU()
	st, err := build(sc, o, stream, wrap)
	ep.setup = processCPU() - s0
	if err != nil {
		ep.failed = "setup: " + err.Error()
		return ep
	}
	// Stops the recorder's drain goroutine should the run panic; the
	// recorder is closed (and its error checked) below otherwise.
	defer st.rec.Close()
	if et != nil {
		et.attach(st, sc.concurrent)
	}

	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	c0 := processCPU()
	t0 := time.Now()
	if sc.concurrent {
		ep.m, err = runConcurrent(st, refsPerProc)
	} else {
		eng := sim.Engine{Sys: st.sys, Gens: st.gens}
		ep.m, err = eng.Run(refsPerProc)
	}
	ep.wall = time.Since(t0)
	ep.cpu = processCPU() - c0
	runtime.ReadMemStats(&after)
	ep.mallocs = after.Mallocs - before.Mallocs
	ep.bytes = after.TotalAlloc - before.TotalAlloc
	ep.numGC = after.NumGC - before.NumGC
	ep.pauseNs = after.PauseTotalNs - before.PauseTotalNs
	closeErr := st.rec.Close()
	if et != nil {
		et.finish(t0, ep.wall)
	}

	var bp *boardPanic
	switch {
	case errors.As(err, &bp):
		ep.failed = "panic: " + bp.Error()
		return ep
	case err != nil:
		ep.failed = "engine: " + err.Error()
		return ep
	case ep.m.Refs != ep.refs:
		ep.failed = fmt.Sprintf("refs: retired %d of %d", ep.m.Refs, ep.refs)
		return ep
	}
	v0 := time.Now()
	err = st.sys.Checker().MustPass()
	ep.verify = time.Since(v0)
	ep.digest = digest(ep.m)
	switch {
	case err != nil:
		ep.failed = "checker: " + err.Error()
	case ep.m.Bus.RetryExhausted != 0:
		ep.failed = fmt.Sprintf("retry-exhausted: %d transactions", ep.m.Bus.RetryExhausted)
	case closeErr != nil:
		ep.failed = "obs-close: " + closeErr.Error()
	case st.rec.Dropped() != 0:
		ep.failed = fmt.Sprintf("obs-dropped: %d events", st.rec.Dropped())
	}
	if st.watch != nil {
		rep := st.watch.Report()
		ep.watchViolations = rep.Total
		if rep.Total != 0 && ep.failed == "" {
			ep.failed = fmt.Sprintf("watch: %d violations, first %v", rep.Total, rep.First)
		}
	}
	return ep
}

// panicGrace is how long the other boards get to finish once one board
// of a concurrent run has panicked. The panic may leave a lock of the
// system held; boards still waiting on it after panicGrace are
// abandoned, blocked, with the rest of that episode's system.
const panicGrace = 2 * time.Second

// runConcurrent drives the system with sim.RunConcurrent, every board
// wrapped so that a panic on its goroutine fails the episode instead of
// the process.
func runConcurrent(st *system, refsPerProc int) (sim.Metrics, error) {
	panics := make(chan *boardPanic, len(st.sys.Boards))
	for i, b := range st.sys.Boards {
		st.sys.Boards[i] = &recoveringBoard{Board: b, panics: panics}
	}
	type result struct {
		m   sim.Metrics
		err error
	}
	done := make(chan result, 1)
	go func() {
		m, err := sim.RunConcurrent(st.sys, st.gens, refsPerProc)
		done <- result{m, err}
	}()
	select {
	case r := <-done:
		return r.m, r.err
	case p := <-panics:
		select {
		case <-done:
		case <-time.After(panicGrace):
		}
		return sim.Metrics{}, p
	}
}

// boardPanic is a panic inside a board's Read or Write.
type boardPanic struct{ v any }

func (p *boardPanic) Error() string { return fmt.Sprint(p.v) }

// recoveringBoard returns a panic in Read or Write as the access's
// error, and reports it on panics. A board's goroutine stops at its
// first error, so each board reports at most once.
type recoveringBoard struct {
	sim.Board
	panics chan<- *boardPanic
}

func (b *recoveringBoard) Read(addr bus.Addr, word int) (v uint32, err error) {
	defer b.recover(&err)
	return b.Board.Read(addr, word)
}

func (b *recoveringBoard) Write(addr bus.Addr, word int, val uint32) (err error) {
	defer b.recover(&err)
	return b.Board.Write(addr, word, val)
}

func (b *recoveringBoard) recover(err *error) {
	if v := recover(); v != nil {
		p := &boardPanic{v}
		*err = p
		b.panics <- p
	}
}

// digest fingerprints every simulated statistic of a run: two runs of
// the deterministic engine on the same inputs must agree on it.
func digest(m sim.Metrics) string {
	sum := sha256.Sum256([]byte(fmt.Sprintf("%d %d %+v %+v %+v", m.Refs, m.ElapsedNanos, m.Bus, m.Memory, m.Cache)))
	return hex.EncodeToString(sum[:8])
}

// outcome is everything one benchmark run measured.
type outcome struct {
	sc  scenario
	opt options
	// plain are the untraced episodes, traced the traced ones, and
	// companion the untraced ab-hits episodes an ab-observed traced run
	// interleaves to measure the obs share.
	plain, traced, companion []episode
	tr                       *tracer
	// digests are each stream's simulated-stat digest, set by the
	// stream's first successful episode.
	digests           [streams]string
	attempted, failed int64
	failures          []string
	peakRSSMB         float64
}

// run makes episodes until the time is up and the last cycle of streams
// is whole. An untraced run makes only plain episodes; a traced run
// makes rounds of one plain and one traced episode (plus one ab-hits
// companion on ab-observed).
func run(o options) (*outcome, error) {
	sc, ok := findScenario(o.workload)
	if !ok {
		return nil, fmt.Errorf("unknown workload %q", o.workload)
	}
	out := &outcome{sc: sc, opt: o}
	var companion scenario
	if o.trace {
		out.tr = newTracer()
		if sc.observed {
			companion, _ = findScenario("ab-hits")
		}
	}
	deadline := time.Now().Add(time.Duration(o.seconds * float64(time.Second)))
	// A timed run ends on a whole cycle of streams, so every stream
	// weighs the same in the medians, and a seed's simulated metrics
	// repeat exactly however many cycles the host managed.
	more := func(round int) bool {
		return round < o.minEpisodes ||
			o.seconds > 0 && (round%streams != 0 || time.Now().Before(deadline))
	}
	for round := 0; more(round); round++ {
		stream := round % streams
		out.add(&out.plain, runEpisode(sc, o, stream, nil), !sc.concurrent)
		if !o.trace {
			continue
		}
		out.add(&out.traced, runEpisode(sc, o, stream, out.tr), !sc.concurrent)
		if companion.name != "" {
			out.add(&out.companion, runEpisode(companion, o, stream, nil), true)
		}
	}
	out.peakRSSMB = peakRSSMB()
	if o.trace && o.spansOut != "" {
		if err := out.tr.writeSpans(o.spansOut); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// add records one episode. With checkDigest, its simulated statistics
// must match the first successful episode of its stream: the same seed
// gives the same inputs, so the deterministic engine must give the same
// result every time, traced or not.
func (out *outcome) add(list *[]episode, ep episode, checkDigest bool) {
	if ep.failed == "" && checkDigest {
		ref := &out.digests[ep.stream]
		if *ref == "" {
			*ref = ep.digest
		} else if ep.digest != *ref {
			ep.failed = fmt.Sprintf("digest: stream %d gave %s, earlier %s", ep.stream, ep.digest, *ref)
		}
	}
	out.attempted += ep.refs
	if ep.failed != "" {
		out.failed += ep.refs
		out.failures = append(out.failures, ep.failed)
	}
	*list = append(*list, ep)
}

// median returns the median of f over the episodes.
func median(eps []episode, f func(episode) float64) float64 {
	if len(eps) == 0 {
		return 0
	}
	v := make([]float64, len(eps))
	for i, ep := range eps {
		v[i] = f(ep)
	}
	sort.Float64s(v)
	if n := len(v); n%2 == 1 {
		return v[n/2]
	} else {
		return (v[n/2-1] + v[n/2]) / 2
	}
}

func perRef(v float64, ep episode) float64 { return v / float64(ep.refs) }

func hostNsPerRef(ep episode) float64 { return perRef(float64(ep.wall.Nanoseconds()), ep) }

func hostCPUNsPerRef(ep episode) float64 { return perRef(float64(ep.cpu.Nanoseconds()), ep) }

// processCPU is the user plus system time of every thread of the
// process so far.
func processCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}
