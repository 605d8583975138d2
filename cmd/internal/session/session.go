// Package session holds what fbsim and fbsweep share: the flags that
// size a run, choose its bus and ask for observability, and the
// observability session those flags describe — the recorder and the
// sinks it carries, the live HTTP service, and the one end of every
// run: the teardown, the trace notes, the invariant verdict and the
// exit status. Its '-'-or-file JSON writer
// also writes fbperf's and fbtrend's documents.
package session

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"time"

	"futurebus/internal/bus"
	"futurebus/internal/obs"
	"futurebus/internal/obs/ledger"
	"futurebus/internal/obs/obshttp"
	"futurebus/internal/obs/perf"
	"futurebus/internal/obs/watch"
)

// Flags are the command-line flags fbsim and fbsweep both parse. In
// fbsweep the system flags apply to every flat system the sweep builds,
// except the tenure × discipline axis P11 sweeps itself. P9's trees run
// atomic tenure under one FCFS arbiter, unsharded, whatever -shards,
// -bus, -discipline and -pending-table say; P9's report names the ones
// it ignored.
type Flags struct {
	Refs         int
	Seed         uint64
	Shards       int
	Bus          string
	Discipline   string
	PendingTable int
	TraceOut     string
	RecordOut    string
	MetricsJSON  string
	Hist         bool
	Perf         bool
	Watch        bool
	Serve        string
	ServeLinger  time.Duration
}

// Register defines the shared flags on fs.
func (f *Flags) Register(fs *flag.FlagSet) {
	fs.IntVar(&f.Refs, "refs", 20000, "references per board")
	fs.Uint64Var(&f.Seed, "seed", 1986, "workload seed")
	fs.IntVar(&f.Shards, "shards", 1, "fabric shards: 1 = single Futurebus, N>1 = address-interleaved multi-bus backplane")
	fs.StringVar(&f.Bus, "bus", "", "bus tenure policy: atomic (one grant covers the whole transaction; default) or split (address and data phases are separate grants)")
	fs.StringVar(&f.Discipline, "discipline", "", "arbitration discipline: fcfs (default), rr, priority or bounded")
	fs.IntVar(&f.PendingTable, "pending-table", 0, "split-mode pending-transaction table size per shard (0 = default)")
	fs.StringVar(&f.TraceOut, "trace-out", "", "write a Chrome trace-event JSON file (open in Perfetto / chrome://tracing)")
	fs.StringVar(&f.RecordOut, "record-out", "", "write the full event stream as a compact binary .fbt trace (analyze offline with fbt)")
	fs.StringVar(&f.MetricsJSON, "metrics-json", "", "write the run metrics (fbsweep: the report tables) as JSON to this file ('-' = stdout)")
	fs.BoolVar(&f.Hist, "hist", false, "print p50/p95/p99 latency/stall/retry histograms")
	fs.BoolVar(&f.Perf, "perf", false, "collect saturation telemetry (arb-wait/tenure/retry/mem-service quantiles, arbitration queue depths): fbsim prints the report, fbsweep's P1 gains the p99arb and peakQ columns")
	fs.BoolVar(&f.Watch, "watch", false, "run the live invariant monitor; print violations and exit 1 if any")
	fs.StringVar(&f.Serve, "serve", "", "serve live observability on this address ("+obshttp.EndpointList()+")")
	fs.DurationVar(&f.ServeLinger, "serve-linger", 0, "keep the -serve endpoint up this long after the run finishes (SIGINT or SIGTERM ends it early)")
}

// Options describe a tool's part in its session.
type Options struct {
	// Tool prefixes the session's notes on stderr.
	Tool string
	// Fingerprint identifies the configuration in the .fbt trace
	// -record-out writes, so fbt diff can tell comparable runs apart.
	Fingerprint string
	// JSONLOut, when set, also writes the raw event stream as JSON
	// Lines to this file.
	JSONLOut string
	// Sinks are the tool's own sinks.
	Sinks []obs.Sink
	// Ledger, when set, has the -serve endpoint judge the live run
	// against this run ledger's rolling baseline on /trend.
	Ledger string
	// PerRunPerf says the tool's runs collect saturation telemetry on
	// private recorders when no shared recorder covers them (fbsweep:
	// P11 always, P1 under -perf). A shared recorder then carries a perf
	// sink in their place, so tracing never blanks a saturation column.
	PerRunPerf bool
}

// Session is one run's observability.
type Session struct {
	// Rec is the recorder every system the run builds emits into; nil
	// when nothing consumes events.
	Rec *obs.Recorder
	// Svc is the live service under -serve, else nil.
	Svc *obshttp.Service

	f      *Flags
	tool   string
	stderr io.Writer
	files  []*os.File
	mon    *watch.Monitor
	srv    *obshttp.Server
}

// Start checks the shared flags, then creates the trace files and sinks
// f and o ask for, the recorder they attach to when anything consumes
// events, and under -serve the running endpoint. It checks the -bus and
// -discipline names too, so every tool refuses a bad one alike, even one
// whose runs would ignore it (P9's trees). A tool that configures Svc
// further (labels, gauges) does so before its run starts, and ends the
// session with End. The session's notes go to stderr.
func Start(f *Flags, o Options, stderr io.Writer) (_ *Session, err error) {
	switch {
	case o.Ledger != "" && f.Serve == "":
		return nil, errors.New("-ledger requires -serve (the verdict lives on /trend)")
	case f.Refs <= 0:
		return nil, fmt.Errorf("-refs %d: want at least one reference per board", f.Refs)
	case f.PendingTable < 0:
		return nil, fmt.Errorf("-pending-table %d: want a table size, or 0 for the default", f.PendingTable)
	}
	if _, err := bus.NewTenure(f.Bus, f.PendingTable); err != nil {
		return nil, fmt.Errorf("-bus %s: %w", f.Bus, err)
	}
	if _, err := bus.NewDiscipline(f.Discipline); err != nil {
		return nil, fmt.Errorf("-discipline %s: %w", f.Discipline, err)
	}
	s := &Session{f: f, tool: o.Tool, stderr: stderr}
	defer func() {
		if err != nil {
			_ = s.Rec.Close() // the failure is already being reported
			for _, file := range s.files {
				file.Close()
			}
		}
	}()
	sinks := o.Sinks
	if f.TraceOut != "" {
		w, err := s.create(f.TraceOut)
		if err != nil {
			return nil, err
		}
		sinks = append(sinks, obs.NewChromeTraceSink(w))
	}
	if o.JSONLOut != "" {
		w, err := s.create(o.JSONLOut)
		if err != nil {
			return nil, err
		}
		sinks = append(sinks, obs.NewJSONLSink(w))
	}
	if f.RecordOut != "" {
		w, err := s.create(f.RecordOut)
		if err != nil {
			return nil, err
		}
		sinks = append(sinks, obs.NewRecordSink(w, obs.TraceMeta{Fingerprint: o.Fingerprint}))
	}
	if f.Hist {
		sinks = append(sinks, obs.NewHistogramSink())
	}
	switch {
	case f.Serve != "":
		// The service carries the perf sink and, under -watch, the
		// monitor, so /perf, /violations and their metrics are live.
		s.Svc = obshttp.NewService(0)
		if f.Watch {
			s.mon = s.Svc.EnableWatch(watch.Config{}).Monitor
		}
		sinks = append(sinks, s.Svc.Sinks()...)
	case f.Watch:
		// Each system a sweep builds emits a KindEpoch marker, so one
		// monitor watches the whole battery without carrying shadow
		// state from one system into the next.
		s.mon = watch.New(watch.Config{})
		sinks = append(sinks, s.mon)
	}
	// Saturation telemetry: -perf asks for it, except in a tool whose
	// runs collect it on private recorders (PerRunPerf); those need it
	// on the shared recorder whenever one replaces theirs. A served
	// run's service already carries a perf sink.
	needPerf := f.Perf
	if o.PerRunPerf {
		needPerf = len(sinks) > 0
	}
	if needPerf && s.Svc == nil {
		sinks = append(sinks, perf.NewSink())
	}
	if len(sinks) > 0 {
		s.Rec = obs.New(sinks...)
	}
	if s.Svc == nil {
		return s, nil
	}
	s.Svc.ObserveRecorder(s.Rec)
	if o.Ledger != "" {
		if _, err := s.Svc.EnableTrend(o.Ledger, "", ledger.GateOpts{}); err != nil {
			return nil, err
		}
	}
	if s.srv, err = s.Svc.Serve(f.Serve); err != nil {
		return nil, err
	}
	fmt.Fprintf(s.stderr, "%s: serving observability on %s (%s)\n", s.tool, s.srv.URL(), obshttp.EndpointList())
	return s, nil
}

// End ends a run, failed (err) or not, through one path: it closes the
// session, flushing every trace file and sink; calls report, unless the
// run or the close failed, to print what reads the closed sinks; prints
// the -watch verdict (the summary to w after prefix, each violation on
// stderr), then any error; and returns the exit status, 1 for an error
// or a violated invariant.
func (s *Session) End(w io.Writer, prefix string, err error, report func() error) int {
	if err = errors.Join(err, s.close()); err == nil {
		err = report()
	}
	status := 0
	if s.mon != nil {
		rep := s.mon.Report()
		fmt.Fprintf(w, "%sinvariants: %s\n", prefix, rep.Summary())
		for i := range rep.Violations {
			fmt.Fprintf(s.stderr, "%s: %s\n", s.tool, rep.Violations[i].String())
		}
		if rep.Total > 0 {
			status = 1
		}
	}
	if err != nil {
		fmt.Fprintf(s.stderr, "%s: %v\n", s.tool, err)
		status = 1
	}
	return status
}

// close ends the session once the run is done: it keeps a served
// endpoint up for -serve-linger and stops it, closes the recorder
// (flushing every sink) and the trace files, warns about dropped
// events, and notes the traces written. The sinks stay readable
// through Rec afterwards.
func (s *Session) close() error {
	var errs []error
	if s.srv != nil {
		if d := s.f.ServeLinger; d > 0 {
			fmt.Fprintf(s.stderr, "%s: run finished; observability endpoint stays up for %s\n", s.tool, d)
			s.srv.Linger(d)
		}
		errs = append(errs, s.srv.Close())
	}
	if s.Rec == nil {
		return errors.Join(errs...)
	}
	errs = append(errs, s.Rec.Close())
	obs.WarnDropped(s.stderr, s.tool, s.Rec)
	for _, f := range s.files {
		errs = append(errs, f.Close())
	}
	if err := errors.Join(errs...); err != nil {
		return err
	}
	if s.f.TraceOut != "" {
		fmt.Fprintf(s.stderr, "%s: wrote Chrome trace to %s (open in https://ui.perfetto.dev)\n", s.tool, s.f.TraceOut)
	}
	if s.f.RecordOut != "" {
		fmt.Fprintf(s.stderr, "%s: wrote binary trace to %s (fbt causal analyze %s)\n", s.tool, s.f.RecordOut, s.f.RecordOut)
	}
	return nil
}

// create opens a trace file the session closes after the recorder.
func (s *Session) create(path string) (*os.File, error) {
	f, err := os.Create(path)
	if err == nil {
		s.files = append(s.files, f)
	}
	return f, err
}

// WriteJSON writes v as indented JSON to the file at path, or to
// stdout when path is "-".
func WriteJSON(stdout io.Writer, path string, v any) error {
	out, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	out = append(out, '\n')
	if path == "-" {
		_, err = stdout.Write(out)
		return err
	}
	return os.WriteFile(path, out, 0o644)
}
