package obshttp

import (
	"futurebus/internal/obs/ledger"
)

// TrendSource judges the live run against the rolling baseline of a
// run ledger (see internal/obs/ledger and cmd/fbtrend). It holds the
// ledger history loaded at enable time — the ledger is append-only and
// the live process never writes it, so one read at startup is the
// whole contract — and builds the candidate record per request from
// the perf sink's current snapshot.
type TrendSource struct {
	perf    *PerfSink
	history []ledger.Record
	label   string
	opts    ledger.GateOpts
}

// NewTrendSource loads the ledger at path and filters it to fbperf
// records with the given label ("" keeps every fbperf record — fine
// when the ledger holds a single battery series). A truncated trailing
// record is tolerated, as everywhere else the ledger is read.
func NewTrendSource(path, label string, perfSink *PerfSink, opts ledger.GateOpts) (*TrendSource, error) {
	recs, _, err := ledger.Read(path)
	if err != nil {
		return nil, err
	}
	return &TrendSource{
		perf:    perfSink,
		history: ledger.Filter(recs, ledger.KindPerf, label),
		label:   label,
		opts:    opts,
	}, nil
}

// Gate snapshots the live perf telemetry and judges it against the
// rolling baseline. The candidate is ledger.PerfRecord of the snapshot,
// the function that flattens a finished fbperf report too, so a live
// verdict and a ledgered one agree on names; host-cost metrics only
// exist in finished fbperf reports and are simply absent here.
func (t *TrendSource) Gate() ledger.GateReport {
	return ledger.Gate(t.history, ledger.PerfRecord(t.label, t.perf.Snapshot(), nil), t.opts)
}

// EnableTrend attaches a rolling-baseline trend source to the service:
// /trend serves the live run's gate verdict against the ledger at
// path. Call before Serve. Idempotent — a second call returns the
// first source.
func (s *Service) EnableTrend(path, label string, opts ledger.GateOpts) (*TrendSource, error) {
	if s.Trend != nil {
		return s.Trend, nil
	}
	t, err := NewTrendSource(path, label, s.Perf, opts)
	if err != nil {
		return nil, err
	}
	s.Trend = t
	return t, nil
}
