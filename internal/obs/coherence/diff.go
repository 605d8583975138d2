package coherence

import (
	"fmt"
	"io"
	"sort"

	"futurebus/internal/obs/regress"
)

// DiffRow compares one per-protocol coherence rate between two runs.
type DiffRow struct {
	Proto  string  `json:"proto"`
	Metric string  `json:"metric"`
	Old    float64 `json:"old"`
	New    float64 `json:"new"`
	Delta  float64 `json:"delta"`
	// Rel is Delta/Old (0 when Old is 0).
	Rel float64 `json:"rel"`
	// Regression is set when the metric moved in its bad direction
	// past both thresholds.
	Regression bool `json:"regression,omitempty"`
}

// DiffReport is the result of comparing two analyses.
type DiffReport struct {
	Rows        []DiffRow `json:"rows"`
	Regressions int       `json:"regressions"`
	// MatrixDelta sums |new-old| over every transition-matrix cell,
	// per protocol — a quick "did the protocol behave differently at
	// all" signal.
	MatrixDelta map[string]int64 `json:"matrix_delta,omitempty"`
}

// diffMetric defines one compared rate. worseUp: an increase is bad
// (more invalidation traffic, more memory trips); worseDown would be
// the opposite — every current metric is worseUp except cache-sourced
// share, where a drop is the regression.
type diffMetric struct {
	name    string
	value   func(*ProtoAnalysis) float64
	worseUp bool
}

var diffMetrics = []diffMetric{
	{"inv-per-transition", func(p *ProtoAnalysis) float64 { return rate(p.Invalidations, p.Transitions) }, true},
	{"ownership-moves-per-transition", func(p *ProtoAnalysis) float64 { return rate(p.OwnershipMoves, p.Transitions) }, true},
	{"inv-fanout-mean", func(p *ProtoAnalysis) float64 { return FanoutMean(p.InvFanout) }, true},
	{"upd-fanout-mean", func(p *ProtoAnalysis) float64 { return FanoutMean(p.UpdFanout) }, true},
	{"mem-sourced-share", func(p *ProtoAnalysis) float64 { return rate(p.MemSourced, p.CacheSourced+p.MemSourced) }, true},
	{"cache-sourced-share", func(p *ProtoAnalysis) float64 { return rate(p.CacheSourced, p.CacheSourced+p.MemSourced) }, false},
}

func rate(num, den int64) float64 {
	if den == 0 {
		return 0
	}
	return float64(num) / float64(den)
}

// Diff compares two analyses protocol by protocol. A row is a
// regression when the metric moved in its bad direction by more than
// absThresh absolutely AND more than relThresh relatively (so tiny
// rates can't trip the relative gate, and identical runs always diff
// clean — the shared regress.Thresholds double gate). Protocols
// present in only one run are compared against zero.
func Diff(oldA, newA *Analysis, relThresh, absThresh float64) *DiffReport {
	th := regress.Thresholds{Rel: relThresh, Abs: absThresh}
	r := &DiffReport{MatrixDelta: make(map[string]int64)}
	for _, proto := range unionProtos(oldA, newA) {
		op, np := protoOrZero(oldA, proto), protoOrZero(newA, proto)
		var md int64
		for f := 0; f < NumStates; f++ {
			for t := 0; t < NumStates; t++ {
				d := np.Matrix[f][t] - op.Matrix[f][t]
				if d < 0 {
					d = -d
				}
				md += d
			}
		}
		if md != 0 {
			r.MatrixDelta[proto] = md
		}
		for _, m := range diffMetrics {
			ov, nv := m.value(op), m.value(np)
			row := DiffRow{Proto: proto, Metric: m.name, Old: ov, New: nv, Delta: nv - ov}
			if ov != 0 {
				row.Rel = row.Delta / ov
			}
			bad := row.Delta
			if !m.worseUp {
				bad = -bad
			}
			if th.Breached(ov, bad) {
				row.Regression = true
				r.Regressions++
			}
			r.Rows = append(r.Rows, row)
		}
	}
	return r
}

func unionProtos(a, b *Analysis) []string {
	set := make(map[string]bool)
	for n := range a.Protocols {
		set[n] = true
	}
	for n := range b.Protocols {
		set[n] = true
	}
	names := make([]string, 0, len(set))
	for n := range set {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

func protoOrZero(a *Analysis, name string) *ProtoAnalysis {
	if p, ok := a.Protocols[name]; ok {
		return p
	}
	return &ProtoAnalysis{}
}

// Render writes the diff as a table, regressions flagged, ending with
// either "no regressions" or a count — the same contract fbt lens
// diff's exit status relies on.
func (r *DiffReport) Render(w io.Writer) {
	fmt.Fprintf(w, "%-12s %-30s %12s %12s %12s\n", "protocol", "metric", "old", "new", "delta")
	for _, row := range r.Rows {
		mark := ""
		if row.Regression {
			mark = "  <-- regression"
		}
		fmt.Fprintf(w, "%-12s %-30s %12.4f %12.4f %+12.4f%s\n",
			row.Proto, row.Metric, row.Old, row.New, row.Delta, mark)
	}
	for _, proto := range sortedKeys(r.MatrixDelta) {
		fmt.Fprintf(w, "matrix delta %s: %d transitions differ\n", proto, r.MatrixDelta[proto])
	}
	if r.Regressions == 0 {
		fmt.Fprintln(w, "no regressions")
	} else {
		fmt.Fprintf(w, "%d regressions\n", r.Regressions)
	}
}

func sortedKeys(m map[string]int64) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
