package ledger

import (
	"fmt"
	"io"

	"futurebus/internal/obs/regress"
)

// Series extracts the chronological value series of one metric from
// the records (input order — the ledger is append-only, so input order
// is run order). Records lacking the key are skipped, so a metric that
// appears in only some runs still forms a dense series.
func Series(recs []Record, key string) []float64 {
	var out []float64
	for _, r := range recs {
		if v, ok := r.Metrics[key]; ok {
			out = append(out, v)
		}
	}
	return out
}

// GateOpts parameterize a rolling-baseline gate.
type GateOpts struct {
	// Window is the trailing-run count of the rolling baseline
	// (regress.DefaultWindow when 0). Fewer history runs than Window is
	// fine — the baseline uses what exists — but below MinRuns a metric
	// is not judged at all.
	Window int
	// K is the MAD multiplier of the noise envelope
	// (regress.DefaultK when 0).
	K float64
	// Rel overrides the relative floor when positive; by default each
	// metric key gets regress.ThresholdsFor's (5% for lens rates and a
	// benchmark's allocs/op and B/op, 10% for the rest). The absolute
	// floor is always the key's.
	Rel float64
	// MinRuns is the minimum baseline size required to judge a metric
	// (2 when 0): one prior run is a pairwise diff, not a baseline.
	MinRuns int
}

func (o GateOpts) withDefaults() GateOpts {
	if o.Window <= 0 {
		o.Window = regress.DefaultWindow
	}
	if o.K <= 0 {
		o.K = regress.DefaultK
	}
	if o.MinRuns <= 0 {
		o.MinRuns = 2
	}
	return o
}

// GateRow is one metric's verdict against its rolling baseline.
type GateRow struct {
	Key      string           `json:"key"`
	Baseline regress.Baseline `json:"baseline"`
	Value    float64          `json:"value"`
	// Direction is the regress.Direction string: "flat", "regressed"
	// or "improved".
	Direction string `json:"direction"`
	// Advisory marks metrics that are reported but never flip the
	// gate (regress.Advisory) and a bench record's intra-run ratios.
	Advisory bool `json:"advisory,omitempty"`
	// Limit is a ratio row's advisory bound (regress.BenchRatio); its
	// Direction is "regressed" when Value is past it.
	Limit float64 `json:"limit,omitempty"`
	// Skipped is set when the metric had fewer than MinRuns baseline
	// values and was not judged.
	Skipped bool `json:"skipped,omitempty"`
}

// GateReport is the full verdict of one candidate run against the
// rolling baseline of its history.
type GateReport struct {
	Kind  string `json:"kind,omitempty"`
	Label string `json:"label,omitempty"`
	// Runs is the number of history runs the baselines drew from.
	Runs int       `json:"runs"`
	Rows []GateRow `json:"rows"`
	// Regressions / Improvements count non-advisory stepped rows.
	Regressions  int `json:"regressions"`
	Improvements int `json:"improvements"`
	// Verdict is "ok", "regressed", or "no-baseline" (nothing judged).
	Verdict string `json:"verdict"`
	// Note flags a Diff of two runs whose labels differ.
	Note string `json:"note,omitempty"`
}

// Gate judges a candidate run against the rolling baseline of its
// history (oldest first; pre-filter with Filter so kind and label
// match the candidate). Every metric present in the candidate is
// judged against the trailing Window values of that metric in the
// history; advisory metrics are classified but never counted. A bench
// candidate also gets one advisory row per regress.BenchRatios ratio
// it carries.
func Gate(history []Record, candidate Record, opts GateOpts) GateReport {
	o := opts.withDefaults()
	rep := GateReport{
		Kind:  candidate.Kind,
		Label: candidate.Label,
		Runs:  len(history),
	}
	judged := false
	for _, key := range Keys([]Record{candidate}) {
		v := candidate.Metrics[key]
		row := GateRow{Key: key, Value: v, Advisory: regress.Advisory(key)}
		series := Series(history, key)
		if len(series) > o.Window {
			series = series[len(series)-o.Window:]
		}
		row.Baseline = regress.NewBaseline(series)
		if row.Baseline.N < o.MinRuns {
			row.Skipped = true
			row.Direction = regress.Flat.String()
			rep.Rows = append(rep.Rows, row)
			continue
		}
		th := regress.ThresholdsFor(key, o.Rel)
		dir := row.Baseline.Classify(v, o.K, th, !regress.BetterUp(key))
		row.Direction = dir.String()
		rep.Rows = append(rep.Rows, row)
		if row.Advisory {
			continue
		}
		judged = true
		switch dir {
		case regress.Regressed:
			rep.Regressions++
		case regress.Improved:
			rep.Improvements++
		}
	}
	if candidate.Kind == KindBench {
		for _, r := range regress.BenchRatios {
			if row, ok := ratioRow(r, history, candidate, o.Window); ok {
				rep.Rows = append(rep.Rows, row)
			}
		}
	}
	switch {
	case !judged:
		rep.Verdict = "no-baseline"
	case rep.Regressions > 0:
		rep.Verdict = "regressed"
	default:
		rep.Verdict = "ok"
	}
	return rep
}

// ratioRow is r's advisory row for a bench candidate: the ratio in the
// candidate, its baseline over the trailing window of the history's
// ratios, and Direction "regressed" when the ratio is past r's limit.
func ratioRow(r regress.BenchRatio, history []Record, cand Record, window int) (GateRow, bool) {
	v, ok := r.Of(cand.Metrics)
	if !ok {
		return GateRow{}, false
	}
	var series []float64
	for _, h := range history {
		if x, ok := r.Of(h.Metrics); ok {
			series = append(series, x)
		}
	}
	if len(series) > window {
		series = series[len(series)-window:]
	}
	row := GateRow{
		Key: r.Key(), Baseline: regress.NewBaseline(series), Value: v,
		Direction: regress.Flat.String(), Advisory: true, Limit: r.Limit,
	}
	if r.Past(v) {
		row.Direction = regress.Regressed.String()
	}
	return row, true
}

// Diff judges cand against base as a one-run rolling gate. Over a
// history of one run the baseline's MAD is zero, so a metric regresses
// exactly when it moved in its bad direction past both of
// regress.ThresholdsFor's floors (rel, when positive, overrides the
// relative one). In causal and lens records a key only one side carries
// counts as 0 on the other: a protocol that vanished or a blame
// category that appeared is judged, not skipped. In the other kinds a
// missing key means the benchmark, row or metric was not run, so a key
// only the candidate has is a "(no baseline)" row and a key only the
// baseline has is not judged. Labels are not filtered; a mismatch is
// noted.
func Diff(base, cand Record, rel float64) GateReport {
	if cand.Kind == KindCausal || cand.Kind == KindLens {
		base, cand = zeroFill(base, cand), zeroFill(cand, base)
	}
	rep := Gate([]Record{base}, cand, GateOpts{Window: 1, MinRuns: 1, Rel: rel})
	if base.Label != cand.Label {
		rep.Note = "configs differ — deltas compare different runs, not a regression test"
	}
	return rep
}

// zeroFill returns r with every metric key of other that r lacks set to
// 0, on a copy of r's metrics.
func zeroFill(r, other Record) Record {
	m := make(map[string]float64, len(r.Metrics)+len(other.Metrics))
	for k := range other.Metrics {
		m[k] = 0
	}
	for k, v := range r.Metrics {
		m[k] = v
	}
	r.Metrics = m
	return r
}

// Render writes the report as a table: one row per metric with its
// baseline median, value, relative change and verdict (an advisory row
// that moved past its thresholds or limit is marked WARN), then the
// verdict line and either "no regressions" or "N regression(s)".
func (r GateReport) Render(w io.Writer) {
	if r.Note != "" {
		fmt.Fprintf(w, "note: %s\n", r.Note)
	}
	fmt.Fprintf(w, "gate: kind=%s label=%s baseline=%d run(s)\n", orDash(r.Kind), orDash(r.Label), r.Runs)
	width := 42 // the metric column fits the longest key
	for _, row := range r.Rows {
		width = max(width, len(row.Key))
	}
	fmt.Fprintf(w, "  %-*s %14s %14s %8s  %s\n", width, "metric", "baseline", "value", "change", "verdict")
	for _, row := range r.Rows {
		verdict := row.Direction
		switch {
		case row.Skipped:
			verdict = "(no baseline)"
		case row.Advisory:
			verdict = "(advisory)"
			if row.Limit != 0 {
				verdict = fmt.Sprintf("(advisory, limit %g)", row.Limit)
			}
			if row.Direction == regress.Regressed.String() {
				verdict += " WARN"
			}
		case row.Direction == regress.Regressed.String():
			verdict = "REGRESSED"
		}
		base := row.Baseline.Median
		change := "new"
		if base != 0 {
			change = fmt.Sprintf("%+.1f%%", 100*(row.Value-base)/base)
		} else if row.Value == 0 {
			change = "+0.0%"
		}
		fmt.Fprintf(w, "  %-*s %14.4f %14.4f %8s  %s\n", width, row.Key, base, row.Value, change, verdict)
	}
	fmt.Fprintf(w, "verdict: %s (%d regressed, %d improved)\n", r.Verdict, r.Regressions, r.Improvements)
	if r.Regressions == 0 {
		fmt.Fprintln(w, "no regressions")
	} else {
		fmt.Fprintf(w, "%d regression(s)\n", r.Regressions)
	}
}

func orDash(s string) string {
	if s == "" {
		return "-"
	}
	return s
}
