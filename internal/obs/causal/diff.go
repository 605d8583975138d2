package causal

import (
	"fmt"
	"io"

	"futurebus/internal/obs/regress"
)

// Thresholds decide when a cost increase counts as a regression. Both
// gates must trip: the relative growth must exceed Rel AND the absolute
// growth must exceed Abs (so tiny baselines don't scream over noise).
// A category absent from the baseline regresses when it appears with
// more than Abs nanoseconds. The decision itself lives in
// internal/obs/regress, shared with every other gate in the tree.
type Thresholds struct {
	Rel float64 `json:"rel"` // e.g. 0.10 = 10%
	Abs int64   `json:"abs"` // nanoseconds
}

// DefaultThresholds is the fbt causal diff / CI default: 10% and 1µs of
// simulated time.
var DefaultThresholds = Thresholds{Rel: 0.10, Abs: 1000}

// DiffRow compares one metric across two runs.
type DiffRow struct {
	Name       string  `json:"name"`
	Old        int64   `json:"old"`
	New        int64   `json:"new"`
	Delta      int64   `json:"delta"`
	Rel        float64 `json:"rel"` // Delta/Old (0 when Old is 0)
	Regression bool    `json:"regression"`
}

func (t Thresholds) row(name string, oldV, newV int64) DiffRow {
	r := DiffRow{Name: name, Old: oldV, New: newV, Delta: newV - oldV}
	if oldV != 0 {
		r.Rel = float64(r.Delta) / float64(oldV)
	}
	shared := regress.Thresholds{Rel: t.Rel, Abs: float64(t.Abs)}
	r.Regression = shared.Breached(float64(oldV), float64(r.Delta))
	return r
}

// DiffReport is a per-phase / per-cause comparison of two analyses.
type DiffReport struct {
	Thresholds Thresholds `json:"thresholds"`
	// Totals compares elapsed time, total cost, total wait and the
	// critical-path cost; Causes and Phases compare the attribution
	// tables.
	Totals      []DiffRow `json:"totals"`
	Causes      []DiffRow `json:"causes"`
	Phases      []DiffRow `json:"phases"`
	Regressions int       `json:"regressions"`
}

// Diff compares a baseline analysis (old) against a candidate (new).
func Diff(oldA, newA *Analysis, th Thresholds) *DiffReport {
	r := &DiffReport{Thresholds: th}
	add := func(dst *[]DiffRow, row DiffRow) {
		*dst = append(*dst, row)
		if row.Regression {
			r.Regressions++
		}
	}
	add(&r.Totals, th.row("elapsed", oldA.Elapsed, newA.Elapsed))
	add(&r.Totals, th.row("total-cost", oldA.TotalCost, newA.TotalCost))
	add(&r.Totals, th.row("total-wait", oldA.TotalWait, newA.TotalWait))
	add(&r.Totals, th.row("critical-path", oldA.PathCost, newA.PathCost))
	for i, name := range Causes {
		add(&r.Causes, th.row(name, oldA.ByCause[i], newA.ByCause[i]))
	}
	for name := range oldA.ByPhase {
		add(&r.Phases, th.row(name, oldA.ByPhase[name], newA.ByPhase[name]))
	}
	for name := range newA.ByPhase {
		if _, ok := oldA.ByPhase[name]; !ok {
			add(&r.Phases, th.row(name, 0, newA.ByPhase[name]))
		}
	}
	sortRows(r.Phases)
	return r
}

func sortRows(rows []DiffRow) {
	for i := 1; i < len(rows); i++ {
		for j := i; j > 0 && rows[j].Name < rows[j-1].Name; j-- {
			rows[j], rows[j-1] = rows[j-1], rows[j]
		}
	}
}

// Render writes the report as an aligned text table.
func (r *DiffReport) Render(w io.Writer) {
	fmt.Fprintf(w, "thresholds: rel>%.0f%% and abs>%dns\n", r.Thresholds.Rel*100, r.Thresholds.Abs)
	renderRows(w, "totals", r.Totals)
	renderRows(w, "by cause", r.Causes)
	renderRows(w, "by phase", r.Phases)
	if r.Regressions == 0 {
		fmt.Fprintf(w, "\nno regressions\n")
	} else {
		fmt.Fprintf(w, "\n%d regression(s)\n", r.Regressions)
	}
}

func renderRows(w io.Writer, title string, rows []DiffRow) {
	fmt.Fprintf(w, "\n%s\n", title)
	fmt.Fprintf(w, "  %-14s %14s %14s %+14s %8s\n", "metric", "old(ns)", "new(ns)", "delta", "rel")
	for _, row := range rows {
		mark := ""
		if row.Regression {
			mark = "  << REGRESSION"
		}
		fmt.Fprintf(w, "  %-14s %14d %14d %+14d %7.1f%%%s\n",
			row.Name, row.Old, row.New, row.Delta, row.Rel*100, mark)
	}
}
