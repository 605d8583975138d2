package sim

import (
	"fmt"
	"strings"
)

// Report is one experiment's output: a titled table of result rows plus
// free-form notes (the paper-vs-measured commentary). The json tags
// are the fbsweep -json wire format the run ledger ingests (see
// internal/obs/ledger), so they are load-bearing: renaming one breaks
// every ledger that recorded the old key.
type Report struct {
	ID      string     `json:"id"`
	Title   string     `json:"title"`
	Columns []string   `json:"columns"`
	Rows    [][]string `json:"rows"`
	Notes   []string   `json:"notes,omitempty"`
}

// AddRow appends a formatted row.
func (r *Report) AddRow(cells ...string) { r.Rows = append(r.Rows, cells) }

// AddNote appends a commentary line.
func (r *Report) AddNote(format string, args ...any) {
	r.Notes = append(r.Notes, fmt.Sprintf(format, args...))
}

// Render formats the report for terminal output.
func (r *Report) Render() string {
	widths := make([]int, len(r.Columns))
	for i, c := range r.Columns {
		widths[i] = len(c)
	}
	for _, row := range r.Rows {
		for i, cell := range row {
			if i < len(widths) && len(cell) > widths[i] {
				widths[i] = len(cell)
			}
		}
	}
	var b strings.Builder
	fmt.Fprintf(&b, "%s — %s\n", r.ID, r.Title)
	for i, c := range r.Columns {
		if i > 0 {
			b.WriteString(" | ")
		}
		fmt.Fprintf(&b, "%-*s", widths[i], c)
	}
	b.WriteByte('\n')
	total := 0
	for _, w := range widths {
		total += w + 3
	}
	b.WriteString(strings.Repeat("-", max(total-3, 1)))
	b.WriteByte('\n')
	for _, row := range r.Rows {
		for i, cell := range row {
			if i > 0 {
				b.WriteString(" | ")
			}
			w := 0
			if i < len(widths) {
				w = widths[i]
			}
			fmt.Fprintf(&b, "%-*s", w, cell)
		}
		b.WriteByte('\n')
	}
	for _, n := range r.Notes {
		fmt.Fprintf(&b, "note: %s\n", n)
	}
	return b.String()
}

// CSV renders the report as comma-separated values (header row first),
// for plotting the experiment series outside the terminal.
func (r *Report) CSV() string {
	var b strings.Builder
	b.WriteString(strings.Join(r.Columns, ","))
	b.WriteByte('\n')
	for _, row := range r.Rows {
		quoted := make([]string, len(row))
		for i, cell := range row {
			if strings.ContainsAny(cell, ",\"") {
				cell = `"` + strings.ReplaceAll(cell, `"`, `""`) + `"`
			}
			quoted[i] = cell
		}
		b.WriteString(strings.Join(quoted, ","))
		b.WriteByte('\n')
	}
	return b.String()
}

// f formats a float for report cells.
func f(v float64) string { return fmt.Sprintf("%.4f", v) }

// f2 formats a float with two decimals.
func f2(v float64) string { return fmt.Sprintf("%.2f", v) }

// d formats an integer for report cells.
func d(v int64) string { return fmt.Sprintf("%d", v) }
