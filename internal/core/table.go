package core

import (
	"fmt"
	"strings"
)

// Table is a complete protocol transition table in the format of the
// paper's Tables 1–7: for each (state, local event) and (state, bus
// event) cell, the list of permitted alternatives in preference order
// (the first alternative is the preferred action, §3.3). A nil cell is
// the tables' "—": not a legal case for that protocol.
//
// A table is mutable only while it is being built. Freeze ends that:
// the table may then be shared by any number of boards and goroutines,
// SetLocal and SetSnoop panic, and readers must not write through the
// slices Local and Snoop return. Clone gives a mutable copy.
type Table struct {
	// Name identifies the protocol (e.g. "MOESI", "Berkeley").
	Name string
	// States lists the rows the protocol defines, in display order.
	States []State
	// LocalEvents and BusEvents list the columns the table defines.
	// Partial tables (the paper defines Berkeley only over columns
	// 1, 2, 5 and 6) omit the others.
	LocalEvents []LocalEvent
	BusEvents   []BusEvent

	local [numStates][numLocalEvents][]LocalAction
	snoop [numStates][numBusEvents][]SnoopAction

	frozen bool
}

// NewTable returns an empty table covering the given rows and columns.
func NewTable(name string, states []State, locals []LocalEvent, buses []BusEvent) *Table {
	return &Table{
		Name:        name,
		States:      append([]State(nil), states...),
		LocalEvents: append([]LocalEvent(nil), locals...),
		BusEvents:   append([]BusEvent(nil), buses...),
	}
}

// FullMOESITable returns an empty table with all five states, all four
// local events and all six bus-event columns.
func FullMOESITable(name string) *Table {
	return NewTable(name, States[:], LocalEvents[:], BusEvents[:])
}

// SetLocal defines the alternatives for a local-event cell. It panics
// on a frozen table.
func (t *Table) SetLocal(s State, e LocalEvent, alts ...LocalAction) {
	t.mustBeMutable()
	t.local[s][e] = alts
}

// SetSnoop defines the alternatives for a bus-event cell. It panics on
// a frozen table.
func (t *Table) SetSnoop(s State, e BusEvent, alts ...SnoopAction) {
	t.mustBeMutable()
	t.snoop[s][e] = alts
}

func (t *Table) mustBeMutable() {
	if t.frozen {
		panic(fmt.Sprintf("core: table %q is frozen (shared read-only); Clone it to modify", t.Name))
	}
}

// Freeze makes the table read-only and returns it. Every cell is
// clipped to its length, so a reader's append copies instead of writing
// into the table's storage.
func (t *Table) Freeze() *Table {
	for s := range t.local {
		for e, alts := range t.local[s] {
			t.local[s][e] = alts[:len(alts):len(alts)]
		}
	}
	for s := range t.snoop {
		for e, alts := range t.snoop[s] {
			t.snoop[s][e] = alts[:len(alts):len(alts)]
		}
	}
	t.frozen = true
	return t
}

// Local returns the alternatives for a local-event cell (nil = "—").
func (t *Table) Local(s State, e LocalEvent) []LocalAction { return t.local[s][e] }

// Snoop returns the alternatives for a bus-event cell (nil = "—").
func (t *Table) Snoop(s State, e BusEvent) []SnoopAction { return t.snoop[s][e] }

// PreferredLocal returns the first (preferred) alternative of a cell.
func (t *Table) PreferredLocal(s State, e LocalEvent) (LocalAction, bool) {
	alts := t.local[s][e]
	if len(alts) == 0 {
		return LocalAction{}, false
	}
	return alts[0], true
}

// PreferredSnoop returns the first (preferred) alternative of a cell.
func (t *Table) PreferredSnoop(s State, e BusEvent) (SnoopAction, bool) {
	alts := t.snoop[s][e]
	if len(alts) == 0 {
		return SnoopAction{}, false
	}
	return alts[0], true
}

// LocalCell renders a local cell in canonical syntax ("-" for nil).
func (t *Table) LocalCell(s State, e LocalEvent) string {
	return renderLocalCell(t.local[s][e])
}

// SnoopCell renders a bus-event cell in canonical syntax ("-" for nil).
func (t *Table) SnoopCell(s State, e BusEvent) string {
	return renderSnoopCell(t.snoop[s][e])
}

func renderLocalCell(alts []LocalAction) string {
	if len(alts) == 0 {
		return "-"
	}
	parts := make([]string, len(alts))
	for i, a := range alts {
		parts[i] = a.String()
	}
	return strings.Join(parts, " or ")
}

func renderSnoopCell(alts []SnoopAction) string {
	if len(alts) == 0 {
		return "-"
	}
	parts := make([]string, len(alts))
	for i, a := range alts {
		parts[i] = a.String()
	}
	return strings.Join(parts, " or ")
}

// Clone returns a deep, mutable copy of the table.
func (t *Table) Clone() *Table {
	c := NewTable(t.Name, t.States, t.LocalEvents, t.BusEvents)
	for s := range t.local {
		for e := range t.local[s] {
			c.local[s][e] = append([]LocalAction(nil), t.local[s][e]...)
		}
	}
	for s := range t.snoop {
		for e := range t.snoop[s] {
			c.snoop[s][e] = append([]SnoopAction(nil), t.snoop[s][e]...)
		}
	}
	return c
}

// CellDiff describes one mismatching cell between two tables.
type CellDiff struct {
	State State
	// Local is non-nil for a local-event cell, Bus for a bus-event cell.
	Local *LocalEvent
	Bus   *BusEvent
	Got   string
	Want  string
}

func (d CellDiff) String() string {
	var col string
	if d.Local != nil {
		col = d.Local.String()
	} else {
		col = fmt.Sprintf("col %d (%s)", d.Bus.Column(), d.Bus)
	}
	return fmt.Sprintf("state %s, %s: got %q, want %q", d.State.Letter(), col, d.Got, d.Want)
}

// Diff compares the cells of t against want over want's rows and
// columns, returning a description of every mismatch. Cells compare by
// canonical rendering, so alternative order matters (it encodes the
// preference order of §3.3).
func (t *Table) Diff(want *Table) []CellDiff {
	var diffs []CellDiff
	for _, s := range want.States {
		for _, e := range want.LocalEvents {
			got, wantCell := t.LocalCell(s, e), want.LocalCell(s, e)
			if got != wantCell {
				e := e
				diffs = append(diffs, CellDiff{State: s, Local: &e, Got: got, Want: wantCell})
			}
		}
		for _, e := range want.BusEvents {
			got, wantCell := t.SnoopCell(s, e), want.SnoopCell(s, e)
			if got != wantCell {
				e := e
				diffs = append(diffs, CellDiff{State: s, Bus: &e, Got: got, Want: wantCell})
			}
		}
	}
	return diffs
}

// Render formats the table as aligned ASCII in the paper's layout:
// one row per state, local-event columns first, then bus-event columns.
func (t *Table) Render() string {
	headers := []string{"State"}
	for _, e := range t.LocalEvents {
		headers = append(headers, fmt.Sprintf("%s(%d)", e, e.Note()))
	}
	for _, e := range t.BusEvents {
		headers = append(headers, fmt.Sprintf("%s(%d)", e, e.Column()))
	}
	rows := [][]string{headers}
	for _, s := range t.States {
		row := []string{s.Letter()}
		for _, e := range t.LocalEvents {
			row = append(row, t.LocalCell(s, e))
		}
		for _, e := range t.BusEvents {
			row = append(row, t.SnoopCell(s, e))
		}
		rows = append(rows, row)
	}
	return renderGrid(t.Name, rows)
}

func renderGrid(title string, rows [][]string) string {
	widths := make([]int, len(rows[0]))
	for _, row := range rows {
		for i, cell := range row {
			if len(cell) > widths[i] {
				widths[i] = len(cell)
			}
		}
	}
	var b strings.Builder
	if title != "" {
		fmt.Fprintf(&b, "%s\n", title)
	}
	for ri, row := range rows {
		for i, cell := range row {
			if i > 0 {
				b.WriteString(" | ")
			}
			fmt.Fprintf(&b, "%-*s", widths[i], cell)
		}
		b.WriteByte('\n')
		if ri == 0 {
			total := 0
			for _, w := range widths {
				total += w + 3
			}
			b.WriteString(strings.Repeat("-", total-3))
			b.WriteByte('\n')
		}
	}
	return b.String()
}
