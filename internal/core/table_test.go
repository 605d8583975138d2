package core

import (
	"slices"
	"strings"
	"testing"
)

// TestTableCellsAndPreference exercises Set/Get/Preferred.
func TestTableCellsAndPreference(t *testing.T) {
	tbl := FullMOESITable("t")
	alts, _ := ParseLocalCell("CH:O/M,CA,IM,BC,W or M,CA,IM")
	tbl.SetLocal(Shared, LocalWrite, alts...)
	if got := tbl.LocalCell(Shared, LocalWrite); got != "CH:O/M,CA,IM,BC,W or M,CA,IM" {
		t.Errorf("cell renders %q", got)
	}
	pref, ok := tbl.PreferredLocal(Shared, LocalWrite)
	if !ok || pref.String() != "CH:O/M,CA,IM,BC,W" {
		t.Errorf("preferred = %v, %t", pref, ok)
	}
	if _, ok := tbl.PreferredLocal(Exclusive, Pass); ok {
		t.Error("empty cell returned a preferred action")
	}
	if got := tbl.LocalCell(Exclusive, Pass); got != "-" {
		t.Errorf("empty cell renders %q", got)
	}
}

// TestTableDiff: identical tables diff empty; a changed cell is
// located.
func TestTableDiff(t *testing.T) {
	a := PaperTable3()
	if diffs := a.Diff(PaperTable3()); len(diffs) != 0 {
		t.Fatalf("self-diff: %v", diffs)
	}
	b := PaperTable3()
	b.SetSnoop(Modified, BusCacheRead, mustSnoop("I,DI"))
	diffs := a.Diff(b)
	if len(diffs) != 1 {
		t.Fatalf("got %d diffs", len(diffs))
	}
	if diffs[0].State != Modified || diffs[0].Bus == nil {
		t.Errorf("diff location wrong: %+v", diffs[0])
	}
	if !strings.Contains(diffs[0].String(), "col 5") {
		t.Errorf("diff description: %s", diffs[0])
	}
}

// TestTableClone: mutating a clone leaves the original alone.
func TestTableClone(t *testing.T) {
	a := PaperTable4()
	b := a.Clone()
	b.SetLocal(Shared, LocalWrite, mustLocal("M,CA,IM"))
	if a.LocalCell(Shared, LocalWrite) == b.LocalCell(Shared, LocalWrite) {
		t.Error("clone shares cell storage with original")
	}
}

// TestFrozenTable: a frozen table refuses SetLocal and SetSnoop, its
// cells are clipped so an append cannot write into its storage, and a
// clone is mutable again.
func TestFrozenTable(t *testing.T) {
	tbl := PaperTable4()
	tbl.SetLocal(Shared, LocalWrite, mustLocal("M,CA,IM"), mustLocal("CH:O/M,CA,IM,BC,W"))
	tbl.Freeze()
	for name, set := range map[string]func(){
		"SetLocal": func() { tbl.SetLocal(Shared, LocalWrite, mustLocal("M,CA,IM")) },
		"SetSnoop": func() { tbl.SetSnoop(Shared, BusCacheRead, mustSnoop("I")) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s on a frozen table did not panic", name)
				}
			}()
			set()
		}()
	}
	before := tbl.Render()
	for _, s := range States {
		for _, e := range LocalEvents {
			if cell := tbl.Local(s, e); cap(cell) != len(cell) {
				t.Errorf("local cell (%s,%s) not clipped: len %d cap %d", s.Letter(), e, len(cell), cap(cell))
			}
		}
		for _, e := range BusEvents {
			if cell := tbl.Snoop(s, e); cap(cell) != len(cell) {
				t.Errorf("snoop cell (%s,col %d) not clipped: len %d cap %d", s.Letter(), e.Column(), len(cell), cap(cell))
			}
		}
	}
	grown := append(tbl.Local(Shared, LocalWrite), mustLocal("I"))
	grown[0] = mustLocal("I")
	if got := tbl.Render(); got != before {
		t.Errorf("append through a cell changed the frozen table:\n%s\nwant\n%s", got, before)
	}
	tbl.Clone().SetLocal(Shared, LocalWrite, mustLocal("M,CA,IM")) // a clone is mutable
}

// TestUsesBS: the validator's report distinguishes the adapted
// protocols, whose snoop cells abort with BS.
func TestUsesBS(t *testing.T) {
	for _, c := range []struct {
		table *Table
		want  bool
	}{
		{PaperTable3(), false},
		{PaperTable4(), false},
		{PaperTable5(), true},
		{PaperTable6(), true},
		{PaperTable7(), true},
	} {
		if got := Validate(c.table, CopyBack).UsesBS; got != c.want {
			t.Errorf("%s UsesBS = %t", c.table.Name, got)
		}
	}
}

// TestReachableStates: no cell of a paper table leads outside the
// table's own states, so Berkeley never reaches E and Write-Once and
// Illinois never reach O.
func TestReachableStates(t *testing.T) {
	for _, tbl := range []*Table{PaperTable3(), PaperTable4(), PaperTable5(), PaperTable6(), PaperTable7()} {
		own := map[State]bool{Invalid: true}
		for _, s := range tbl.States {
			own[s] = true
		}
		check := func(s State, next CondState) {
			for _, n := range []State{next.OnCH, next.NoCH} {
				if !own[n] {
					t.Errorf("%s leads from %s to %s, outside its own state set", tbl.Name, s.Letter(), n.Letter())
				}
			}
		}
		for _, s := range tbl.States {
			for _, e := range tbl.LocalEvents {
				for _, a := range tbl.Local(s, e) {
					if a.Op != BusReadThenWrite {
						check(s, a.Next)
					}
				}
			}
			for _, e := range tbl.BusEvents {
				for _, a := range tbl.Snoop(s, e) {
					if a.Abort != nil {
						check(s, Uncond(a.Abort.Next))
					} else {
						check(s, a.Next)
					}
				}
			}
		}
	}
	for tbl, never := range map[*Table]State{PaperTable3(): Exclusive, PaperTable5(): Owned, PaperTable6(): Owned} {
		if slices.Contains(tbl.States, never) {
			t.Errorf("%s has a %s row", tbl.Name, never.Letter())
		}
	}
}

// TestTableRender: the rendering carries the name, every row letter,
// and a signature cell.
func TestTableRender(t *testing.T) {
	out := PaperTable6().Render()
	for _, want := range []string{"Illinois", "BS;S,CA,W", "CH:S/E,CA,R"} {
		if !strings.Contains(out, want) {
			t.Errorf("rendering lacks %q:\n%s", want, out)
		}
	}
	lines := strings.Split(strings.TrimSpace(out), "\n")
	// Title, header, separator, four state rows.
	if len(lines) != 7 {
		t.Errorf("got %d lines, want 7:\n%s", len(lines), out)
	}
}

// TestTableFromCellsRejectsJunk: malformed specs panic (they are
// compile-time constants).
func TestTableFromCellsRejectsJunk(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("malformed cell did not panic")
		}
	}()
	TableFromCells("bad", []State{Modified}, []LocalEvent{LocalRead}, nil,
		[][]string{{"M,XYZZY"}}, [][]string{{}})
}

// TestAllTablesRoundTripThroughCells: every paper table survives
// render→parse→render on every cell — the canonical syntax is a
// faithful serialisation of the table structures.
func TestAllTablesRoundTripThroughCells(t *testing.T) {
	tables := []*Table{
		PaperTable2(), PaperTable3(), PaperTable4(),
		PaperTable5(), PaperTable6(), PaperTable7(),
	}
	for _, tbl := range tables {
		for _, s := range tbl.States {
			for _, e := range tbl.LocalEvents {
				cell := tbl.LocalCell(s, e)
				alts, err := ParseLocalCell(cell)
				if err != nil {
					t.Fatalf("%s (%s,%s): %v", tbl.Name, s.Letter(), e, err)
				}
				if got := renderLocalCell(alts); got != cell {
					t.Errorf("%s (%s,%s): %q -> %q", tbl.Name, s.Letter(), e, cell, got)
				}
			}
			for _, e := range tbl.BusEvents {
				cell := tbl.SnoopCell(s, e)
				alts, err := ParseSnoopCell(cell)
				if err != nil {
					t.Fatalf("%s (%s,col %d): %v", tbl.Name, s.Letter(), e.Column(), err)
				}
				if got := renderSnoopCell(alts); got != cell {
					t.Errorf("%s (%s,col %d): %q -> %q", tbl.Name, s.Letter(), e.Column(), cell, got)
				}
			}
		}
	}
}

// TestVariantMarkers pins the Table 1 footnote markers.
func TestVariantMarkers(t *testing.T) {
	cases := map[Variant]string{
		CopyBack:                  "",
		WriteThrough:              "*",
		NonCaching:                "**",
		WriteThrough | NonCaching: "*,**",
		AnyVariant:                "",
	}
	for v, want := range cases {
		if got := v.Marker(); got != want {
			t.Errorf("%v.Marker() = %q, want %q", v, got, want)
		}
	}
	if CopyBack.String() != "copy-back" || AnyVariant.String() != "any" {
		t.Errorf("variant strings: %q %q", CopyBack.String(), AnyVariant.String())
	}
}
