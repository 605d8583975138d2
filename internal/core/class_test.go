package core

import (
	"strings"
	"testing"
)

// TestClassCellsMatchPaperTable1: the entries tagged "Table 1" render
// exactly the paper's cells, in the paper's preference order.
func TestClassCellsMatchPaperTable1(t *testing.T) {
	paper := PaperTable1Cells()
	for i, s := range States {
		for j, e := range LocalEvents {
			var alts []string
			for _, ent := range LocalClass(s, e) {
				if ent.Origin == "Table 1" {
					alts = append(alts, ent.Action.String()+ent.Variant.Marker())
				}
			}
			got := "-"
			if len(alts) > 0 {
				got = strings.Join(alts, " or ")
			}
			if got != paper[i][j] {
				t.Errorf("class cell (%s, %s) = %q, want %q", s.Letter(), e, got, paper[i][j])
			}
		}
	}
}

// TestClassCellsMatchPaperTable2: same for the snoop class.
func TestClassCellsMatchPaperTable2(t *testing.T) {
	paper := PaperTable2Cells()
	for i, s := range States {
		for j, e := range BusEvents {
			var alts []string
			for _, ent := range SnoopClass(s, e) {
				if ent.Origin == "Table 2" {
					alts = append(alts, ent.Action.String())
				}
			}
			got := "-"
			if len(alts) > 0 {
				got = strings.Join(alts, " or ")
			}
			if got != paper[i][j] {
				t.Errorf("class cell (%s, col %d) = %q, want %q", s.Letter(), e.Column(), got, paper[i][j])
			}
		}
	}
}

// TestRelaxationsPresent: notes 9–12 admit the documented extra
// entries.
func TestRelaxationsPresent(t *testing.T) {
	find := func(s State, e LocalEvent, cell, origin string) bool {
		for _, ent := range LocalClass(s, e) {
			if ent.Action.String() == cell && ent.Origin == origin {
				return true
			}
		}
		return false
	}
	cases := []struct {
		s      State
		e      LocalEvent
		cell   string
		origin string
	}{
		{Owned, LocalWrite, "O,CA,IM,BC,W", "note 9"},  // CH:O/M -> O
		{Shared, LocalWrite, "O,CA,IM,BC,W", "note 9"}, // CH:O/M -> O
		{Invalid, LocalRead, "S,CA,R", "note 10"},      // CH:S/E -> S
		{Owned, Pass, "S,CA,BC?,W", "note 10"},         // CH:S/E -> S
		{Modified, Pass, "S,CA,BC?,W", "note 10"},      // E -> S (prose)
		{Invalid, LocalRead, "CH:S/M,CA,R", "note 12"}, // E -> M
		{Modified, Pass, "M,CA,BC?,W", "note 12"},      // E -> M
	}
	for _, c := range cases {
		if !find(c.s, c.e, c.cell, c.origin) {
			t.Errorf("missing %s entry %q at (%s, %s)", c.origin, c.cell, c.s.Letter(), c.e)
		}
	}
	// Note 11 lives in the snoop class: bus transitions to E/S may be I.
	found := false
	for _, ent := range SnoopClass(Shared, BusCacheRead) {
		if ent.Origin == "note 11" && ent.Action.Next.NoCH == Invalid {
			found = true
		}
	}
	if !found {
		t.Error("missing note 11 entry: S on col 5 may go I")
	}
}

// TestVariantFiltering: write-through and non-caching entries are
// invisible to copy-back clients, and vice versa.
func TestVariantFiltering(t *testing.T) {
	cb := LocalChoicesFor(Invalid, LocalRead, CopyBack)
	for _, a := range cb {
		if a.String() == "I,R" {
			t.Error("copy-back choices include the non-caching read")
		}
	}
	nc := LocalChoicesFor(Invalid, LocalRead, NonCaching)
	if len(nc) != 1 || nc[0].String() != "I,R" {
		t.Errorf("non-caching read choices = %v", nc)
	}
	wt := LocalChoicesFor(Shared, LocalWrite, WriteThrough)
	for _, a := range wt {
		if a.Assert.Has(SigCA) && a.Op == BusWrite {
			t.Errorf("write-through write asserts CA: %s", a)
		}
		if a.Next.OnCH.OwnedCopy() || a.Next.NoCH.OwnedCopy() {
			t.Errorf("write-through action takes ownership: %s (§3.3: not capable of ownership)", a)
		}
	}
	if len(wt) == 0 {
		t.Fatal("no write-through write choices")
	}
}

// TestClassStructuralInvariants: every class action obeys the structural
// rules the signal definitions imply.
func TestClassStructuralInvariants(t *testing.T) {
	for _, s := range States {
		for _, e := range LocalEvents {
			for _, ent := range LocalClass(s, e) {
				a := ent.Action
				if a.Op == BusReadThenWrite {
					continue
				}
				// IM must be asserted on every modifying transaction
				// and only then.
				modifying := a.Op == BusWrite || a.Op == BusAddrOnly
				if e == LocalWrite && a.NeedsBus() && !modifying && a.Op != BusRead {
					t.Errorf("(%s,%s) %s: odd write action", s.Letter(), e, a)
				}
				if a.Assert.Has(SigBC) && !a.NeedsBus() {
					t.Errorf("(%s,%s) %s: BC without a transaction", s.Letter(), e, a)
				}
				// Flush never asserts CA (nothing retained).
				if e == Flush && a.Assert.Has(SigCA) {
					t.Errorf("(%s,Flush) %s asserts CA", s.Letter(), a)
				}
				// Pass always asserts CA (a copy is retained).
				if e == Pass && !a.Assert.Has(SigCA) {
					t.Errorf("(%s,Pass) %s lacks CA", s.Letter(), a)
				}
			}
		}
		for _, e := range BusEvents {
			for _, ent := range SnoopClass(s, e) {
				a := ent.Action
				// Only owners intervene.
				if a.AssertDI && !s.OwnedCopy() {
					t.Errorf("(%s,col %d) %s: DI from unowned state", s.Letter(), e.Column(), a)
				}
				// SL only on broadcast columns.
				if a.AssertSL && e != BusCacheBroadcastWrite && e != BusPlainBroadcastWrite {
					t.Errorf("(%s,col %d) %s: SL outside broadcast", s.Letter(), e.Column(), a)
				}
				// CH means "I will retain a copy": never asserted on a
				// transition to Invalid.
				if a.AssertCH && a.Next.OnCH == Invalid && a.Next.NoCH == Invalid {
					t.Errorf("(%s,col %d) %s: CH asserted while invalidating", s.Letter(), e.Column(), a)
				}
				// The class itself never aborts; BS is an extension.
				if a.Abort != nil {
					t.Errorf("(%s,col %d): abort action in base class", s.Letter(), e.Column())
				}
				// Invalid snoopers do nothing.
				if s == Invalid && (a.AssertCH || a.AssertDI || a.AssertSL || a.Next.NoCH != Invalid) {
					t.Errorf("(I,col %d) %s: invalid state must stay silent", e.Column(), a)
				}
			}
		}
	}
}

// TestClassOwnershipTransfer: on every column-6 event (write miss /
// invalidate), every state's permitted results are Invalid — the writer
// becomes the sole owner.
func TestClassOwnershipTransfer(t *testing.T) {
	for _, s := range States {
		for _, ent := range SnoopClass(s, BusCacheRFO) {
			n := ent.Action.Next
			if n.OnCH != Invalid || n.NoCH != Invalid {
				t.Errorf("col 6 from %s permits survival: %s", s.Letter(), ent.Action)
			}
		}
	}
}

// TestPreferredEntriesFirst: the first permitted action of each
// non-empty cell is the paper's printed first entry (§3.3: "the first
// entry is preferred").
func TestPreferredEntriesFirst(t *testing.T) {
	paper1 := PaperTable1Cells()
	for i, s := range States {
		for j, e := range LocalEvents {
			ents := LocalClass(s, e)
			if len(ents) == 0 {
				continue
			}
			first := ents[0].Action.String() + ents[0].Variant.Marker()
			wantFirst := strings.Split(paper1[i][j], " or ")[0]
			if first != wantFirst {
				t.Errorf("(%s,%s): first class entry %q, paper prefers %q",
					s.Letter(), e, first, wantFirst)
			}
		}
	}
}

// TestChoiceListsPrecomputed: LocalChoicesFor and SnoopChoices return
// the class entries usable by the variant, in class order, from lists
// computed once — the same storage on every call, clipped so a caller's
// append copies — and allocate nothing.
func TestChoiceListsPrecomputed(t *testing.T) {
	for v := Variant(0); v <= AnyVariant; v++ {
		for _, s := range States {
			for _, e := range LocalEvents {
				var want []string
				for _, ent := range LocalClass(s, e) {
					if ent.Variant&v != 0 {
						want = append(want, ent.Action.String())
					}
				}
				got := LocalChoicesFor(s, e, v)
				if len(got) != len(want) || cap(got) != len(got) {
					t.Fatalf("(%s,%s,%s): %d choices cap %d, want %d", s.Letter(), e, v, len(got), cap(got), len(want))
				}
				for i := range got {
					if got[i].String() != want[i] {
						t.Errorf("(%s,%s,%s)[%d] = %s, want %s", s.Letter(), e, v, i, got[i], want[i])
					}
				}
				if again := LocalChoicesFor(s, e, v|0x80); len(got) > 0 && &again[0] != &got[0] {
					t.Errorf("(%s,%s,%s): a second call built a new list", s.Letter(), e, v)
				}
			}
		}
	}
	for _, s := range States {
		for _, e := range BusEvents {
			got := SnoopChoices(s, e)
			if len(got) != len(SnoopClass(s, e)) || cap(got) != len(got) {
				t.Fatalf("(%s,col %d): %d choices cap %d, want %d", s.Letter(), e.Column(), len(got), cap(got), len(SnoopClass(s, e)))
			}
			for i, ent := range SnoopClass(s, e) {
				if got[i].String() != ent.Action.String() {
					t.Errorf("(%s,col %d)[%d] = %s, want %s", s.Letter(), e.Column(), i, got[i], ent.Action)
				}
			}
		}
	}
	if n := testing.AllocsPerRun(100, func() {
		_ = LocalChoicesFor(Shared, LocalWrite, CopyBack)
		_ = SnoopChoices(Owned, BusPlainRead)
	}); n != 0 {
		t.Errorf("choice lookup allocates %.0f times", n)
	}
}
