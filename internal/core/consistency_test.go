package core

import (
	"strings"
	"testing"
)

// TestCopiesBreachesTable: the §3.1 predicate on the boundary of each
// invariant, and the words each breach is named by.
func TestCopiesBreachesTable(t *testing.T) {
	rows := []struct {
		name string
		c    Copies
		want Invariant
	}{
		{"no copy", Copies{}, 0},
		{"no copy, memory stale", Copies{MemStale: true}, MemoryOwner},
		{"one S", Copies{Valid: 1}, 0},
		{"many S", Copies{Valid: 2}, 0},
		{"one M", Copies{Valid: 1, Owned: 1, Exclusive: 1}, 0},
		{"one M, memory stale", Copies{Valid: 1, Owned: 1, Exclusive: 1, MemStale: true}, 0},
		{"O and S, memory stale", Copies{Valid: 2, Owned: 1, MemStale: true}, 0},
		{"O and O", Copies{Valid: 2, Owned: 2}, UniqueOwner},
		{"M and S", Copies{Valid: 2, Owned: 1, Exclusive: 1}, RealExclusivity},
		{"E and S", Copies{Valid: 2, Exclusive: 1, E: 1}, RealExclusivity},
		{"one E", Copies{Valid: 1, Exclusive: 1, E: 1}, 0},
		{"one E, memory stale", Copies{Valid: 1, Exclusive: 1, E: 1, MemStale: true}, MemoryOwner | EMatchesMemory},
		{"stale S", Copies{Valid: 1, Stale: 1}, SingleImage},
		{"M and M, both stale, memory stale", Copies{Valid: 2, Owned: 2, Exclusive: 2, Stale: 2, MemStale: true},
			UniqueOwner | RealExclusivity | SingleImage},
	}
	for _, r := range rows {
		if got := r.c.Breaches(); got != r.want {
			t.Errorf("%s: breaches %q, want %q", r.name, got, r.want)
		}
	}
	all := UniqueOwner | RealExclusivity | MemoryOwner | EMatchesMemory | SingleImage
	for _, name := range strings.Split(all.String(), ", ") {
		if !strings.HasPrefix(name, "§3.1.") {
			t.Errorf("invariant %q is not named by its section", name)
		}
	}
	if got := strings.Count(all.String(), "§"); got != 5 {
		t.Errorf("%d invariants named, want 5", got)
	}
}

// TestCopiesBreachesExhaustive evaluates the predicate over the whole
// capped domain — every count in {0, 1, many} and memory current or
// stale, 486 summaries — against §3.1 stated a second time, one
// sentence per invariant. It then shows the cap is exact: a count of
// 3 or 4 breaches what a count of 2 does.
func TestCopiesBreachesExhaustive(t *testing.T) {
	paper := []struct {
		inv  Invariant
		says func(c Copies) bool
	}{
		// "owned uniquely either by one and only one cache or by main memory"
		{UniqueOwner, func(c Copies) bool { return c.Owned >= 2 }},
		// "exclusive data is cached data that is contained in one and only one cache"
		{RealExclusivity, func(c Copies) bool { return c.Exclusive >= 1 && c.Valid >= 2 }},
		// main memory owns, and so holds, every line no cache owns
		{MemoryOwner, func(c Copies) bool { return c.Owned == 0 && c.MemStale }},
		// "exclusive data must match the copy in main memory" unless owned
		{EMatchesMemory, func(c Copies) bool { return c.E >= 1 && c.MemStale }},
		// the image is single-valued: no valid copy may differ from it
		{SingleImage, func(c Copies) bool { return c.Stale >= 1 }},
	}
	summaries := 0
	each := func(limit int, fn func(Copies)) {
		for v := 0; v <= limit; v++ {
			for o := 0; o <= limit; o++ {
				for x := 0; x <= limit; x++ {
					for e := 0; e <= limit; e++ {
						for s := 0; s <= limit; s++ {
							for _, mem := range []bool{false, true} {
								fn(Copies{Valid: v, Owned: o, Exclusive: x, E: e, Stale: s, MemStale: mem})
							}
						}
					}
				}
			}
		}
	}
	each(2, func(c Copies) {
		summaries++
		var want Invariant
		for _, p := range paper {
			if p.says(c) {
				want |= p.inv
			}
		}
		if got := c.Breaches(); got != want {
			t.Errorf("%+v: breaches %q, want %q", c, got, want)
		}
	})
	if summaries != 486 {
		t.Errorf("enumerated %d summaries, want 486", summaries)
	}
	capped := func(n int) int { return min(n, 2) }
	each(4, func(c Copies) {
		d := Copies{Valid: capped(c.Valid), Owned: capped(c.Owned), Exclusive: capped(c.Exclusive),
			E: capped(c.E), Stale: capped(c.Stale), MemStale: c.MemStale}
		if c.Breaches() != d.Breaches() {
			t.Errorf("%+v breaches %q, but its capped summary %q", c, c.Breaches(), d.Breaches())
		}
	})
}

// TestCopiesAdd: Add counts a copy into every class its state belongs
// to, and an invalid copy into none.
func TestCopiesAdd(t *testing.T) {
	var c Copies
	for _, s := range States {
		c.Add(s, s == Shared)
	}
	if want := (Copies{Valid: 4, Owned: 2, Exclusive: 2, E: 1, Stale: 1}); c != want {
		t.Errorf("M, O, E, S (stale) and I count as %+v, want %+v", c, want)
	}
}
