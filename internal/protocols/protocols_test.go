package protocols

import (
	"testing"

	"futurebus/internal/core"
)

// TestRegistryVerdicts pins the §4 compatibility analysis for every
// registered protocol, as used in simulation (extended tables).
func TestRegistryVerdicts(t *testing.T) {
	want := map[string]core.Membership{
		"moesi":                   core.InClass,
		"moesi-invalidate":        core.InClass,
		"moesi-update":            core.InClass,
		"moesi-adaptive":          core.InClass,
		"berkeley":                core.InClass,
		"dragon":                  core.InClass,
		"random":                  core.InClass,
		"round-robin":             core.InClass,
		"write-through":           core.InClass,
		"write-through-broadcast": core.InClass,
		"illinois":                core.RequiresBS,
		"synapse":                 core.RequiresBS,
		"write-once":              core.RequiresAdaptation,
		"firefly":                 core.RequiresAdaptation,
	}
	names := Names()
	if len(names) != len(want) {
		t.Errorf("registry has %d protocols, want %d: %v", len(names), len(want), names)
	}
	for name, verdict := range want {
		p, err := New(name)
		if err != nil {
			t.Errorf("New(%q): %v", name, err)
			continue
		}
		rep := core.Validate(p.Table(), p.Variant())
		if rep.Verdict != verdict {
			t.Errorf("%s: verdict %s, want %s\n%s", name, rep.Verdict, verdict, rep)
		}
	}
	if _, err := New("nonsense"); err == nil {
		t.Error("unknown protocol accepted")
	}
}

// TestExtendPreservesOriginalCells: Extend never touches a cell the
// paper defines (this is what makes the T3–T7 regeneration meaningful).
func TestExtendPreservesOriginalCells(t *testing.T) {
	for _, paper := range []*core.Table{
		core.PaperTable3(), core.PaperTable4(), core.PaperTable5(),
		core.PaperTable6(), core.PaperTable7(),
	} {
		for _, style := range []Style{StyleInvalidate, StyleUpdate} {
			full := Extend(paper, style)
			if diffs := full.Diff(paper); len(diffs) != 0 {
				t.Errorf("Extend(%s, %s) changed paper cells: %v", paper.Name, style, diffs)
			}
		}
	}
}

// TestExtendFillsEverything: the extended tables define every local
// event and bus column the class defines for their states.
func TestExtendFillsEverything(t *testing.T) {
	for _, paper := range []*core.Table{
		core.PaperTable3(), core.PaperTable4(), core.PaperTable5(),
		core.PaperTable6(), core.PaperTable7(),
	} {
		full := Extend(paper, StyleInvalidate)
		for _, s := range paper.States {
			for _, e := range core.LocalEvents {
				classHas := len(core.LocalClass(s, e)) > 0
				if classHas && len(full.Local(s, e)) == 0 {
					// Acceptable only if every class action leaves the
					// protocol's state set.
					if anyWithin(s, e, paper) {
						t.Errorf("%s: (%s,%s) unfilled", paper.Name, s.Letter(), e)
					}
				}
			}
			for _, e := range core.BusEvents {
				if len(core.SnoopClass(s, e)) > 0 && len(full.Snoop(s, e)) == 0 {
					t.Errorf("%s: (%s,col %d) unfilled", paper.Name, s.Letter(), e.Column())
				}
			}
		}
	}
}

func anyWithin(s core.State, e core.LocalEvent, paper *core.Table) bool {
	allowed := map[core.State]bool{core.Invalid: true}
	for _, st := range paper.States {
		allowed[st] = true
	}
	for _, ent := range core.LocalClass(s, e) {
		if ent.Variant&core.CopyBack == 0 {
			continue
		}
		a := ent.Action
		if a.Op == core.BusReadThenWrite || (allowed[a.Next.OnCH] && allowed[a.Next.NoCH]) {
			return true
		}
	}
	return false
}

// TestExtendRespectsStateSets: extension never introduces a state the
// protocol does not define: no cell of the extended table, local or
// snoop, leads outside the paper table's own states.
func TestExtendRespectsStateSets(t *testing.T) {
	for _, paper := range []*core.Table{core.PaperTable3(), core.PaperTable5(), core.PaperTable6()} {
		full := Extend(paper, StyleInvalidate)
		allowed := map[core.State]bool{core.Invalid: true}
		for _, s := range paper.States {
			allowed[s] = true
		}
		check := func(s core.State, next ...core.State) {
			for _, n := range next {
				if !allowed[n] {
					t.Errorf("%s extended leads from %s to %s", paper.Name, s.Letter(), n.Letter())
				}
			}
		}
		for _, s := range full.States {
			for _, e := range full.LocalEvents {
				for _, a := range full.Local(s, e) {
					check(s, a.Next.OnCH, a.Next.NoCH)
				}
			}
			for _, e := range full.BusEvents {
				for _, a := range full.Snoop(s, e) {
					if a.Abort != nil {
						check(s, a.Abort.Next)
					} else {
						check(s, a.Next.OnCH, a.Next.NoCH)
					}
				}
			}
		}
	}
}

// TestExtendStyle: invalidate style discards on foreign broadcast
// writes, update style connects.
func TestExtendStyle(t *testing.T) {
	inv := Extend(core.PaperTable3(), StyleInvalidate)
	if a, ok := inv.PreferredSnoop(core.Shared, core.BusPlainBroadcastWrite); !ok || a.Next.NoCH != core.Invalid {
		t.Errorf("invalidate-style col 10 S: %v", a)
	}
	upd := Extend(core.PaperTable3(), StyleUpdate)
	if a, ok := upd.PreferredSnoop(core.Shared, core.BusPlainBroadcastWrite); !ok || !a.AssertSL {
		t.Errorf("update-style col 10 S: %v", a)
	}
	// Owners must update on column 10 regardless of style.
	if a, ok := inv.PreferredSnoop(core.Modified, core.BusPlainBroadcastWrite); !ok || !a.AssertSL {
		t.Errorf("invalidate-style col 10 M: %v", a)
	}
}

// TestDynamicPoliciesStayLegal: every choice Random and RoundRobin ever
// make is a class member — checked over thousands of draws.
func TestDynamicPoliciesStayLegal(t *testing.T) {
	for _, p := range []core.Policy{NewRandom(7), NewRoundRobin()} {
		for draw := 0; draw < 2000; draw++ {
			for _, s := range core.States {
				for _, e := range core.LocalEvents {
					a, ok := p.ChooseLocal(s, e)
					if !ok {
						continue
					}
					if !inLocalClass(s, e, a) {
						t.Fatalf("%s chose illegal local action %s at (%s,%s)", p.Name(), a, s.Letter(), e)
					}
				}
				for _, e := range core.BusEvents {
					a, ok := p.ChooseSnoop(s, e)
					if !ok {
						continue
					}
					if !inSnoopClass(s, e, a) {
						t.Fatalf("%s chose illegal snoop action %s at (%s,col %d)", p.Name(), a, s.Letter(), e.Column())
					}
				}
			}
		}
	}
}

func inLocalClass(s core.State, e core.LocalEvent, a core.LocalAction) bool {
	for _, c := range core.LocalChoicesFor(s, e, core.CopyBack) {
		if c.String() == a.String() {
			return true
		}
	}
	return false
}

func inSnoopClass(s core.State, e core.BusEvent, a core.SnoopAction) bool {
	for _, c := range core.SnoopChoices(s, e) {
		if c.String() == a.String() {
			return true
		}
	}
	return false
}

// TestRoundRobinCycles: the round-robin policy walks the alternatives
// in order and wraps.
func TestRoundRobinCycles(t *testing.T) {
	p := NewRoundRobin()
	alts := core.LocalChoicesFor(core.Shared, core.LocalWrite, core.CopyBack)
	if len(alts) < 2 {
		t.Fatalf("S write has %d alternatives", len(alts))
	}
	for round := 0; round < 2; round++ {
		for i := range alts {
			a, ok := p.ChooseLocal(core.Shared, core.LocalWrite)
			if !ok || a.String() != alts[i].String() {
				t.Fatalf("round %d draw %d: got %s, want %s", round, i, a, alts[i])
			}
		}
	}
}

// TestRandomDeterminism: the same seed gives the same choice sequence.
func TestRandomDeterminism(t *testing.T) {
	a, b := NewRandom(42), NewRandom(42)
	for i := 0; i < 200; i++ {
		x, _ := a.ChooseLocal(core.Invalid, core.LocalWrite)
		y, _ := b.ChooseLocal(core.Invalid, core.LocalWrite)
		if x.String() != y.String() {
			t.Fatalf("draw %d diverged: %s vs %s", i, x, y)
		}
	}
}

// TestAdaptiveChoices: recency drives the update/discard split on
// broadcast columns only.
func TestAdaptiveChoices(t *testing.T) {
	p := NewAdaptive()
	recent, ok := p.ChooseSnoopRecency(core.Shared, core.BusCacheBroadcastWrite, true)
	if !ok || !recent.AssertSL {
		t.Errorf("recent line not updated: %v", recent)
	}
	stale, ok := p.ChooseSnoopRecency(core.Shared, core.BusCacheBroadcastWrite, false)
	if !ok || stale.Next.NoCH != core.Invalid {
		t.Errorf("stale line not discarded: %v", stale)
	}
	// Owners on column 10 have no discard option.
	owner, ok := p.ChooseSnoopRecency(core.Modified, core.BusPlainBroadcastWrite, false)
	if !ok || !owner.AssertSL {
		t.Errorf("stale owner must still update: %v", owner)
	}
	// Non-broadcast columns ignore recency.
	a1, _ := p.ChooseSnoopRecency(core.Shared, core.BusCacheRead, true)
	a2, _ := p.ChooseSnoopRecency(core.Shared, core.BusCacheRead, false)
	if a1.String() != a2.String() {
		t.Error("recency leaked into column 5")
	}
}

// TestPreferredPolicyAccessors: name/variant/table plumbing.
func TestPreferredPolicyAccessors(t *testing.T) {
	p := MOESI()
	if p.Name() != "MOESI" || p.Variant() != core.CopyBack {
		t.Errorf("accessors: %s %v", p.Name(), p.Variant())
	}
	if _, ok := p.ChooseLocal(core.Exclusive, core.Pass); ok {
		t.Error("E Pass should be undefined")
	}
	if a, ok := p.ChooseSnoop(core.Modified, core.BusCacheRead); !ok || a.String() != "O,CH,DI" {
		t.Errorf("M col 5 = %v, %t", a, ok)
	}
}

// TestWriteThroughNames: config shapes the registry names and table.
func TestWriteThroughNames(t *testing.T) {
	p := WriteThrough(WriteThroughConfig{Broadcast: true, Allocate: true})
	if p.Name() != "write-through-broadcast-allocate" {
		t.Errorf("name = %s", p.Name())
	}
	if a, ok := p.ChooseLocal(core.Invalid, core.LocalWrite); !ok || a.Op != core.BusReadThenWrite {
		t.Errorf("allocating write miss = %v", a)
	}
}

// TestNonCachingTable: the ** rows validate under the NonCaching
// variant.
func TestNonCachingTable(t *testing.T) {
	for _, broadcast := range []bool{false, true} {
		tbl := NonCachingTable(broadcast)
		rep := core.Validate(tbl, core.NonCaching)
		if rep.Verdict != core.InClass {
			t.Errorf("non-caching (broadcast=%t): %s", broadcast, rep)
		}
	}
}

// TestFreshPolicyInstances: the registry returns independent dynamic
// policies (shared RNG state across boards would be a subtle bug).
func TestFreshPolicyInstances(t *testing.T) {
	a, _ := New("round-robin")
	b, _ := New("round-robin")
	a.ChooseLocal(core.Shared, core.LocalWrite) // advance a only
	x, _ := a.ChooseLocal(core.Shared, core.LocalWrite)
	y, _ := b.ChooseLocal(core.Shared, core.LocalWrite)
	if x.String() == y.String() {
		t.Error("registry shares round-robin state between instances")
	}
}

// TestSharedPolicies: a table-driven protocol is compiled once per
// process — New and its exported constructor return one policy whose
// table is frozen (SetLocal and SetSnoop panic) — while random and
// round-robin are fresh per call over one shared, frozen class table.
func TestSharedPolicies(t *testing.T) {
	dynamic := map[string]bool{"random": true, "round-robin": true}
	for _, name := range Names() {
		a, _ := New(name)
		b, _ := New(name)
		if (a == b) == dynamic[name] {
			t.Errorf("%s: New returned the same instance twice = %t, want %t", name, a == b, !dynamic[name])
		}
		if a.Table() != b.Table() {
			t.Errorf("%s: two boards hold different tables", name)
		}
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: SetLocal on the shared table did not panic", name)
				}
			}()
			a.Table().SetLocal(core.Invalid, core.LocalRead)
		}()
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: SetSnoop on the shared table did not panic", name)
				}
			}()
			a.Table().SetSnoop(core.Invalid, core.BusCacheRead)
		}()
	}
	for name, ctor := range map[string]func() core.Policy{
		"moesi": MOESI, "moesi-invalidate": MOESIInvalidate, "moesi-update": MOESIUpdate,
		"berkeley": Berkeley, "dragon": Dragon, "write-once": WriteOnce,
		"illinois": Illinois, "synapse": Synapse, "firefly": Firefly,
		"write-through":           func() core.Policy { return WriteThrough(WriteThroughConfig{}) },
		"write-through-broadcast": func() core.Policy { return WriteThrough(WriteThroughConfig{Broadcast: true}) },
	} {
		if p, _ := New(name); ctor() != p {
			t.Errorf("%s: the exported constructor and New disagree", name)
		}
	}
}

// TestChoosingAllocatesNothing: the dynamic policies draw from the
// precomputed class lists, and Preferred reads its frozen table.
func TestChoosingAllocatesNothing(t *testing.T) {
	for _, p := range []core.Policy{NewRandom(1), NewRoundRobin(), MOESI()} {
		if n := testing.AllocsPerRun(100, func() {
			p.ChooseLocal(core.Shared, core.LocalWrite)
			p.ChooseSnoop(core.Owned, core.BusPlainRead)
		}); n != 0 {
			t.Errorf("%s: %.0f allocations per choice pair", p.Name(), n)
		}
	}
}
