package verify

import (
	"strings"
	"testing"

	"futurebus/internal/core"
	"futurebus/internal/protocols"
)

// TestClassExhaustivelyConsistent is the compatibility theorem, proved
// by exhaustion in the abstract model: two and three copy-back boards,
// each free to take ANY class action at every instant, never reach a
// state violating the §3.1 invariants.
func TestClassExhaustivelyConsistent(t *testing.T) {
	for _, n := range []int{2, 3, 4} {
		boards := make([]Chooser, n)
		for i := range boards {
			boards[i] = ClassChooser{Variant: core.CopyBack}
		}
		res := Explore(boards)
		if !res.Ok() {
			t.Fatalf("%d copy-back boards:\n%s", n, res)
		}
		if res.States < 10 {
			t.Fatalf("suspiciously small exploration: %s", res)
		}
		t.Logf("%d boards: %s", n, res)
	}
}

// TestClassWithWriteThroughAndUncached adds the * and ** variants of
// Table 1 to the mix — still exhaustively consistent.
func TestClassWithWriteThroughAndUncached(t *testing.T) {
	res := Explore([]Chooser{
		ClassChooser{Variant: core.CopyBack},
		ClassChooser{Variant: core.CopyBack},
		ClassChooser{Variant: core.WriteThrough},
		ClassChooser{Variant: core.NonCaching},
	})
	if !res.Ok() {
		t.Fatalf("mixed variants:\n%s", res)
	}
	t.Logf("%s", res)
}

// TestProtocolsSelfConsistent: each concrete protocol (its full
// extended table, including the BS cells of the adapted ones) is
// exhaustively consistent in a protocol-pure three-board system.
func TestProtocolsSelfConsistent(t *testing.T) {
	for _, name := range []string{
		"moesi", "moesi-invalidate", "moesi-update", "berkeley", "dragon",
		"illinois", "write-once", "firefly", "write-through", "synapse",
	} {
		name := name
		t.Run(name, func(t *testing.T) {
			p, err := protocols.New(name)
			if err != nil {
				t.Fatal(err)
			}
			boards := []Chooser{
				TableChooser{Table: p.Table()},
				TableChooser{Table: p.Table()},
				TableChooser{Table: p.Table()},
			}
			res := Explore(boards)
			if !res.Ok() {
				t.Fatalf("%s:\n%s", name, res)
			}
			t.Logf("%s: %s", name, res)
		})
	}
}

// TestClassMembersMixExhaustively: true class members mix freely — the
// central claim of the paper, for every pair drawn from the in-class
// protocols plus a write-through board.
func TestClassMembersMixExhaustively(t *testing.T) {
	members := []string{"moesi", "moesi-invalidate", "moesi-update", "berkeley", "dragon"}
	for i, a := range members {
		for _, b := range members[i:] {
			pa, err := protocols.New(a)
			if err != nil {
				t.Fatal(err)
			}
			pb, err := protocols.New(b)
			if err != nil {
				t.Fatal(err)
			}
			wt, err := protocols.New("write-through")
			if err != nil {
				t.Fatal(err)
			}
			res := Explore([]Chooser{
				TableChooser{Table: pa.Table()},
				TableChooser{Table: pb.Table()},
				TableChooser{Table: wt.Table()},
			})
			if !res.Ok() {
				t.Errorf("%s + %s + write-through:\n%s", a, b, res)
			}
		}
	}
}

// TestWriteOnceHazardFound: the checker rediscovers why Write-Once's
// §4.3 adaptation is protocol-pure-only — mixed with an O-capable class
// member, its write-through-and-invalidate can leave the only current
// copy unowned with stale memory.
func TestWriteOnceHazardFound(t *testing.T) {
	wo, err := protocols.New("write-once")
	if err != nil {
		t.Fatal(err)
	}
	moesi, err := protocols.New("moesi")
	if err != nil {
		t.Fatal(err)
	}
	res := Explore([]Chooser{
		TableChooser{Table: wo.Table()},
		TableChooser{Table: moesi.Table()},
	})
	if res.Ok() {
		t.Fatal("the Write-Once × MOESI hazard was not found — either the adaptation is safe (it is not) or the model lost precision")
	}
	found := false
	for _, v := range res.Violations {
		if strings.Contains(v.Reason, "memory is stale") || strings.Contains(v.Reason, "memory stale") {
			found = true
			t.Logf("hazard witness:\n%s", v)
			break
		}
	}
	if !found {
		t.Errorf("expected a stale-memory violation, got:\n%s", res)
	}
}

// TestFireflyHazardFound: same for Firefly's §4.5 unowned broadcast
// write.
func TestFireflyHazardFound(t *testing.T) {
	ff, err := protocols.New("firefly")
	if err != nil {
		t.Fatal(err)
	}
	berk, err := protocols.New("berkeley")
	if err != nil {
		t.Fatal(err)
	}
	res := Explore([]Chooser{
		TableChooser{Table: ff.Table()},
		TableChooser{Table: berk.Table()},
	})
	if res.Ok() {
		t.Fatal("the Firefly × Berkeley hazard was not found")
	}
	t.Logf("found %d violations (first: %s)", len(res.Violations), res.Violations[0].Reason)
}

// TestSynapseMixesSafely: Synapse (BS, no §4 adapted actions) shares a
// bus with any class member, unlike Write-Once/Firefly.
func TestSynapseMixesSafely(t *testing.T) {
	syn, err := protocols.New("synapse")
	if err != nil {
		t.Fatal(err)
	}
	for _, other := range []string{"moesi", "berkeley", "dragon"} {
		p, err := protocols.New(other)
		if err != nil {
			t.Fatal(err)
		}
		res := Explore([]Chooser{
			TableChooser{Table: syn.Table()},
			TableChooser{Table: p.Table()},
			ClassChooser{Variant: core.NonCaching},
		})
		if !res.Ok() {
			t.Errorf("synapse × %s:\n%s", other, res)
		}
	}
}

// synapseRefetchTable is the historically faithful Synapse write hit:
// the machine did not trust its shared copy and re-read the line with
// its read-invalidate ownership request ("M,CA,IM,R" from S). Table 1
// does not print that action. It is strictly more conservative than the
// address-only upgrade: it refetches through column 6, where any owner
// supplies the current line and every copy dies.
func synapseRefetchTable() *core.Table {
	states := []core.State{core.Modified, core.Shared, core.Invalid}
	locals := []core.LocalEvent{core.LocalRead, core.LocalWrite}
	buses := []core.BusEvent{core.BusCacheRead, core.BusCacheRFO}
	t := core.TableFromCells("Synapse (refetch)", states, locals, buses,
		[][]string{
			{"M", "M"},
			{"S", "M,CA,IM,R"},
			{"S,CA,R", "M,CA,IM,R"},
		},
		[][]string{
			{"BS;I,W", "BS;I,W"},
			{"S,CH", "I"},
			{"I", "I"},
		})
	full := protocols.Extend(t, protocols.StyleInvalidate)
	full.Name = "Synapse (refetch)"
	return full
}

// TestSynapseRefetchVariantSafe: the historically faithful Synapse
// write hit ("M,CA,IM,R" from S) is NotInClass under the letter of
// Table 1 but exhaustively safe — the model checker extends the
// validator's reach.
func TestSynapseRefetchVariantSafe(t *testing.T) {
	refetch := synapseRefetchTable()
	if core.Validate(refetch, core.CopyBack).Verdict == core.RequiresBS {
		t.Log("note: refetch write-hit unexpectedly entered the class")
	}
	moesi, err := protocols.New("moesi")
	if err != nil {
		t.Fatal(err)
	}
	res := Explore([]Chooser{
		TableChooser{Table: refetch},
		TableChooser{Table: refetch},
		TableChooser{Table: moesi.Table()},
	})
	if !res.Ok() {
		t.Fatalf("refetch variant:\n%s", res)
	}
	t.Logf("refetch variant: %s", res)
}

// brokenChooser adds a silent shared write to an otherwise-legal class
// chooser — the textbook coherence bug.
type brokenChooser struct{ ClassChooser }

func (b brokenChooser) Name() string { return "broken" }

func (b brokenChooser) LocalChoices(s core.State, e core.LocalEvent) []core.LocalAction {
	out := b.ClassChooser.LocalChoices(s, e)
	if s == core.Shared && e == core.LocalWrite {
		out = append(out, core.LocalAction{Next: core.Uncond(core.Modified)})
	}
	return out
}

// TestBrokenPolicyCaught: the silent shared write produces a stale-copy
// violation with a usable trace.
func TestBrokenPolicyCaught(t *testing.T) {
	res := Explore([]Chooser{
		brokenChooser{ClassChooser{Variant: core.CopyBack}},
		ClassChooser{Variant: core.CopyBack},
	})
	if res.Ok() {
		t.Fatal("silent shared write not caught")
	}
	v := res.Violations[0]
	if len(v.Trace) == 0 {
		t.Error("violation has no trace")
	}
	t.Logf("caught:\n%s", v)
}

// TestIllegalCellReachedCaught: the partial paper tables (Berkeley as
// printed, columns 5–6 only) reach "—" cells on a full bus; the checker
// reports exactly that instead of guessing.
func TestIllegalCellReachedCaught(t *testing.T) {
	res := Explore([]Chooser{
		TableChooser{Table: core.PaperTable3()}, // partial: no col 7, no Flush
		ClassChooser{Variant: core.NonCaching},  // generates col 7/9
	})
	if res.Ok() {
		t.Fatal("partial table against a non-caching master should reach an undefined cell")
	}
	found := false
	for _, v := range res.Violations {
		if strings.Contains(v.Reason, "—") {
			found = true
		}
	}
	if !found {
		t.Errorf("expected a \"—\"-reached violation:\n%s", res)
	}
}

// TestResultRendering: Result and Violation format usefully.
func TestResultRendering(t *testing.T) {
	res := Explore([]Chooser{ClassChooser{Variant: core.CopyBack}})
	if !strings.Contains(res.String(), "verified") {
		t.Errorf("ok result renders %q", res.String())
	}
	s := sysState{n: 2, memCurrent: true}
	s.boards[0] = boardView{state: core.Modified, current: true}
	s.boards[1] = boardView{state: core.Invalid}
	if got := s.String(); !strings.Contains(got, "[0:M+]") || !strings.Contains(got, "mem+") {
		t.Errorf("state renders %q", got)
	}
}

// TestWriteThroughMixesWithProtocolTables: a write-through board (a
// class member) mixes with every concrete protocol's full table —
// including the BS-adapted Illinois and Synapse, whose aborts are
// class-safe, but NOT the §4-adapted pure-only protocols.
func TestWriteThroughMixesWithProtocolTables(t *testing.T) {
	wt, err := protocols.New("write-through-broadcast")
	if err != nil {
		t.Fatal(err)
	}
	for _, other := range []string{"moesi", "berkeley", "dragon", "illinois", "synapse"} {
		p, err := protocols.New(other)
		if err != nil {
			t.Fatal(err)
		}
		res := Explore([]Chooser{
			TableChooser{Table: p.Table()},
			TableChooser{Table: p.Table()},
			TableChooser{Table: wt.Table()},
		})
		if !res.Ok() {
			t.Errorf("%s × write-through:\n%s", other, res)
		}
	}
}

// TestFourWayProtocolMix: the widest tractable exploration — four
// different class members on one bus, every choice branch taken.
func TestFourWayProtocolMix(t *testing.T) {
	names := []string{"moesi", "berkeley", "dragon", "write-through-broadcast"}
	boards := make([]Chooser, len(names))
	for i, n := range names {
		p, err := protocols.New(n)
		if err != nil {
			t.Fatal(err)
		}
		boards[i] = TableChooser{Table: p.Table()}
	}
	res := Explore(boards)
	if !res.Ok() {
		t.Fatalf("four-way mix:\n%s", res)
	}
	t.Logf("four-way mix: %s", res)
}

// copySpec is one board's copy in an enumerated snapshot.
type copySpec struct {
	state core.State
	stale bool
}

// snapshots calls fn with every multiset of up to three copies over
// {S, E, O, M} × {current, stale}, with memory current and stale: 330
// snapshots.
func snapshots(fn func(copies []copySpec, memStale bool)) {
	var kinds []copySpec
	for _, s := range []core.State{core.Shared, core.Exclusive, core.Owned, core.Modified} {
		kinds = append(kinds, copySpec{s, false}, copySpec{s, true})
	}
	var grow func(from int, set []copySpec)
	grow = func(from int, set []copySpec) {
		fn(set, false)
		fn(set, true)
		if len(set) < 3 {
			for k := from; k < len(kinds); k++ {
				grow(k, append(set[:len(set):len(set)], kinds[k]))
			}
		}
	}
	grow(0, nil)
}

// TestInvariantsMatchCore: on every snapshot the model can express, the
// explorer reports exactly the §3.1 invariants core's predicate names.
func TestInvariantsMatchCore(t *testing.T) {
	words := []struct {
		inv  core.Invariant
		text string
	}{
		{core.UniqueOwner, "ownership is unique"},
		{core.RealExclusivity, "claims exclusivity"},
		{core.MemoryOwner, "no owner and memory stale"},
		{core.EMatchesMemory, "holds E but memory is stale"},
		{core.SingleImage, "holds a stale"},
	}
	n := 0
	snapshots(func(copies []copySpec, memStale bool) {
		n++
		s := sysState{n: len(copies), memCurrent: !memStale}
		want := core.Copies{MemStale: memStale}
		for i, cp := range copies {
			s.boards[i] = boardView{state: cp.state, current: !cp.stale}
			want.Add(cp.state, cp.stale)
		}
		e := &explorer{}
		e.checkInvariants(s)
		var got core.Invariant
		for _, v := range e.result.Violations {
			for _, w := range words {
				if strings.Contains(v.Reason, w.text) {
					got |= w.inv
				}
			}
		}
		if got != want.Breaches() {
			t.Errorf("%s: explorer reports %q, core %q", s, got, want.Breaches())
		}
	})
	if n != 330 {
		t.Errorf("%d snapshots, want 330", n)
	}
}
