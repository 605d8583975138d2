package sim

import (
	"fmt"
	"strings"
	"testing"

	"futurebus/internal/core"
	"futurebus/internal/protocols"
	"futurebus/internal/tablegen"
	"futurebus/internal/verify"
)

// classFingerprint renders everything boards share read-only: every
// registry protocol's table (name, rows, columns and each alternative
// of each cell, BS recoveries included) and every precomputed class
// choice list.
func classFingerprint(t *testing.T) string {
	t.Helper()
	var b strings.Builder
	local := func(alts []core.LocalAction) {
		for _, a := range alts {
			fmt.Fprintf(&b, "%+v|", a)
		}
		b.WriteByte('\n')
	}
	snoop := func(alts []core.SnoopAction) {
		for _, a := range alts {
			fmt.Fprintf(&b, "%+v", a)
			if a.Abort != nil {
				fmt.Fprintf(&b, "%+v", *a.Abort)
			}
			b.WriteByte('|')
		}
		b.WriteByte('\n')
	}
	for _, name := range protocols.Names() {
		p, err := protocols.New(name)
		if err != nil {
			t.Fatal(err)
		}
		tbl := p.Table()
		fmt.Fprintf(&b, "%s %q %v %v %v\n", name, tbl.Name, tbl.States, tbl.LocalEvents, tbl.BusEvents)
		for _, s := range core.States {
			for _, e := range core.LocalEvents {
				local(tbl.Local(s, e))
			}
			for _, e := range core.BusEvents {
				snoop(tbl.Snoop(s, e))
			}
		}
	}
	for v := core.Variant(0); v <= core.AnyVariant; v++ {
		for _, s := range core.States {
			for _, e := range core.LocalEvents {
				local(core.LocalChoicesFor(s, e, v))
			}
		}
	}
	for _, s := range core.States {
		for _, e := range core.BusEvents {
			snoop(core.SnoopChoices(s, e))
		}
	}
	return b.String()
}

// TestSharedTablesSurviveEveryUse: boards share one frozen table per
// protocol and one set of class choice lists, so a path that writes
// through them would corrupt every other board. Run everything that
// reads them in-process — each experiment of the P-series battery, the
// T1–T7 regenerations and the model checker over the class and every
// protocol table — and require the fingerprint unchanged after each.
// (A write that a later one undoes escapes a before/after comparison;
// TestSharedPoliciesConcurrent catches those under -race.)
func TestSharedTablesSurviveEveryUse(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the whole experiment battery")
	}
	want := classFingerprint(t)
	check := func(stage string) {
		t.Helper()
		got := classFingerprint(t)
		if got == want {
			return
		}
		w, g := strings.Split(want, "\n"), strings.Split(got, "\n")
		for i := range min(len(w), len(g)) {
			if w[i] != g[i] {
				t.Fatalf("%s changed shared class data at line %d:\n before %s\n after  %s", stage, i, w[i], g[i])
			}
		}
		t.Fatalf("%s changed the shared class data's length: %d -> %d lines", stage, len(w), len(g))
	}

	for _, ne := range Battery() {
		if _, err := ne.Run(ExperimentOpts{RefsPerProc: 1000, Seed: 11}); err != nil {
			t.Fatalf("%s: %v", ne.ID, err)
		}
		check(ne.ID)
	}
	for _, a := range tablegen.Artifacts() {
		if diffs := a.Diff(); len(diffs) != 0 {
			t.Errorf("%s diverges from the paper: %v", a.ID, diffs)
		}
		a.Render()
		check(a.ID)
	}
	class := verify.ClassChooser{Variant: core.CopyBack}
	if res := verify.Explore([]verify.Chooser{class, class, class}); !res.Ok() {
		t.Errorf("class exploration: %s", res)
	}
	check("the class model check")
	for _, name := range protocols.Names() {
		p, err := protocols.New(name)
		if err != nil {
			t.Fatal(err)
		}
		tc := verify.TableChooser{Table: p.Table()}
		verify.Explore([]verify.Chooser{tc, tc})
		check("the " + name + " model check")
	}
}

// TestSharedPoliciesConcurrent: boards read shared policies and the
// shared class lists from one goroutine per board on the concurrent
// engine — four split-tenure shards; moesi, dragon, berkeley and
// illinois boards (BS aborts); two boards each sharing the moesi and
// moesi-adaptive policies; two random boards drawing from the class
// lists. Under -race (CI runs it with -count=10) any path that writes
// to what another board reads is a reported race.
func TestSharedPoliciesConcurrent(t *testing.T) {
	cfg := Config{
		Boards: []BoardSpec{
			{Protocol: "moesi"}, {Protocol: "moesi"}, {Protocol: "dragon"},
			{Protocol: "berkeley"}, {Protocol: "illinois"},
			{Protocol: "moesi-adaptive"}, {Protocol: "moesi-adaptive"},
			{Protocol: "random"}, {Protocol: "random"},
		},
		Shards: 4,
		Tenure: "split",
		Shadow: true,
	}
	sys, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if sys.Caches[0].Policy() != sys.Caches[1].Policy() {
		t.Fatal("the two moesi boards do not share one policy")
	}
	if _, err := RunConcurrent(sys, abGens(sys, 0.4, 0.4, 5), 1500); err != nil {
		t.Fatal(err)
	}
	if err := sys.Check(); err != nil {
		t.Fatal(err)
	}
}
