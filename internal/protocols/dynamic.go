package protocols

import (
	"sync"

	"futurebus/internal/core"
)

// This file implements the dynamic choosers of §3.4: "As an extreme
// case, it would introduce no errors if a board were to select an
// action at each instant from the available set using a random number
// generator or a selection algorithm such as round robin." Both pick a
// fresh legal action from the full class on every event; the
// consistency experiments (P4) run them against the invariant checker.

// classTable materialises the full class (copy-back entries, all
// alternatives in class order) as a frozen Table, for validation and
// display. Its cells are the class's shared choice lists.
func classTable(name string) *core.Table {
	t := core.FullMOESITable(name)
	for _, s := range core.States {
		for _, e := range core.LocalEvents {
			t.SetLocal(s, e, core.LocalChoicesFor(s, e, core.CopyBack)...)
		}
		for _, e := range core.BusEvents {
			t.SetSnoop(s, e, core.SnoopChoices(s, e)...)
		}
	}
	return t.Freeze()
}

// randomTable and roundRobinTable are the Table of every Random and
// every RoundRobin policy, built once.
var (
	randomTable     = sync.OnceValue(func() *core.Table { return classTable("random (full class)") })
	roundRobinTable = sync.OnceValue(func() *core.Table { return classTable("round-robin (full class)") })
)

// splitmix64 is a tiny deterministic PRNG (no global state, no seeding
// from time) so dynamic policies are reproducible.
type splitmix64 struct{ state uint64 }

func (r *splitmix64) next() uint64 {
	r.state += 0x9e3779b97f4a7c15
	z := r.state
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

func (r *splitmix64) intn(n int) int {
	if n <= 1 {
		return 0
	}
	return int(r.next() % uint64(n))
}

// Random picks a uniformly random legal class action for every event.
// Its generator is per instance; choosing allocates nothing.
type Random struct {
	name string
	mu   sync.Mutex
	rng  splitmix64
}

// NewRandom creates a random-choice policy with a deterministic seed.
func NewRandom(seed uint64) *Random {
	return &Random{name: "random", rng: splitmix64{state: seed}}
}

// Name implements core.Policy.
func (p *Random) Name() string { return p.name }

// Variant implements core.Policy.
func (p *Random) Variant() core.Variant { return core.CopyBack }

// Table implements core.Policy: the full class, since any entry may be
// chosen.
func (p *Random) Table() *core.Table { return randomTable() }

// ChooseLocal implements core.Policy.
func (p *Random) ChooseLocal(s core.State, e core.LocalEvent) (core.LocalAction, bool) {
	alts := core.LocalChoicesFor(s, e, core.CopyBack)
	if len(alts) == 0 {
		return core.LocalAction{}, false
	}
	p.mu.Lock()
	i := p.rng.intn(len(alts))
	p.mu.Unlock()
	return alts[i], true
}

// ChooseSnoop implements core.Policy.
func (p *Random) ChooseSnoop(s core.State, e core.BusEvent) (core.SnoopAction, bool) {
	alts := core.SnoopChoices(s, e)
	if len(alts) == 0 {
		return core.SnoopAction{}, false
	}
	p.mu.Lock()
	i := p.rng.intn(len(alts))
	p.mu.Unlock()
	return alts[i], true
}

// Dynamic implements core.Policy: every choice draws from the generator.
func (p *Random) Dynamic() bool { return true }

var _ core.Policy = (*Random)(nil)

// RoundRobin cycles through the legal class actions of each cell in
// order, one step per event.
type RoundRobin struct {
	mu    sync.Mutex
	local [5][4]int
	snoop [5][6]int
}

// NewRoundRobin creates a round-robin policy.
func NewRoundRobin() *RoundRobin { return &RoundRobin{} }

// Name implements core.Policy.
func (p *RoundRobin) Name() string { return "round-robin" }

// Variant implements core.Policy.
func (p *RoundRobin) Variant() core.Variant { return core.CopyBack }

// Table implements core.Policy.
func (p *RoundRobin) Table() *core.Table { return roundRobinTable() }

// ChooseLocal implements core.Policy.
func (p *RoundRobin) ChooseLocal(s core.State, e core.LocalEvent) (core.LocalAction, bool) {
	alts := core.LocalChoicesFor(s, e, core.CopyBack)
	if len(alts) == 0 {
		return core.LocalAction{}, false
	}
	p.mu.Lock()
	i := p.local[s][e] % len(alts)
	p.local[s][e]++
	p.mu.Unlock()
	return alts[i], true
}

// ChooseSnoop implements core.Policy.
func (p *RoundRobin) ChooseSnoop(s core.State, e core.BusEvent) (core.SnoopAction, bool) {
	alts := core.SnoopChoices(s, e)
	if len(alts) == 0 {
		return core.SnoopAction{}, false
	}
	p.mu.Lock()
	i := p.snoop[s][e] % len(alts)
	p.snoop[s][e]++
	p.mu.Unlock()
	return alts[i], true
}

// Dynamic implements core.Policy: every choice advances its cell's turn.
func (p *RoundRobin) Dynamic() bool { return true }

var _ core.Policy = (*RoundRobin)(nil)
