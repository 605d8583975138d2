// Package verify is an exhaustive model checker for the MOESI class:
// it explores EVERY reachable state of a small abstract system (up to
// four boards, one line) under EVERY permitted choice of actions, and
// checks the §3.1 invariants in every state. Where the simulator
// samples behaviours, the checker enumerates them — it is the
// executable form of the paper's compatibility claim (§3.4: any board
// may take any permitted action at any instant).
//
// The abstraction tracks, per board, its MOESI state and one bit of
// data truth — whether its copy is CURRENT (holds the latest write) —
// plus the same bit for main memory. A write makes every copy that does
// not receive the written word stale; a full-line transfer inherits the
// currency of its source. This reduces the unbounded data domain to a
// finite state space (≤ 11^4·2 states for four boards) while preserving
// exactly the properties the consistency criterion is about.
//
// The checker proves, by exhaustion:
//   - the full class (with the note 9–12 relaxations, the write-through
//     rows and non-caching masters) maintains every invariant;
//   - each adapted protocol (Write-Once, Illinois, Firefly with their
//     BS actions) is self-consistent in a protocol-pure system;
//   - and it FINDS the documented hazard when Write-Once's or
//     Firefly's §4 local actions share a line with an O-capable
//     protocol — the reason core.RequiresAdaptation exists.
package verify

import (
	"fmt"

	"futurebus/internal/core"
)

// Chooser yields the permitted actions of one board, in any order. The
// checker branches over all of them.
type Chooser interface {
	Name() string
	// LocalChoices returns the permitted local actions in state s (nil
	// for an illegal case).
	LocalChoices(s core.State, e core.LocalEvent) []core.LocalAction
	// SnoopChoices returns the permitted snoop actions in state s for
	// a bus event.
	SnoopChoices(s core.State, e core.BusEvent) []core.SnoopAction
	// Snoops reports whether the board monitors the bus at all
	// (non-caching masters do not).
	Snoops() bool
}

// ClassChooser explores the full class for a client variant.
type ClassChooser struct {
	Variant core.Variant
}

// Name implements Chooser.
func (c ClassChooser) Name() string { return "class(" + c.Variant.String() + ")" }

// LocalChoices implements Chooser.
func (c ClassChooser) LocalChoices(s core.State, e core.LocalEvent) []core.LocalAction {
	return core.LocalChoicesFor(s, e, c.Variant)
}

// SnoopChoices implements Chooser.
func (c ClassChooser) SnoopChoices(s core.State, e core.BusEvent) []core.SnoopAction {
	return core.SnoopChoices(s, e)
}

// Snoops implements Chooser.
func (c ClassChooser) Snoops() bool { return c.Variant != core.NonCaching }

// TableChooser explores one protocol's table (all its alternatives,
// including BS abort cells).
type TableChooser struct {
	Table *core.Table
}

// Name implements Chooser.
func (c TableChooser) Name() string { return c.Table.Name }

// LocalChoices implements Chooser.
func (c TableChooser) LocalChoices(s core.State, e core.LocalEvent) []core.LocalAction {
	return c.Table.Local(s, e)
}

// SnoopChoices implements Chooser.
func (c TableChooser) SnoopChoices(s core.State, e core.BusEvent) []core.SnoopAction {
	return c.Table.Snoop(s, e)
}

// Snoops implements Chooser.
func (c TableChooser) Snoops() bool { return true }

// boardView is one board's slice of the abstract state.
type boardView struct {
	state core.State
	// current: this copy holds the latest written value. Meaningless
	// when state is Invalid.
	current bool
}

// sysState is the abstract machine state for up to MaxBoards boards.
type sysState struct {
	n          int
	boards     [MaxBoards]boardView
	memCurrent bool
}

// MaxBoards bounds the boards Explore takes (11^4·2 ≈ 29k states).
const MaxBoards = 4

// key packs the state into a comparable value: 5 bits per board
// (state:3, current:1, spare) plus the memory bit.
func (s sysState) key() uint32 {
	k := uint32(0)
	for i := 0; i < s.n; i++ {
		b := uint32(s.boards[i].state) << 1
		if b > 0b1111 {
			panic("verify: state overflow")
		}
		if s.boards[i].current {
			b |= 1
		}
		k = k<<5 | b
	}
	k <<= 1
	if s.memCurrent {
		k |= 1
	}
	return k
}

func (s sysState) String() string {
	out := ""
	for i := 0; i < s.n; i++ {
		cur := "-"
		if s.boards[i].current {
			cur = "+"
		}
		if !s.boards[i].state.Valid() {
			cur = " "
		}
		out += fmt.Sprintf("[%d:%s%s]", i, s.boards[i].state.Letter(), cur)
	}
	if s.memCurrent {
		return out + " mem+"
	}
	return out + " mem-"
}

// Violation is one invariant breach, with the event path that reaches
// it from the initial state.
type Violation struct {
	State  sysState
	Reason string
	// Trace is the event path from power-on to the violating state.
	Trace []string
}

func (v Violation) String() string {
	out := fmt.Sprintf("%s: %s", v.State, v.Reason)
	for _, step := range v.Trace {
		out += "\n    after: " + step
	}
	return out
}

// Result summarises one exploration.
type Result struct {
	// States is the number of distinct reachable states.
	States int
	// Transitions is the number of transition edges explored.
	Transitions int
	// Violations holds every invariant breach found (empty = the
	// configuration is exhaustively verified).
	Violations []Violation
}

// Ok reports whether the exploration found no violations.
func (r Result) Ok() bool { return len(r.Violations) == 0 }

func (r Result) String() string {
	if r.Ok() {
		return fmt.Sprintf("verified: %d states, %d transitions, no violations", r.States, r.Transitions)
	}
	out := fmt.Sprintf("%d violations over %d states:", len(r.Violations), r.States)
	for i, v := range r.Violations {
		if i == 5 {
			out += fmt.Sprintf("\n  … and %d more", len(r.Violations)-i)
			break
		}
		out += "\n  " + v.String()
	}
	return out
}
