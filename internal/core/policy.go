package core

// Policy is the decision procedure of one board: for each (state, event)
// cell it picks the action the board takes. §3.4 of the paper allows any
// board to pick any action permitted by the class, statically or
// dynamically ("it would introduce no errors if a board were to select
// an action at each instant from the available set using a random number
// generator or a selection algorithm such as round robin") — so a Policy
// may return a different legal choice on every call.
//
// Implementations must be safe for concurrent use: a cache's snoop path
// (driven by the bus) and its processor path may consult the policy from
// different goroutines.
type Policy interface {
	// Name identifies the protocol for reports and tables.
	Name() string
	// Variant describes the kind of client the policy drives.
	Variant() Variant
	// Table returns the protocol's transition table: every alternative
	// the policy may ever choose, in preference order. Used for class
	// validation and table regeneration.
	Table() *Table
	// ChooseLocal picks the action for a local event. ok is false for
	// the tables' "—" (not a legal case).
	ChooseLocal(s State, e LocalEvent) (LocalAction, bool)
	// ChooseSnoop picks the action for a snooped bus event.
	ChooseSnoop(s State, e BusEvent) (SnoopAction, bool)
	// Dynamic reports whether the policy draws its choices from state
	// of its own (§3.4's random and round-robin choosers): asking twice
	// for one cell may then give two actions, and every ask moves the
	// chooser. A table-driven policy is not dynamic — its choice is a
	// function of (state, event) alone.
	Dynamic() bool
}

// RecencyAware is an optional Policy refinement from §5.2: "have a
// cache examine the replacement status of a line written by another
// cache. If the line is quite recently used (e.g. most recently used
// element of two element set), it can be updated, and if it is nearing
// time for replacement (e.g. least recently used element of two element
// set), it can be discarded." A cache consults ChooseSnoopRecency
// instead of ChooseSnoop when the policy implements it, passing whether
// the snooped line is recently used within its set.
type RecencyAware interface {
	ChooseSnoopRecency(s State, e BusEvent, recentlyUsed bool) (SnoopAction, bool)
}
