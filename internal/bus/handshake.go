package bus

import (
	"fmt"
	"sort"
	"strings"
)

// This file reproduces Figures 1 and 2 of the paper: the broadcast
// handshake on open-collector lines, and the Futurebus parallel
// (address) protocol. The simulation is event-driven at nanosecond
// granularity and models the asymmetric inertial-delay (low-pass)
// filter that deterministically removes wired-OR glitches, at the cost
// of the 25 ns broadcast penalty (§2.2, [Gust83]).

// EdgeKind distinguishes what happened on a line at an event.
type EdgeKind uint8

const (
	// EdgeAssert: a driver pulled the line low (the wired-OR line
	// falls if it was high).
	EdgeAssert EdgeKind = iota
	// EdgeRelease: a driver let go; the line stays low if any other
	// driver still holds it (the wired-OR glitch is filtered away).
	EdgeRelease
	// EdgeHigh: the filtered wired-OR line is observed high — every
	// driver has released it.
	EdgeHigh
)

func (k EdgeKind) String() string {
	switch k {
	case EdgeAssert:
		return "fall"
	case EdgeRelease:
		return "release"
	case EdgeHigh:
		return "rise"
	}
	return fmt.Sprintf("EdgeKind(%d)", uint8(k))
}

// HandshakeEvent is one event in the handshake trace.
type HandshakeEvent struct {
	// Time in nanoseconds from the start of the cycle.
	Time int64
	// Line is the signal name ("AS*", "AK*", "AI*", "ADDR").
	Line string
	// Kind says what happened.
	Kind EdgeKind
	// Unit is the module responsible (-1 for a wired-OR resolution
	// involving all drivers, e.g. the final rise of AI*).
	Unit int
	// Note is a human-readable annotation for the trace output.
	Note string
}

func (e HandshakeEvent) String() string {
	who := "wired-OR"
	if e.Unit >= 0 {
		who = fmt.Sprintf("unit %d", e.Unit)
	}
	return fmt.Sprintf("t=%4dns %-5s %-7s (%s) %s", e.Time, e.Line, e.Kind, who, e.Note)
}

// SlaveTiming describes one responding module's speed.
type SlaveTiming struct {
	// AckDelay: time from seeing AS* fall to asserting AK*.
	AckDelay int64
	// ProcessTime: time from seeing AS* fall until the module is done
	// with the address (e.g. its cache directory lookup completes) and
	// releases AI*.
	ProcessTime int64
}

// HandshakeConfig parameterises a broadcast address cycle.
type HandshakeConfig struct {
	// AddressSetup: master drives the address this long before AS*.
	AddressSetup int64
	// GlitchFilter is the inertial delay that masks wired-OR glitches;
	// the observed rise of a wired-OR line lags the last release by
	// this much. The paper's figure is 25 ns.
	GlitchFilter int64
	// Slaves lists every responding module. A broadcast cycle does not
	// complete until the slowest has released AI* — "no matter how new
	// or old, fast or slow, a particular board may be" (§2.2).
	Slaves []SlaveTiming
}

// DefaultHandshakeConfig returns a three-slave configuration with
// heterogeneous board speeds, as in Figure 1's discussion.
func DefaultHandshakeConfig() HandshakeConfig {
	return HandshakeConfig{
		AddressSetup: 10,
		GlitchFilter: 25,
		Slaves: []SlaveTiming{
			{AckDelay: 5, ProcessTime: 40},
			{AckDelay: 8, ProcessTime: 90},
			{AckDelay: 6, ProcessTime: 60},
		},
	}
}

// HandshakeTrace is the result of simulating one broadcast address
// cycle.
type HandshakeTrace struct {
	Events []HandshakeEvent
	// Complete is when the master may remove the address: the filtered
	// rise of AI* (all slaves done).
	Complete int64
	// FirstAck is when AK* fell (the first slave acknowledged).
	FirstAck int64
	// LastRelease is when the final slave released AI*, before the
	// glitch filter.
	LastRelease int64
}

// SimulateBroadcastHandshake runs the Figure 1/2 protocol:
//
//  1. The master drives the address, then asserts AS*.
//  2. Every slave asserts AK* as soon as it sees AS* (the wired-OR AK*
//     falls with the FIRST assertion — "if you need to know when the
//     first module reaches a particular state, have it pull the signal
//     low").
//  3. Every slave holds AI* asserted from power-on; each releases AI*
//     only when it is finished with the address. The wired-OR AI* rises
//     with the LAST release ("drive low, float high"), plus the glitch
//     filter delay.
//  4. Only after AI* rises may the master remove the address.
func SimulateBroadcastHandshake(cfg HandshakeConfig) HandshakeTrace {
	const master = 0
	var tr HandshakeTrace
	add := func(e HandshakeEvent) { tr.Events = append(tr.Events, e) }

	ai := NewWiredORLine("AI*")
	ak := NewWiredORLine("AK*")
	// AI* is held asserted by all slaves before the cycle begins.
	for i := range cfg.Slaves {
		ai.Assert(i + 1)
	}

	add(HandshakeEvent{Time: 0, Line: "ADDR", Kind: EdgeAssert, Unit: master, Note: "master drives address"})
	asTime := cfg.AddressSetup
	add(HandshakeEvent{Time: asTime, Line: "AS*", Kind: EdgeAssert, Unit: master, Note: "address strobe"})

	// AK*: all slaves assert, and the wired-OR line falls with the
	// FIRST assertion — slaves may ack in any order, the observable
	// edge is the earliest.
	firstAck := asTime + cfg.Slaves[0].AckDelay
	firstUnit := 1
	for i, s := range cfg.Slaves {
		ak.Assert(i + 1)
		if t := asTime + s.AckDelay; t < firstAck {
			firstAck, firstUnit = t, i+1
		}
	}
	add(HandshakeEvent{Time: firstAck, Line: "AK*", Kind: EdgeAssert, Unit: firstUnit, Note: "first acknowledge pulls AK* low"})
	tr.FirstAck = firstAck

	// AI*: each slave releases when done; the line rises after the last
	// release plus the glitch-filter delay. Intermediate releases cause
	// wired-OR glitches that the filter removes.
	type rel struct {
		t    int64
		unit int
	}
	rels := make([]rel, len(cfg.Slaves))
	for i, s := range cfg.Slaves {
		rels[i] = rel{t: asTime + s.ProcessTime, unit: i + 1}
	}
	sort.Slice(rels, func(i, j int) bool { return rels[i].t < rels[j].t })
	for i, r := range rels {
		ai.Release(r.unit)
		note := "releases AI* (wired-OR glitch filtered)"
		if i == len(rels)-1 {
			note = "last release; AI* may rise"
		}
		add(HandshakeEvent{Time: r.t, Line: "AI*", Kind: EdgeRelease, Unit: r.unit, Note: note})
	}
	tr.LastRelease = rels[len(rels)-1].t
	if ai.Asserted() {
		panic("bus: AI* still driven after all releases")
	}
	rise := tr.LastRelease + cfg.GlitchFilter
	add(HandshakeEvent{Time: rise, Line: "AI*", Kind: EdgeHigh, Unit: -1, Note: "AI* observed high after inertial delay"})
	add(HandshakeEvent{Time: rise, Line: "ADDR", Kind: EdgeHigh, Unit: master, Note: "master may remove address"})
	tr.Complete = rise

	sort.SliceStable(tr.Events, func(i, j int) bool { return tr.Events[i].Time < tr.Events[j].Time })
	return tr
}

// Timing returns the default cost model with the address cycle this
// handshake took, so one slow board slows every cycle (§2.2). Complete
// already includes the WiredORPenalty AddressCycleCost adds.
func (tr HandshakeTrace) Timing() Timing {
	t := DefaultTiming()
	t.AddressCycle = tr.Complete - t.WiredORPenalty
	return t
}

// Render formats the trace for terminal output (fbpaper figures).
func (tr HandshakeTrace) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Broadcast address handshake (Figures 1-2)\n")
	for _, e := range tr.Events {
		fmt.Fprintf(&b, "  %s\n", e)
	}
	fmt.Fprintf(&b, "cycle complete at t=%dns (last slave done t=%dns + %dns wired-OR filter)\n",
		tr.Complete, tr.LastRelease, tr.Complete-tr.LastRelease)
	return b.String()
}
