package core

import "strings"

// Signal is a bitset over the Futurebus consistency signal lines of §3.2.
// The first three (CA, IM, BC) are asserted by the master of a
// transaction to declare its intentions; the last four (CH, DI, SL, BS)
// are wired-OR response lines asserted by other units on the bus.
type Signal uint8

const (
	// SigCA — cache master. "I am a copy-back cache and at the end of
	// this transaction I will retain a copy of the referenced data, or
	// I am a write-through cache and have just read this data."
	SigCA Signal = 1 << iota
	// SigIM — intent to modify. "In this transaction I will modify the
	// referenced data."
	SigIM
	// SigBC — broadcast. "If I do modify the data, I will place the
	// modifications on the bus so that you and/or the memory can update
	// yourselves." IM without BC means holders must discard their copies.
	SigBC
	// SigCH — cache hit. Response: "I have a copy of the referenced
	// data, which I will retain at the end of this transaction."
	SigCH
	// SigDI — data intervention. Response asserted by the owner of the
	// line; it preempts main memory (supplies data on a read, captures
	// the data on a write).
	SigDI
	// SigSL — select. Response asserted by a slave cache connecting on
	// a broadcast transfer to update its own copy; memory also asserts
	// SL when it participates in a transaction.
	SigSL
	// SigBS — busy. Aborts the transaction so that memory can be
	// updated before it resumes. Needed only by adapted protocols
	// (Write-Once, Illinois, Firefly); Futurebus has no mechanism to
	// update memory during a cache-to-cache transfer.
	SigBS
)

// MasterSignals masks the signals a transaction master may assert.
const MasterSignals = SigCA | SigIM | SigBC

// ResponseSignals masks the wired-OR response lines.
const ResponseSignals = SigCH | SigDI | SigSL | SigBS

// Has reports whether every signal in q is asserted in s.
func (s Signal) Has(q Signal) bool { return s&q == q }

// signalNames is ordered to match the cell syntax of the paper's tables
// (CA, IM, BC first, then responses).
var signalNames = []struct {
	sig  Signal
	name string
}{
	{SigCA, "CA"},
	{SigIM, "IM"},
	{SigBC, "BC"},
	{SigCH, "CH"},
	{SigDI, "DI"},
	{SigSL, "SL"},
	{SigBS, "BS"},
}

// String renders the set in the paper's comma-separated table syntax,
// e.g. "CA,IM,BC". The empty set renders as "".
func (s Signal) String() string {
	var parts []string
	for _, n := range signalNames {
		if s.Has(n.sig) {
			parts = append(parts, n.name)
		}
	}
	return strings.Join(parts, ",")
}
