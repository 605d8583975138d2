// Package obs is the unified event-tracing and metrics layer of the
// simulator. Every substrate — the bus, the caches, memory, the
// engines — emits simulation-timestamped structured Events into a
// Recorder, which hands them over in fixed-size batches (safe to feed
// from the goroutine-per-processor concurrent engine) to pluggable
// Sinks: a Chrome trace-event exporter for Perfetto, a
// JSONL exporter, a per-line audit trail, and log-bucketed latency
// histograms.
//
// The whole layer is optional: a nil *Recorder is a valid recorder
// whose methods are no-ops, and every instrumentation site guards
// event construction behind a single nil check, so an uninstrumented
// run pays one predictable branch per site.
//
// An Event carries the paper's closed vocabulary — its kind, the
// data-phase op, the MOESI states, the transition cause and the
// protocol — as small integers, so every sink indexes arrays by them.
// Strings appear only where output is written: JSONL, the Chrome
// trace, the .fbt dictionary, audit text and the analyzers' reports.
package obs

import (
	"encoding/json"
	"fmt"

	"futurebus/internal/core"
)

// Kind names an event type. Its output form (JSONL, .fbt, Chrome
// trace) is the stable string String returns.
type Kind uint8

// The kinds, in the order of the .fbt header's seed dictionary
// (KindEpoch, which the dictionary lacks, comes last). The zero Kind is
// no kind at all.
const (
	_ Kind = iota
	// KindTx is a completed (non-aborted) bus transaction. TS is the
	// simulated begin time, Dur the total bus occupancy including
	// aborted attempts; Col, CH/DI/SL and Retries carry the resolved
	// address-cycle outcome.
	KindTx
	// KindGrant marks the arbiter granting mastership for a
	// transaction (the begin of its first address cycle).
	KindGrant
	// KindAbort is one BS abort of a transaction attempt; Proc is the
	// aborted master.
	KindAbort
	// KindRecover is a BS recovery push: Proc is the owner that
	// asserted BS and is pushing the line to memory.
	KindRecover
	// KindState is a cache-line state transition: Proc's copy of Addr
	// moved From→To because of Cause.
	KindState
	// KindIntervene marks an owning cache supplying read data (DI).
	KindIntervene
	// KindUpdate marks a snooper merging a broadcast write (SL).
	KindUpdate
	// KindCapture marks an owner capturing a non-broadcast write (DI).
	KindCapture
	// KindEvict is a dirty eviction: a replacement pushed an owned
	// line back to memory.
	KindEvict
	// KindStall is processor-side: Proc stalled Dur simulated ns on a
	// bus operation it issued for Addr.
	KindStall
	// KindBlocked is engine-side: Proc's next bus operation was
	// deferred Dur simulated ns because the bus was occupied; CauseID
	// names the occupying transaction. The deterministic engine emits
	// it (its boards wait on the event timeline, never inside the
	// arbiter), mirroring the arbitration wait the concurrent engine
	// measures on KindGrant.
	KindBlocked
	// KindMemRead / KindMemWrite are main-memory line accesses.
	KindMemRead
	KindMemWrite
	// KindPend marks a split-mode transaction entering the pending
	// table: its address tenure ended, memory service proceeds off-bus.
	// Dur (and PendNS) is the off-bus first-word latency.
	KindPend
	// KindData is a split-mode data tenure: a pending response won
	// arbitration and retired its transfer beats. TxID is the original
	// transaction; CauseID the tenure it queued behind (pending-wait
	// causal edge); Dur (and DeferNS) the beats.
	KindData
	// KindNack is a split-mode NACK: a transaction found the pending
	// table full and was charged one retry address cycle (Dur) — the
	// split-mode fold of the BS abort.
	KindNack
	// KindRetryExhausted marks a transaction failing with
	// ErrTooManyRetries: BS aborts never quiesced. The runtime monitor
	// folds it into a forward-progress violation; Retries carries the
	// abort count.
	KindRetryExhausted
	// KindEpoch marks the assembly of a fresh system on the recorder's
	// stream (every cache starts Invalid again); Disc names the
	// system's arbitration discipline. Sweeps reuse one recorder across
	// many systems; stateful consumers — the runtime invariant monitor
	// — reset their per-line shadow on it so state from a finished
	// system is not misread as the next one's.
	KindEpoch

	// NumKinds bounds the kinds, for arrays indexed by Kind.
	NumKinds = iota
)

var kindNames = [NumKinds]string{
	"", "tx", "grant", "abort", "recover", "state", "intervene", "update",
	"capture", "evict", "stall", "blocked", "memread", "memwrite", "pend",
	"data", "nack", "retry-exhausted", "epoch",
}

// String returns the kind's stable output name ("tx", "state", …).
func (k Kind) String() string {
	if k < NumKinds {
		return kindNames[k]
	}
	return fmt.Sprintf("kind(%d)", uint8(k))
}

// Op is the data phase of a bus transaction. The zero Op is none.
type Op uint8

const (
	_       Op = iota
	OpRead     // "R": the line is read
	OpWrite    // "W": the line (or part of it) is written
	OpAddr     // "A": address only, no data moves

	// NumOps bounds the ops, for arrays indexed by Op.
	NumOps = iota
)

var opNames = [NumOps]string{"", "R", "W", "A"}

// String returns the op's letter: "R", "W" or "A" ("" for none).
func (o Op) String() string {
	if o < NumOps {
		return opNames[o]
	}
	return fmt.Sprintf("op(%d)", uint8(o))
}

// Cause says why a state transition happened. The zero Cause is none.
type Cause uint8

// Processor-side causes name the local action; snoop-side causes name
// the Table 2 column that was snooped.
const (
	_                   Cause = iota
	CauseReadHit              // "read-hit"
	CauseSilentWrite          // "silent-write"
	CauseWriteHit             // "write-hit"
	CauseWriteUpgrade         // "write-upgrade": a write announced on the bus
	CauseFill                 // "fill": a miss installed the line
	CauseEvictClean           // "evict-clean": replacement discarded a clean line
	CauseEvict                // "evict": replacement wrote a dirty line back
	CausePush                 // "push": Pass or Flush
	CauseBSRecovery           // "bs-recovery": an owner's BS recovery push
	CauseAbsorb               // "absorb": a bridge absorbed a write-back
	CauseInvalidateHeld       // "invalidate-held"
	// CauseSnoop is a snooped transaction of no Table 2 column.
	CauseSnoop
	CauseSnoopCacheRead       // "snoop-cache-read": column 5
	CauseSnoopCacheRFO        // "snoop-cache-rfo": column 6
	CauseSnoopRead            // "snoop-read": column 7
	CauseSnoopCacheBcastWrite // "snoop-cache-bcast-write": column 8
	CauseSnoopWrite           // "snoop-write": column 9
	CauseSnoopBcastWrite      // "snoop-bcast-write": column 10
	CauseSnoopClean           // "snoop-clean": CmdClean

	// NumCauses bounds the causes, for arrays indexed by Cause.
	NumCauses = iota
)

var causeNames = [NumCauses]string{
	"", "read-hit", "silent-write", "write-hit", "write-upgrade", "fill",
	"evict-clean", "evict", "push", "bs-recovery", "absorb", "invalidate-held",
	"snoop", "snoop-cache-read", "snoop-cache-rfo", "snoop-read",
	"snoop-cache-bcast-write", "snoop-write", "snoop-bcast-write", "snoop-clean",
}

// String returns the cause's stable output name ("" for none).
func (c Cause) String() string {
	if c < NumCauses {
		return causeNames[c]
	}
	return fmt.Sprintf("cause(%d)", uint8(c))
}

// Snoop reports whether c is snoop-side: "snoop" or a "snoop-…" column.
func (c Cause) Snoop() bool { return c >= CauseSnoop && c < NumCauses }

// NoState is the From or To of a KindState event that carries none.
// core.Invalid is a state like any other: it is the zero State, so
// "absent" needs a value of its own.
const NoState core.State = 0xff

func stateLetter(s core.State) string {
	if s == NoState {
		return ""
	}
	return s.Letter()
}

// Event is one structured observation. The zero value of every field
// except Kind is meaningful ("not applicable"), so emitters fill only
// what they know. Addr is a raw line address (bus.Addr widened) to
// keep obs importable from the bus package itself. The event holds no
// pointer and no string: the recorder copies it into its batches and
// every sink reads it by value.
type Event struct {
	// Seq is the global emission order, assigned by the Recorder.
	Seq uint64
	// TS is the simulated timestamp in nanoseconds (the Recorder's
	// clock, advanced by bus occupancy).
	TS int64
	// Dur is a duration in simulated nanoseconds for span-like events
	// (tx cost, stall time); 0 for instants.
	Dur int64
	// Addr is the line address.
	Addr uint64
	// ArbNS..RetryNS decompose a KindTx event's time by bus phase:
	// arbitration wait before the grant, successful broadcast address
	// handshake (including the wired-OR penalty), data beats,
	// cache-to-cache intervention first-word, memory first-word, and
	// BS abort/retry overhead. All but ArbNS sum to Dur; ArbNS is
	// waiting, not occupancy (see bus.PhaseCosts). KindGrant events
	// carry the arbitration wait as Dur.
	ArbNS   int64
	AddrNS  int64
	DataNS  int64
	IntvNS  int64
	MemNS   int64
	RetryNS int64
	// PendNS and DeferNS are the split-mode off-bus phases of a KindTx
	// (and the Dur of KindPend / KindData events): memory service spent
	// in the pending table and data-tenure beats retired after the
	// address tenure. Neither is part of Dur — the bus was free.
	PendNS  int64
	DeferNS int64
	// TxID links the grant, abort, recover and tx events of one
	// mastership (0 = unassigned). IDs are allocated by the arbiter, so
	// they are unique and monotonic across every bus sharing it. Cache
	// events caused by a bus transaction — KindState from a snoop or a
	// master's own fill/upgrade/push, KindIntervene, KindUpdate,
	// KindCapture, KindEvict — carry the causing transaction's TxID, so
	// coherence analysis can group a write with its invalidation/update
	// fan-out (processor-side silent transitions keep TxID 0).
	TxID uint64
	// CauseID is a causality edge to another transaction's TxID: on
	// the KindTx of a BS recovery push it names the aborted transaction
	// being recovered for (KindRecover marks recovery starting for its
	// own TxID, and carries the enclosing recovery chain's parent, if
	// any, like KindTx); on KindGrant with non-zero Dur and on
	// KindBlocked it names the transaction that held the bus while this
	// master waited (blocking mastership).
	CauseID uint64
	// Bus identifies the bus segment (0 for a single-bus system; a
	// hierarchy numbers global=0, clusters 1..N; -1 = not applicable).
	Bus int32
	// Proc is the board / master / snooper id (-1 = not applicable).
	Proc int32
	// Col is the Table 2 event column of a bus transaction (-1 = n/a).
	Col int32
	// Retries counts BS abort/retry rounds the transaction suffered.
	Retries int32
	// Bytes is the data-phase payload size.
	Bytes int32
	// Proto names the protocol governing the line on KindState events,
	// so per-protocol transition matrices survive mixed-protocol runs.
	Proto Name
	// Disc names a KindEpoch's arbitration discipline. Its output
	// place is the cause field, which no epoch uses otherwise.
	Disc Name
	// Kind discriminates the event.
	Kind Kind
	// Op is the data phase of a transaction.
	Op Op
	// From and To are the copy's states before and after a KindState
	// transition (NoState when the event carries none). Other kinds
	// carry no state and ignore them.
	From, To core.State
	// Cause says why a state transition happened.
	Cause Cause
	// CH, DI, SL are the resolved wired-OR response lines of a tx.
	CH, DI, SL bool
}

// Letters renders From and To as state letters, "" where the event
// carries none.
func (e *Event) Letters() (from, to string) {
	if e.Kind != KindState {
		return "", ""
	}
	return stateLetter(e.From), stateLetter(e.To)
}

// CauseName renders the event's cause field: the Cause, or a
// KindEpoch's discipline.
func (e *Event) CauseName() string {
	if e.Kind == KindEpoch {
		return e.Disc.String()
	}
	return e.Cause.String()
}

// jsonEvent is an Event's JSON form, field for field in the output
// order, with the enumerations as their output strings.
type jsonEvent struct {
	Seq     uint64 `json:"seq"`
	TS      int64  `json:"ts"`
	Dur     int64  `json:"dur,omitempty"`
	Kind    string `json:"kind"`
	Bus     int32  `json:"bus"`
	Proc    int32  `json:"proc"`
	Addr    uint64 `json:"addr"`
	Col     int32  `json:"col,omitempty"`
	Op      string `json:"op,omitempty"`
	From    string `json:"from,omitempty"`
	To      string `json:"to,omitempty"`
	Cause   string `json:"cause,omitempty"`
	Proto   string `json:"proto,omitempty"`
	CH      bool   `json:"ch,omitempty"`
	DI      bool   `json:"di,omitempty"`
	SL      bool   `json:"sl,omitempty"`
	Retries int32  `json:"retries,omitempty"`
	Bytes   int32  `json:"bytes,omitempty"`
	ArbNS   int64  `json:"arb_ns,omitempty"`
	AddrNS  int64  `json:"addr_ns,omitempty"`
	DataNS  int64  `json:"data_ns,omitempty"`
	IntvNS  int64  `json:"intv_ns,omitempty"`
	MemNS   int64  `json:"mem_ns,omitempty"`
	RetryNS int64  `json:"retry_ns,omitempty"`
	PendNS  int64  `json:"pend_ns,omitempty"`
	DeferNS int64  `json:"defer_ns,omitempty"`
	TxID    uint64 `json:"txid,omitempty"`
	CauseID uint64 `json:"cause_id,omitempty"`
}

// MarshalJSON renders the event as one JSON object, the form JSONL,
// the SSE stream and violation context share.
func (e Event) MarshalJSON() ([]byte, error) {
	from, to := e.Letters()
	return json.Marshal(jsonEvent{
		Seq: e.Seq, TS: e.TS, Dur: e.Dur, Kind: e.Kind.String(), Bus: e.Bus,
		Proc: e.Proc, Addr: e.Addr, Col: e.Col, Op: e.Op.String(),
		From: from, To: to, Cause: e.CauseName(), Proto: e.Proto.String(),
		CH: e.CH, DI: e.DI, SL: e.SL, Retries: e.Retries, Bytes: e.Bytes,
		ArbNS: e.ArbNS, AddrNS: e.AddrNS, DataNS: e.DataNS, IntvNS: e.IntvNS,
		MemNS: e.MemNS, RetryNS: e.RetryNS, PendNS: e.PendNS, DeferNS: e.DeferNS,
		TxID: e.TxID, CauseID: e.CauseID,
	})
}

// UnmarshalJSON parses the form MarshalJSON writes. A string that
// names no value of its field is an error naming the field.
func (e *Event) UnmarshalJSON(data []byte) error {
	var j jsonEvent
	if err := json.Unmarshal(data, &j); err != nil {
		return err
	}
	*e = Event{
		Seq: j.Seq, TS: j.TS, Dur: j.Dur, Bus: j.Bus, Proc: j.Proc, Addr: j.Addr,
		Col: j.Col, CH: j.CH, DI: j.DI, SL: j.SL, Retries: j.Retries, Bytes: j.Bytes,
		ArbNS: j.ArbNS, AddrNS: j.AddrNS, DataNS: j.DataNS, IntvNS: j.IntvNS,
		MemNS: j.MemNS, RetryNS: j.RetryNS, PendNS: j.PendNS, DeferNS: j.DeferNS,
		TxID: j.TxID, CauseID: j.CauseID,
	}
	var err error
	if e.Kind, err = parseKind(j.Kind); err != nil {
		return fmt.Errorf("obs: event kind: %w", err)
	}
	if e.Op, err = parseOp(j.Op); err != nil {
		return fmt.Errorf("obs: event op: %w", err)
	}
	for _, f := range [...]struct {
		name, s string
		dst     *core.State
	}{{"from", j.From, &e.From}, {"to", j.To, &e.To}} {
		if e.Kind != KindState {
			if f.s != "" {
				return fmt.Errorf("obs: event %s: a %s event carries no state", f.name, e.Kind)
			}
			continue
		}
		if *f.dst, err = parseState(f.s); err != nil {
			return fmt.Errorf("obs: event %s: %w", f.name, err)
		}
	}
	if e.Kind == KindEpoch {
		e.Disc, err = decodeName(j.Cause)
	} else {
		e.Cause, err = ParseCause(j.Cause)
	}
	if err != nil {
		return fmt.Errorf("obs: event cause: %w", err)
	}
	if e.Proto, err = decodeName(j.Proto); err != nil {
		return fmt.Errorf("obs: event proto: %w", err)
	}
	return nil
}

// ParseCause maps a cause's output name back to the cause.
func ParseCause(s string) (Cause, error) {
	return parse[Cause](causeNames[:], s, "transition cause")
}

func parseKind(s string) (Kind, error) { return parse[Kind](kindNames[:], s, "event kind") }

func parseOp(s string) (Op, error) { return parse[Op](opNames[:], s, "data-phase op") }

// parse maps an output string back to its value: its index in names,
// where "" names the field's absent value.
func parse[T ~uint8](names []string, s, field string) (T, error) {
	for v, name := range names {
		if name == s {
			return T(v), nil
		}
	}
	return 0, fmt.Errorf("%q names no %s", s, field)
}

// parseState maps a state letter back to its state; "" is NoState.
func parseState(s string) (core.State, error) {
	if s == "" {
		return NoState, nil
	}
	for _, st := range core.States {
		if st.Letter() == s {
			return st, nil
		}
	}
	return 0, fmt.Errorf("%q names no MOESI state", s)
}
