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
package obs

// Kind names an event type. Kinds are stable strings so JSONL output
// is self-describing and round-trips without a registry.
type Kind string

const (
	// KindTx is a completed (non-aborted) bus transaction. TS is the
	// simulated begin time, Dur the total bus occupancy including
	// aborted attempts; Col, CH/DI/SL and Retries carry the resolved
	// address-cycle outcome.
	KindTx Kind = "tx"
	// KindGrant marks the arbiter granting mastership for a
	// transaction (the begin of its first address cycle).
	KindGrant Kind = "grant"
	// KindAbort is one BS abort of a transaction attempt; Proc is the
	// aborted master.
	KindAbort Kind = "abort"
	// KindRecover is a BS recovery push: Proc is the owner that
	// asserted BS and is pushing the line to memory.
	KindRecover Kind = "recover"
	// KindState is a cache-line state transition: Proc's copy of Addr
	// moved From→To because of Cause.
	KindState Kind = "state"
	// KindIntervene marks an owning cache supplying read data (DI).
	KindIntervene Kind = "intervene"
	// KindUpdate marks a snooper merging a broadcast write (SL).
	KindUpdate Kind = "update"
	// KindCapture marks an owner capturing a non-broadcast write (DI).
	KindCapture Kind = "capture"
	// KindEvict is a dirty eviction: a replacement pushed an owned
	// line back to memory.
	KindEvict Kind = "evict"
	// KindStall is processor-side: Proc stalled Dur simulated ns on a
	// bus operation it issued for Addr.
	KindStall Kind = "stall"
	// KindBlocked is engine-side: Proc's next bus operation was
	// deferred Dur simulated ns because the bus was occupied; CauseID
	// names the occupying transaction. The deterministic engine emits
	// it (its boards wait on the event timeline, never inside the
	// arbiter), mirroring the arbitration wait the concurrent engine
	// measures on KindGrant.
	KindBlocked Kind = "blocked"
	// KindMemRead / KindMemWrite are main-memory line accesses.
	KindMemRead  Kind = "memread"
	KindMemWrite Kind = "memwrite"
	// KindEpoch marks the assembly of a fresh system on the recorder's
	// stream (every cache starts Invalid again). Sweeps reuse one
	// recorder across many systems; stateful consumers — the runtime
	// invariant monitor — reset their per-line shadow on it so state
	// from a finished system is not misread as the next one's.
	KindEpoch Kind = "epoch"
	// KindPend marks a split-mode transaction entering the pending
	// table: its address tenure ended, memory service proceeds off-bus.
	// Dur (and PendNS) is the off-bus first-word latency.
	KindPend Kind = "pend"
	// KindData is a split-mode data tenure: a pending response won
	// arbitration and retired its transfer beats. TxID is the original
	// transaction; CauseID the tenure it queued behind (pending-wait
	// causal edge); Dur (and DeferNS) the beats.
	KindData Kind = "data"
	// KindNack is a split-mode NACK: a transaction found the pending
	// table full and was charged one retry address cycle (Dur) — the
	// split-mode fold of the BS abort.
	KindNack Kind = "nack"
	// KindRetryExhausted marks a transaction failing with
	// ErrTooManyRetries: BS aborts never quiesced. The runtime monitor
	// folds it into a forward-progress violation; Retries carries the
	// abort count.
	KindRetryExhausted Kind = "retry-exhausted"
)

// Event is one structured observation. The zero value of every field
// except Kind is meaningful ("not applicable"), so emitters fill only
// what they know. Addr is a raw line address (bus.Addr widened) to
// keep obs importable from the bus package itself.
type Event struct {
	// Seq is the global emission order, assigned by the Recorder.
	Seq uint64 `json:"seq"`
	// TS is the simulated timestamp in nanoseconds (the Recorder's
	// clock, advanced by bus occupancy).
	TS int64 `json:"ts"`
	// Dur is a duration in simulated nanoseconds for span-like events
	// (tx cost, stall time); 0 for instants.
	Dur int64 `json:"dur,omitempty"`
	// Kind discriminates the event.
	Kind Kind `json:"kind"`
	// Bus identifies the bus segment (0 for a single-bus system; a
	// hierarchy numbers global=0, clusters 1..N; -1 = not applicable).
	Bus int `json:"bus"`
	// Proc is the board / master / snooper id (-1 = not applicable).
	Proc int `json:"proc"`
	// Addr is the line address.
	Addr uint64 `json:"addr"`
	// Col is the Table 2 event column of a bus transaction (-1 = n/a).
	Col int `json:"col,omitempty"`
	// Op is the data phase of a transaction: "R", "W" or "A".
	Op string `json:"op,omitempty"`
	// From and To are state letters for KindState.
	From string `json:"from,omitempty"`
	To   string `json:"to,omitempty"`
	// Cause says why a state transition happened. Processor-side causes
	// ("read-hit", "silent-write", "write-hit", "write-upgrade", "fill",
	// "evict-clean", "evict", "push", "bs-recovery") name the local
	// action; snoop-side causes name the Table 2 column that was snooped
	// ("snoop-cache-read" col 5, "snoop-cache-rfo" col 6, "snoop-read"
	// col 7, "snoop-cache-bcast-write" col 8, "snoop-write" col 9,
	// "snoop-bcast-write" col 10, plus "snoop-clean" for CmdClean).
	Cause string `json:"cause,omitempty"`
	// Proto names the protocol governing the line on KindState events,
	// so per-protocol transition matrices survive mixed-protocol runs.
	Proto string `json:"proto,omitempty"`
	// CH, DI, SL are the resolved wired-OR response lines of a tx.
	CH bool `json:"ch,omitempty"`
	DI bool `json:"di,omitempty"`
	SL bool `json:"sl,omitempty"`
	// Retries counts BS abort/retry rounds the transaction suffered.
	Retries int `json:"retries,omitempty"`
	// Bytes is the data-phase payload size.
	Bytes int `json:"bytes,omitempty"`
	// ArbNS..RetryNS decompose a KindTx event's time by bus phase:
	// arbitration wait before the grant, successful broadcast address
	// handshake (including the wired-OR penalty), data beats,
	// cache-to-cache intervention first-word, memory first-word, and
	// BS abort/retry overhead. All but ArbNS sum to Dur; ArbNS is
	// waiting, not occupancy (see bus.PhaseCosts). KindGrant events
	// carry the arbitration wait as Dur.
	ArbNS   int64 `json:"arb_ns,omitempty"`
	AddrNS  int64 `json:"addr_ns,omitempty"`
	DataNS  int64 `json:"data_ns,omitempty"`
	IntvNS  int64 `json:"intv_ns,omitempty"`
	MemNS   int64 `json:"mem_ns,omitempty"`
	RetryNS int64 `json:"retry_ns,omitempty"`
	// PendNS and DeferNS are the split-mode off-bus phases of a KindTx
	// (and the Dur of KindPend / KindData events): memory service spent
	// in the pending table and data-tenure beats retired after the
	// address tenure. Neither is part of Dur — the bus was free.
	PendNS  int64 `json:"pend_ns,omitempty"`
	DeferNS int64 `json:"defer_ns,omitempty"`
	// TxID links the grant, abort, recover and tx events of one
	// mastership (0 = unassigned). IDs are allocated by the arbiter, so
	// they are unique and monotonic across every bus sharing it. Cache
	// events caused by a bus transaction — KindState from a snoop or a
	// master's own fill/upgrade/push, KindIntervene, KindUpdate,
	// KindCapture, KindEvict — carry the causing transaction's TxID, so
	// coherence analysis can group a write with its invalidation/update
	// fan-out (processor-side silent transitions keep TxID 0).
	TxID uint64 `json:"txid,omitempty"`
	// CauseID is a causality edge to another transaction's TxID: on
	// the KindTx of a BS recovery push it names the aborted transaction
	// being recovered for (KindRecover marks recovery starting for its
	// own TxID, and carries the enclosing recovery chain's parent, if
	// any, like KindTx); on KindGrant with non-zero Dur and on
	// KindBlocked it names the transaction that held the bus while this
	// master waited (blocking mastership).
	CauseID uint64 `json:"cause_id,omitempty"`
}
