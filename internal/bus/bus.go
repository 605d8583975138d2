// Package bus simulates the IEEE Futurebus (P896) facilities the MOESI
// class of consistency protocols relies on (§2 of the paper):
//
//   - broadcast address cycles: every attached unit observes every
//     address and must acknowledge it before the cycle completes, which
//     gives any snooping cache time to signal an exception;
//   - open-collector wired-OR response lines (CH, DI, SL, BS), resolved
//     per transaction, including the per-snooper "other units' CH" view
//     a listening owner needs to resolve CH-conditional transitions;
//   - multi-party data transfers: an intervening owner (DI) preempts
//     memory, broadcast writes update memory and every connecting (SL)
//     slave;
//   - the BS (busy) abort: a transaction is aborted, the asserting owner
//     pushes its line to memory, and the original master retries —
//     the paper's adaptation for Write-Once, Illinois and Firefly;
//   - a timing model charging each transaction the address handshake
//     (including the 25 ns wired-OR glitch-filter penalty of §2.2),
//     first-word latency and per-word transfer cycles.
//
// The Bus is the serialisation point of the system: transactions execute
// one at a time under a FIFO arbiter, which is what makes the
// goroutine-per-processor engine race-free.
package bus

import (
	"encoding/binary"
	"errors"
	"fmt"

	"futurebus/internal/core"
	"futurebus/internal/obs"
)

// Addr identifies a line of the shared address space. The bus moves
// whole lines; a standard system-wide line size is assumed throughout,
// as required by §5.1 of the paper.
type Addr uint64

// SnoopResponse is what a snooping unit proposes during the address
// cycle of a transaction it did not issue.
type SnoopResponse struct {
	// Action is the protocol action chosen for this (state, bus event)
	// cell; its signal assertions drive the wired-OR lines.
	Action core.SnoopAction
	// Line, when the action asserts DI on a read, is the owner's own
	// line buffer — not a copy. It stays valid while Query's directory
	// hold lasts: the bus copies it into the master's buffer before it
	// calls Commit or Cancel, and never touches it afterwards.
	Line []byte
	// State is the directory state the action was chosen from; the
	// paranoid bus mode (Config.Paranoid) validates Action against the
	// class for this state.
	State core.State
	// Hit records whether the snooper held the line at all (for stats).
	Hit bool
	// Err, when set, says the snooper cannot answer: its state has no
	// legal action for the bus event (a "—" cell of Table 2). The bus
	// releases every directory the address cycle queried and fails the
	// transaction with Err.
	Err error
}

// Snooper is a unit that monitors broadcast address cycles (a cache).
//
// The address cycle of a real Futurebus transaction holds every unit's
// directory until the cycle completes (AI* stays low, §2.1); the
// interface mirrors that: Query must leave the snooper's internal lock
// held, and exactly one of Commit (apply the action and unlock) or
// Cancel (the transaction was aborted by BS; unlock without applying)
// follows. This pins each snooper's state between decision and effect,
// so a processor-side silent transition (such as E→M on a local write)
// cannot slip between the two.
//
// In Commit, otherCH is the wired-OR of CH over all *other* units,
// which resolves CH-conditional result states; write payloads (full
// line or partial word) are read from the transaction itself.
//
// A snooper that also implements Holder is called only for the lines
// the shard's holder record says it holds (see holders.go); any other
// snooper on every address cycle.
//
// The *Transaction a snooper receives is the bus's own copy, valid only
// for the duration of the call; snoopers must not retain it.
type Snooper interface {
	SnooperID() int
	Query(tx *Transaction) SnoopResponse
	Commit(tx *Transaction, resp SnoopResponse, otherCH bool)
	Cancel(tx *Transaction, resp SnoopResponse)
}

// Aborter is implemented by snoopers whose protocol asserts BS. Recover
// performs the recovery push (write the line back, enter the recovery
// state) using nested transactions on b before the aborted master
// retries.
type Aborter interface {
	Snooper
	Recover(b *Bus, aborted *Transaction, resp SnoopResponse) error
}

// MemoryPort is the main-memory module attached to the bus. Memory is
// the default owner of all data (§3.1.3) but keeps no consistency
// state: caches track the validity of memory's copy for it.
type MemoryPort interface {
	// ReadLine copies memory's copy of the line into dst, a buffer of
	// the line size that the caller owns.
	ReadLine(addr Addr, dst []byte)
	// WriteLine updates memory's copy from data, which the port must not
	// retain.
	WriteLine(addr Addr, data []byte)
}

// Result is what the master observes at the end of a transaction.
type Result struct {
	// CH is the wired-OR of the cache-hit line over all snoopers: some
	// other cache holds (and will retain) the line. Resolves the
	// master's CH-conditional result states (CH:S/E, CH:O/M).
	CH bool
	// DI reports that an owning cache intervened.
	DI bool
	// SL reports that at least one slave (cache or memory) connected.
	SL bool
	// Data is the line read (for BusRead) — from the intervening owner
	// if DI, else from memory. It is the master's own Transaction.Data
	// buffer, never memory the bus or a snooper owns.
	Data []byte
	// Retries counts BS abort/retry rounds the transaction suffered
	// (split-mode NACKs count here too).
	Retries int
	// Cost is the bus time consumed under this tenure, in nanoseconds,
	// including aborted attempts and recovery pushes. In split mode the
	// off-bus memory service and the deferred data tenure are excluded —
	// see Phases.Pend, Phases.Deferred and StallCost.
	Cost int64
	// Phases attributes the transaction's time to bus phases:
	// Phases.Occupancy() == Cost, and Phases.Arb carries the simulated
	// arbitration wait before the grant (not part of Cost).
	Phases PhaseCosts
	// Posted reports a split-mode write the bus accepted into the
	// pending table: the master is done at the end of the address
	// tenure and does not wait for the memory service.
	Posted bool
	// TxID is the arbiter-allocated id of the transaction, matching the
	// TxID on its grant/abort/tx events, so the master can tag its own
	// follow-on state changes with the cause.
	TxID uint64
}

// StallCost is the simulated time the master stalls on this
// transaction. In atomic mode it equals Cost. In split mode a posted
// write completes at the end of the address tenure (Cost alone), while
// a read's master additionally waits out the off-bus memory service
// and the deferred data tenure that delivers its fill — time the bus,
// but not the requester, is free during.
func (r *Result) StallCost() int64 {
	if r.Posted {
		return r.Cost
	}
	return r.Cost + r.Phases.Pend + r.Phases.Deferred
}

// ErrTooManyRetries is returned when BS aborts do not quiesce; a correct
// protocol mix needs at most a few retries, so this indicates a broken
// protocol implementation.
var ErrTooManyRetries = errors.New("bus: transaction aborted too many times")

// maxRetries bounds BS abort/retry rounds per transaction.
const maxRetries = 8

// Config parameterises a Bus.
type Config struct {
	// LineSize is the system-wide line size in bytes (§5.1). Every
	// attached cache must use it; Attach rejects mismatches.
	LineSize int
	// Timing is the transaction cost model; zero value = DefaultTiming.
	Timing Timing
	// Arbiter, when non-nil, is shared with other buses: all of them
	// serialise together (see Arbiter). Nil gives the bus its own.
	Arbiter *Arbiter
	// Tenure selects the bus-tenure policy: nil (or AtomicTenure) holds
	// the master through address + data + memory service, the paper's
	// electrical model; SplitTenure decouples the data phase into
	// pending-table entries and later data tenures.
	Tenure TenurePolicy
	// Discipline, when non-nil, builds this bus's arbitration grant
	// order (fcfs / rr / priority / bounded); nil grants in strict
	// arrival order. A factory because stateful disciplines need one
	// instance per shard arbiter.
	Discipline DisciplineFactory
	// Paranoid validates every snoop response against the class at the
	// moment it is asserted (core.CheckSnoopAction): an out-of-class
	// action fails the transaction immediately instead of corrupting
	// state to be found later by a checker. Costs one class lookup per
	// snoop response.
	Paranoid bool
	// Handshake, when non-nil, derives the address-cycle cost from an
	// electrical-level simulation of the Figure 1/2 broadcast
	// handshake over the configured board timings, instead of the flat
	// Timing.AddressCycle: the cycle completes when the SLOWEST board
	// releases AI* plus the wired-OR glitch filter (§2.2). Slower
	// boards on the bus make every address cycle slower for everyone —
	// the price of "broadcast operations are guaranteed to work".
	Handshake *HandshakeConfig
	// Obs, when non-nil, receives structured events for every
	// transaction, abort, recovery push and grant; attached caches
	// inherit it (via Bus.Recorder) for state-transition and stall
	// events. Nil disables all instrumentation at one branch per site.
	Obs *obs.Recorder
	// ObsID names this bus segment in emitted events (a hierarchy
	// numbers global=0, clusters 1..N).
	ObsID int
}

// DefaultLineSize is the line size used when Config.LineSize is zero.
const DefaultLineSize = 32

// Bus is a simulated Futurebus segment.
type Bus struct {
	cfg    Config
	memory MemoryPort
	// snoopers are the attached units, in attach order.
	snoopers []attached
	// holders is the holder record (see holders.go); tracked has bit i
	// set when snooper i keeps it, always when snooper i is queried on
	// every address cycle instead.
	holders         holderTable
	tracked, always uint64
	arb             *Arbiter
	stats           Stats
	// trace, when non-nil, receives every executed transaction.
	trace func(tx *Transaction, r *Result)
	depth int // nested-transaction depth (recovery pushes)
	// frames holds one scratch frame per executeLocked nesting level,
	// nest counts the live ones; both guarded by the arbiter lock. See
	// frame.
	frames []*frame
	nest   int
	// arbWait is the simulated time the current mastership spent
	// waiting for the grant, measured against the recorder's occupancy
	// clock in Acquire/Execute and consumed by the first transaction
	// executed under the grant. Guarded by the arbiter lock.
	arbWait int64
	// arbBlocker is the transaction that completed most recently when
	// the current mastership was granted — the blocking mastership a
	// non-zero arbWait is attributed to. Guarded by the arbiter lock.
	arbBlocker uint64
	// causeTx, when non-zero, is the aborted transaction a nested BS
	// recovery push is running for; its id is stamped as CauseID on the
	// recovery's own transaction events. Guarded by the arbiter lock.
	causeTx uint64
	// tenure is the tenure policy (never nil); split caches whether it
	// can defer at all, so the atomic fast path pays one bool test.
	tenure TenurePolicy
	split  bool
	// pendTable is the split-mode pending-transaction table: address
	// tenures that ended with their data phase still owed. Bounded by
	// tenure.TableSize(); guarded by the arbiter lock.
	pendTable []pendEntry
}

// New creates a bus with the given memory module.
func New(memory MemoryPort, cfg Config) *Bus {
	if cfg.LineSize == 0 {
		cfg.LineSize = DefaultLineSize
	}
	if cfg.Timing == (Timing{}) {
		cfg.Timing = DefaultTiming()
	}
	if cfg.Handshake != nil {
		// The simulated handshake's completion time already includes
		// the glitch filter; AddressCycleCost adds WiredORPenalty, so
		// subtract it here to charge exactly the simulated figure.
		tr := SimulateBroadcastHandshake(*cfg.Handshake)
		cfg.Timing.AddressCycle = tr.Complete - cfg.Timing.WiredORPenalty
	}
	arb := cfg.Arbiter
	if arb == nil {
		arb = NewArbiter()
	}
	if cfg.Discipline != nil && arb.Discipline() == nil {
		arb.SetDiscipline(cfg.Discipline())
	}
	tenure := cfg.Tenure
	if tenure == nil {
		tenure = AtomicTenure()
	}
	return &Bus{
		cfg: cfg, memory: memory, arb: arb,
		tenure: tenure, split: tenure.TableSize() > 0,
	}
}

// LineSize returns the system-wide line size in bytes.
func (b *Bus) LineSize() int { return b.cfg.LineSize }

// Timing returns the cost model in use.
func (b *Bus) Timing() Timing { return b.cfg.Timing }

// Recorder returns the observability recorder (nil when tracing is
// off). Attached units emit their own events through it, so wiring a
// recorder into the bus instruments the whole segment.
func (b *Bus) Recorder() *obs.Recorder { return b.cfg.Obs }

// ObsID returns this bus segment's id in emitted events.
func (b *Bus) ObsID() int { return b.cfg.ObsID }

// Shards reports the number of independent shards: a single Bus is a
// one-shard fabric.
func (b *Bus) Shards() int { return 1 }

// Granularity returns the interleave granularity in lines (1 for a
// single bus: every line is homed here).
func (b *Bus) Granularity() int { return 1 }

// HomeShard returns the shard serialising the line (always 0 here).
func (b *Bus) HomeShard(Addr) int { return 0 }

// SegmentID returns the ObsID of the shard owning the line, for event
// attribution; on a single bus that is the bus's own ObsID.
func (b *Bus) SegmentID(Addr) int { return b.cfg.ObsID }

// Shard returns the underlying Bus for shard i (itself).
func (b *Bus) Shard(i int) *Bus {
	if i != 0 {
		panic(fmt.Sprintf("bus: shard %d of a single bus", i))
	}
	return b
}

// attached is one attached snooper and its id.
type attached struct {
	Snooper
	id int
}

// Attach registers a snooping unit. Units attach at configuration time,
// before traffic starts; Attach is not safe concurrently with Execute.
// A Holder among the first 64 snoopers is queried only for the lines it
// holds; every other snooper on every address cycle.
func (b *Bus) Attach(s Snooper) {
	id := s.SnooperID()
	for _, old := range b.snoopers {
		if old.id == id {
			panic(fmt.Sprintf("bus: duplicate snooper id %d", id))
		}
	}
	i := len(b.snoopers)
	b.snoopers = append(b.snoopers, attached{s, id})
	if i >= maxHolders {
		return
	}
	if h, ok := s.(Holder); ok {
		b.holders.reserve(h.HeldLines())
		b.tracked |= 1 << i
	} else {
		b.always |= 1 << i
	}
}

// SetTrace installs a transaction observer (used by cmd/fbsim and
// tests). The observer's tx and r are the bus's scratch copies, valid
// only during the call. Must be set before traffic starts.
func (b *Bus) SetTrace(fn func(tx *Transaction, r *Result)) { b.trace = fn }

// Stats returns a snapshot of the accumulated counters.
func (b *Bus) Stats() Stats {
	b.arb.mu.Lock(-1)
	defer b.arb.mu.Unlock()
	return b.stats
}

// BusyNanos returns the shard's occupancy clock — total bus-occupied
// time so far, including split-mode data tenures. The deterministic
// engine samples it around an access to learn how much bus time the
// access actually held (in split mode that is less than the master's
// stall). It reads without the arbiter, so only the goroutine that runs
// every transaction on the shard may call it: that goroutine is the
// clock's only writer. Any other reader takes Stats, under the arbiter.
func (b *Bus) BusyNanos() int64 { return b.stats.BusyNanos }

// Execute runs one transaction to completion: broadcast address cycle,
// snoop responses, BS abort/recovery/retry, data routing, and commit.
// It blocks until the arbiter grants the bus. Masters must not call
// Execute while holding any lock a snooper's Query/Commit needs.
//
// The transaction is passed by value: the bus runs it from a per-shard,
// per-nesting-level frame, so issuing it allocates nothing.
func (b *Bus) Execute(tx Transaction) (Result, error) {
	b.Acquire(tx.Addr, tx.MasterID)
	defer b.Release(tx.Addr)
	return b.executeLocked(tx)
}

// Acquire requests bus mastership from the arbiter and blocks until
// granted under the configured Discipline. A cache client acquires the
// bus, re-examines its own directory (the state may have changed while
// it waited), and only then issues transactions with ExecuteHeld — the
// same look-up-again-after-arbitration a hardware cache controller
// performs.
//
// The address selects which fabric shard to hold; a single Bus is one
// shard, so it ignores the argument. master is the requesting board's
// id (the discipline's input; internal callers pass -1). Every
// ExecuteHeld issued under the grant must target the same shard (the
// same home line group).
//
// In split mode a fresh grant first retires any pending responses
// whose memory service has completed — responses win arbitration over
// the next requester, each taking a short data tenure.
//
// When observability is on, the occupancy-clock advance across the
// wait is recorded as the arbitration-wait phase of the first
// transaction executed under this grant.
func (b *Bus) Acquire(addr Addr, master int) {
	if rec := b.cfg.Obs; rec != nil {
		t0 := rec.Clock()
		b.arb.mu.Lock(master)
		b.arbWait = rec.Clock() - t0
		b.arbBlocker = b.arb.lastTx.Load()
	} else {
		b.arb.mu.Lock(master)
	}
	if b.split {
		for b.drainOneLocked(false) {
		}
	}
}

// LastTxID returns the id of the most recently completed transaction
// on this bus's arbiter (0 before any transaction). The deterministic
// engine reads it between transactions to attribute its timeline-level
// bus waits (KindBlocked) to the occupying transaction.
func (b *Bus) LastTxID() uint64 { return b.arb.lastTx.Load() }

// ArbQueueDepth returns the instantaneous arbitration queue occupancy
// of this bus's arbiter — the current master plus queued contenders, 0
// when idle. Safe from any goroutine; the live gauges
// (futurebus_arb_queue_depth) poll it at scrape time.
func (b *Bus) ArbQueueDepth() int { return b.arb.Pending() }

// Release returns bus mastership. The address must be the one passed
// to the matching Acquire (ignored on a single bus).
func (b *Bus) Release(Addr) {
	b.arbWait = 0
	b.arb.mu.Unlock()
}

// DrainPending force-retires every split-mode pending transaction:
// each outstanding response takes its data tenure now, in table order.
// Engines call it at quiesce so the occupancy clock and event stream
// account every deferred beat; a no-op in atomic mode.
func (b *Bus) DrainPending() {
	if !b.split {
		return
	}
	b.arb.mu.Lock(-1)
	defer b.arb.mu.Unlock()
	for b.drainOneLocked(true) {
	}
}

// drainOneLocked retires the oldest pending entry if its off-bus
// memory service has completed on the occupancy clock (or
// unconditionally when forced), charging its data-tenure beats to the
// shard. Caller holds the arbiter lock.
func (b *Bus) drainOneLocked(force bool) bool {
	if len(b.pendTable) == 0 {
		return false
	}
	e := b.pendTable[0]
	if !force && e.readyAt > b.stats.BusyNanos {
		return false
	}
	copy(b.pendTable, b.pendTable[1:])
	b.pendTable = b.pendTable[:len(b.pendTable)-1]
	b.stats.BusyNanos += e.beats
	b.stats.DataTenures++
	if rec := b.cfg.Obs; rec != nil {
		// The data tenure occupies [begin, begin+beats); CauseID links
		// the pending-wait edge to the tenure it queued behind.
		begin := rec.Advance(e.beats)
		rec.Emit(&obs.Event{
			TS: begin, Dur: e.beats, Kind: obs.KindData, Bus: int32(b.cfg.ObsID),
			Proc: int32(e.master), Addr: uint64(e.addr), DeferNS: e.beats,
			TxID: e.txid, CauseID: b.arb.lastTx.Load(),
		})
	}
	return true
}

// deferDataLocked moves a completed attempt's data phase into the
// pending table. If the table is full, the transaction is NACKed
// first — the split-mode fold of the BS abort: the oldest response is
// force-drained to make room and the master is charged one retry
// address cycle. Caller holds the arbiter lock; r's cost fields are
// adjusted before Stats.record sees them.
func (b *Bus) deferDataLocked(tx *Transaction, r *Result, txid uint64) {
	if len(b.pendTable) >= b.tenure.TableSize() {
		b.drainOneLocked(true)
		addrCost := b.cfg.Timing.AddressCycleCost()
		r.Retries++
		r.Cost += addrCost
		r.Phases.Retry += addrCost
		b.stats.Nacks++
		if rec := b.cfg.Obs; rec != nil {
			rec.Emit(&obs.Event{
				TS: rec.Clock(), Dur: addrCost, Kind: obs.KindNack, Bus: int32(b.cfg.ObsID),
				Proc: int32(tx.MasterID), Addr: uint64(tx.Addr), Col: int32(tx.Event().Column()),
				TxID: txid,
			})
		}
	}
	// Memory starts serving as the address tenure ends: ready when the
	// occupancy clock (advanced by r.Cost when this tx is recorded)
	// passes the off-bus first-word latency.
	b.pendTable = append(b.pendTable, pendEntry{
		txid: txid, master: tx.MasterID, addr: tx.Addr,
		beats:   r.Phases.Deferred,
		readyAt: b.stats.BusyNanos + r.Cost + r.Phases.Pend,
	})
	if rec := b.cfg.Obs; rec != nil {
		rec.Emit(&obs.Event{
			TS: rec.Clock(), Dur: r.Phases.Pend, Kind: obs.KindPend, Bus: int32(b.cfg.ObsID),
			Proc: int32(tx.MasterID), Addr: uint64(tx.Addr), Op: eventOp(tx.Op),
			PendNS: r.Phases.Pend, TxID: txid,
		})
	}
}

// ExecuteHeld runs a transaction on an already-Acquired bus. It is also
// how a BS recovery push runs nested inside an aborted transaction.
func (b *Bus) ExecuteHeld(tx Transaction) (Result, error) {
	return b.executeLocked(tx)
}

// frame is the scratch of one executeLocked activation, reused from
// transaction to transaction so the clean path allocates nothing: the
// bus's copy of the transaction (the one snoopers see), the snoop
// responses (indexed by snooper) and the snoopers the current address
// cycle queries, a line for merging a partial write into memory, and
// the copy of the Result handed to the trace observer. Frames are kept per
// shard (each Bus has its own) and per nesting level: a BS recovery
// push, or a memory port issuing transactions on this same bus,
// re-enters executeLocked while the outer activation's frame is live.
type frame struct {
	tx    Transaction
	resp  []SnoopResponse
	visit []int
	line  []byte
	trace Result
}

// enter returns the frame for a new executeLocked activation, creating
// it on first use at this nesting level. Caller holds the arbiter lock
// and calls leave when the activation returns.
func (b *Bus) enter() *frame {
	if b.nest == len(b.frames) {
		b.frames = append(b.frames, &frame{})
	}
	f := b.frames[b.nest]
	b.nest++
	if len(f.resp) != len(b.snoopers) {
		f.resp = make([]SnoopResponse, len(b.snoopers))
		f.visit = make([]int, 0, len(b.snoopers))
	}
	return f
}

func (b *Bus) leave() { b.nest-- }

// masterIndex returns the index of the snooper mastering tx, or -1 when the
// master does not snoop (an external controller): a unit never snoops its
// own transaction.
func (b *Bus) masterIndex(tx *Transaction) int {
	for i, s := range b.snoopers {
		if s.id == tx.MasterID {
			return i
		}
	}
	return -1
}

func (b *Bus) executeLocked(txv Transaction) (Result, error) {
	f := b.enter()
	defer b.leave()
	f.tx = txv
	tx := &f.tx
	if err := tx.check(b.cfg.LineSize); err != nil {
		return Result{}, err
	}
	// The first transaction of a mastership absorbs the arbitration
	// wait; nested recovery pushes and follow-on held transactions ran
	// without re-arbitrating.
	arbWait := b.arbWait
	b.arbWait = 0
	// Every transaction gets a stable id; a non-zero causeTx marks this
	// as a BS recovery push and names the aborted transaction it is
	// recovering for. The id is stamped on the transaction itself so
	// snoopers see it in Query/Commit/Recover.
	txid := b.arb.nextTxID()
	tx.txid = txid
	causeID := b.causeTx
	if rec := b.cfg.Obs; rec != nil {
		var blocker uint64
		if arbWait > 0 {
			blocker = b.arbBlocker
		}
		rec.Emit(&obs.Event{
			TS: rec.Clock(), Dur: arbWait, Kind: obs.KindGrant, Bus: int32(b.cfg.ObsID),
			Proc: int32(tx.MasterID), Addr: uint64(tx.Addr), Col: int32(tx.Event().Column()),
			TxID: txid, CauseID: blocker,
		})
	}
	self := b.masterIndex(tx)
	responses := f.resp
	var res Result
	res.Phases.Arb = arbWait
	for attempt := 0; ; attempt++ {
		if attempt > maxRetries {
			// Surface the wedged transaction structurally before failing:
			// a counter (futurebus_retry_exhausted_total) and an event the
			// runtime monitor folds into a forward-progress violation.
			b.stats.RetryExhausted++
			if rec := b.cfg.Obs; rec != nil {
				rec.Emit(&obs.Event{
					TS: rec.Clock(), Kind: obs.KindRetryExhausted, Bus: int32(b.cfg.ObsID),
					Proc: int32(tx.MasterID), Addr: uint64(tx.Addr), Col: int32(tx.Event().Column()),
					Retries: int32(res.Retries), TxID: txid, CauseID: causeID,
				})
			}
			return res, fmt.Errorf("%w: %s", ErrTooManyRetries, tx)
		}
		// Broadcast address cycle: every unit sees the address and
		// proposes a response (§2.1). Query must be side-effect free. A
		// unit that does not hold the line answers from Table 2's
		// Invalid row — nothing — so only the holders are asked.
		busy := false
		var failed error
		visit := b.snoopSet(f, tx.Addr, self)
		for _, i := range visit {
			s := b.snoopers[i]
			responses[i] = s.Query(tx)
			if responses[i].Action.Abort != nil {
				busy = true
			}
			if failed == nil {
				failed = responses[i].Err
			}
			if b.cfg.Paranoid && responses[i].Hit && tx.Cmd == CmdNone && failed == nil {
				verdict, reason := core.CheckSnoopAction(responses[i].State, tx.Event(), responses[i].Action)
				if verdict == core.NotInClass {
					failed = fmt.Errorf("bus: snooper %d asserted out-of-class action %s from state %s on col %d (%s) for %s",
						s.SnooperID(), responses[i].Action, responses[i].State.Letter(), tx.Event().Column(), reason, tx)
				}
			}
		}
		if failed != nil {
			// Release every directory before failing.
			b.cancel(f)
			return res, failed
		}
		// Every address cycle pays the full broadcast handshake; aborted
		// attempts charge it to the retry phase, the successful one to
		// the address phase.
		addrCost := b.cfg.Timing.AddressCycleCost()
		res.Cost += addrCost

		if busy {
			res.Phases.Retry += addrCost
			// BS: abort this attempt. Release every unit's directory
			// first (Cancel), then each asserter pushes its line to
			// memory as a nested transaction, and the master retries
			// (§3.2.2, §4.3–4.5).
			res.Retries++
			b.stats.Aborts++
			if rec := b.cfg.Obs; rec != nil {
				rec.Emit(&obs.Event{
					TS: rec.Clock(), Kind: obs.KindAbort, Bus: int32(b.cfg.ObsID),
					Proc: int32(tx.MasterID), Addr: uint64(tx.Addr), Col: int32(tx.Event().Column()),
					TxID: txid,
				})
			}
			b.cancel(f)
			for _, i := range visit {
				s := b.snoopers[i]
				if responses[i].Action.Abort == nil {
					continue
				}
				a, ok := s.Snooper.(Aborter)
				if !ok {
					return res, fmt.Errorf("bus: snooper %d asserted BS without implementing Aborter", s.SnooperID())
				}
				if rec := b.cfg.Obs; rec != nil {
					rec.Emit(&obs.Event{
						TS: rec.Clock(), Kind: obs.KindRecover, Bus: int32(b.cfg.ObsID),
						Proc: int32(s.SnooperID()), Addr: uint64(tx.Addr),
						TxID: txid, CauseID: causeID,
					})
				}
				b.depth++
				prevCause := b.causeTx
				b.causeTx = txid
				err := a.Recover(b, tx, responses[i])
				b.causeTx = prevCause
				b.depth--
				if err != nil {
					return res, fmt.Errorf("bus: BS recovery by snooper %d: %w", s.SnooperID(), err)
				}
			}
			continue
		}

		r, err := b.completeAttempt(f)
		if err != nil {
			return res, err
		}
		r.Retries = res.Retries
		r.Cost += res.Cost
		r.TxID = txid
		// completeAttempt filled the data-phase breakdown; graft the
		// attempt-loop phases (arbitration, address, retry) onto it.
		r.Phases.Arb = res.Phases.Arb
		r.Phases.Addr = addrCost
		r.Phases.Retry = res.Phases.Retry
		if r.Phases.Deferred > 0 {
			// Split mode: park the data phase in the pending table (NACK
			// first if it is full) before the stats see the final cost.
			b.deferDataLocked(tx, &r, txid)
		}
		b.stats.record(tx, &r, b.cfg.LineSize)
		b.arb.lastTx.Store(txid)
		if rec := b.cfg.Obs; rec != nil {
			// The recorder's clock is cumulative bus occupancy; this
			// transaction's slice spans [begin, begin+Cost).
			begin := rec.Advance(r.Cost)
			rec.Emit(&obs.Event{
				TS: begin, Dur: r.Cost, Kind: obs.KindTx, Bus: int32(b.cfg.ObsID),
				Proc: int32(tx.MasterID), Addr: uint64(tx.Addr),
				Col: int32(tx.Event().Column()), Op: eventOp(tx.Op),
				CH: r.CH, DI: r.DI, SL: r.SL,
				Retries: int32(r.Retries), Bytes: int32(txBytes(tx, b.cfg.LineSize)),
				ArbNS: r.Phases.Arb, AddrNS: r.Phases.Addr,
				DataNS: r.Phases.Data, IntvNS: r.Phases.Intervention,
				MemNS: r.Phases.Memory, RetryNS: r.Phases.Retry,
				PendNS: r.Phases.Pend, DeferNS: r.Phases.Deferred,
				TxID: txid, CauseID: causeID,
			})
		}
		if b.trace != nil {
			// The observer gets the frame's copy, so the returned Result
			// never has to live on the heap.
			f.trace = r
			b.trace(tx, &f.trace)
		}
		return r, nil
	}
}

// cancel releases the directory of every snooper the frame's address
// cycle queried, without applying its response (an abort, or a failure
// before the commit phase).
func (b *Bus) cancel(f *frame) {
	for _, i := range f.visit {
		b.snoopers[i].Cancel(&f.tx, f.resp[i])
	}
}

// completeAttempt finishes a non-aborted transaction: resolves the
// wired-OR response lines, routes data, and commits every snooper the
// address cycle queried.
func (b *Bus) completeAttempt(f *frame) (Result, error) {
	tx, responses := &f.tx, f.resp
	var res Result
	diCount, chCount := 0, 0
	var diLine []byte
	for _, i := range f.visit {
		a := responses[i].Action
		if a.AssertCH {
			res.CH = true
			chCount++
		}
		if a.AssertSL {
			res.SL = true
		}
		if a.AssertDI {
			res.DI = true
			diCount++
			diLine = responses[i].Line
		}
	}
	// Ownership is unique (§3.1.3): two simultaneous DI assertions mean
	// two owners, a broken system. Release every directory before
	// failing — Query holds each snooper's shard lock until Commit or
	// Cancel, and leaking them would turn a reportable protocol bug
	// into a whole-machine deadlock.
	if diCount > 1 {
		b.cancel(f)
		return res, fmt.Errorf("bus: %d units asserted DI for %s — duplicate owners", diCount, tx)
	}
	// An intervening owner's line moves into the master's buffer now,
	// while Query's hold still pins the owner's directory: once Commit
	// releases it, a listening owner that resolved CH:O/M to M may write
	// the line silently.
	if tx.Op == core.BusRead && diLine != nil {
		copy(tx.Data, diLine)
	}

	// Commit phase BEFORE the memory data phase: commits never need
	// routed data (an intervening owner's line was captured above,
	// write payloads ride the transaction), and releasing every
	// directory first lets the memory port itself issue nested
	// transactions — a multi-bus bridge serving this address from
	// another bus (internal/hierarchy) must be able to snoop the caches
	// this transaction just queried.
	//
	// Each snooper resolves CH-conditional states against the CH of
	// the *other* units (§3.2.2 — the listener does not assert, so the
	// wired-OR it observes is exactly the others'): the asserters
	// counted above, less its own assertion.
	for _, i := range f.visit {
		others := chCount
		if responses[i].Action.AssertCH {
			others--
		}
		b.snoopers[i].Commit(tx, responses[i], others > 0)
		if responses[i].Action.AssertSL && tx.Op == core.BusWrite {
			b.stats.Updates++
		}
	}

	// Data routing.
	switch tx.Op {
	case core.BusRead:
		if res.DI {
			if diLine == nil {
				return res, fmt.Errorf("bus: DI asserted on read without supplying data: %s", tx)
			}
			b.stats.Interventions++
		} else {
			b.memory.ReadLine(tx.Addr, tx.Data)
			res.SL = true // memory connects as the responding slave
		}
		res.Data = tx.Data
	case core.BusWrite:
		// A broadcast write reaches memory and every SL slave. A
		// non-broadcast write is captured by the owner (DI preempts
		// memory); only if no owner exists does memory take it.
		if tx.Signals.Has(core.SigBC) || !res.DI {
			if tx.Partial {
				if len(f.line) != b.cfg.LineSize {
					f.line = make([]byte, b.cfg.LineSize)
				}
				b.memory.ReadLine(tx.Addr, f.line)
				binary.LittleEndian.PutUint32(f.line[tx.Word*4:], tx.Val)
				b.memory.WriteLine(tx.Addr, f.line)
			} else {
				b.memory.WriteLine(tx.Addr, tx.Data)
			}
			res.SL = true
		}
		if res.DI {
			b.stats.Interventions++
		}
	case core.BusAddrOnly:
		// No data phase.
	default:
		return res, fmt.Errorf("bus: unsupported op %v in %s", tx.Op, tx)
	}

	beats, firstWord, fromOwner := b.cfg.Timing.DataPhaseParts(tx, &res, b.cfg.LineSize)
	if b.split && b.depth == 0 && !fromOwner && b.tenure.Deferrable(tx, res.DI) {
		// Split tenure: the grant ends with the address handshake. The
		// first-word latency is served off-bus (Pend) and the transfer
		// beats ride a later data tenure (Deferred); neither occupies
		// this tenure, so Cost (== Phases.Occupancy) excludes both.
		// Nested recovery pushes (depth > 0) and owner interventions
		// stay atomic — their data resolves during the snooped tenure.
		res.Phases.Pend = firstWord
		res.Phases.Deferred = beats
		res.Posted = tx.Op == core.BusWrite
		return res, nil
	}
	res.Phases.Data = beats
	if fromOwner {
		res.Phases.Intervention = firstWord
	} else {
		res.Phases.Memory = firstWord
	}
	res.Cost += beats + firstWord
	return res, nil
}
