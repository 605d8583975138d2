// Package watch is the runtime invariant monitor: an online
// runtime-verification sink that folds the obs event stream into a
// shadow per-line state machine and checks, as events arrive, the
// paper's §3.1 consistency invariants plus Table 1–2 action legality.
//
// Exhaustive checking (internal/verify) only scales to tiny
// configurations; the end-of-run checker (internal/check) only sees the
// final state. The monitor is the complement: it certifies *executions*
// — live runs, sharded fabrics, or replayed .fbt traces — event by
// event, and when an invariant breaks it emits a structured Violation
// carrying the line, the blamed transaction, the shadow state around
// the transition and a bounded ring of the last events that touched the
// line as causal context.
//
// The monitor relies on the recorder's ordering guarantees: per line,
// snoop-caused state commits precede their KindTx, and the master's own
// fill/upgrade/push state events follow it. One transaction's snoop
// commits land one snooper at a time, so a snooper's exclusivity is
// judged when the KindTx arrives, once every snooper has committed: a
// listening owner that resolves CH:O/M to M may commit before the last
// sharer's S→I of the same column-7 read. It is a single-goroutine
// consumer like coherence.Analyzer; a live reader takes its snapshot
// inside Recorder.View.
package watch

import (
	"fmt"
	"sort"
	"strings"

	"futurebus/internal/core"
	"futurebus/internal/obs"
)

// Invariant names one checked property. The names are stable: they are
// metric label values, fbt watch output, and CI grep targets.
type Invariant string

const (
	// InvSingleOwner — §3.1.3: at most one cache may own (M or O) a
	// line; ownership is the responsibility for the line's accuracy.
	InvSingleOwner Invariant = "single-owner"
	// InvExclusivity — §3.1.2: a copy in an exclusive state (M or E)
	// must really be the only cached copy; readers may only coexist
	// with a shareable owner (O) or with each other.
	InvExclusivity Invariant = "real-exclusivity"
	// InvMemoryOwner — §3.1.4: main memory is the default owner, valid
	// exactly when no cache owns the line. Operationally: a read must be
	// served by intervention (DI) iff some other cache owned the line
	// when the transaction started, and a plain write (column 9) must be
	// captured by such an owner.
	InvMemoryOwner Invariant = "memory-valid-iff-no-owner"
	// InvLegalLocal — Table 1 (notes 9–12, §4 adaptations): a
	// processor-side transition outside every permitted local action.
	InvLegalLocal Invariant = "legal-local-action"
	// InvLegalSnoop — Table 2 (notes 9 and 11): a snoop-side transition
	// outside every permitted snoop action for its column.
	InvLegalSnoop Invariant = "legal-snoop-action"
	// InvShadow — trace integrity: a state event whose From does not
	// match the shadow's recorded state for that copy, meaning the
	// stream skipped a transition (truncated or corrupted trace).
	InvShadow Invariant = "shadow-divergence"
	// InvPendingTx — split-mode pending-table legality: every data
	// tenure (KindData) must retire a transaction that actually entered
	// the pending table (KindPend) and is still outstanding, and no
	// transaction may enter the table twice. An interleaving that
	// breaks the pairing means the split bookkeeping double-granted or
	// fabricated a response.
	InvPendingTx Invariant = "split-pending-tx"
	// InvProgress — forward progress: a transaction exhausted its BS
	// retry budget (KindRetryExhausted) — the protocol wedged instead of
	// quiescing.
	InvProgress Invariant = "forward-progress"
)

// Invariants lists every invariant in reporting order.
var Invariants = []Invariant{
	InvSingleOwner, InvExclusivity, InvMemoryOwner,
	InvLegalLocal, InvLegalSnoop, InvShadow,
	InvPendingTx, InvProgress,
}

// Config bounds the monitor's memory.
type Config struct {
	// ContextDepth is the per-line ring of recent events attached to a
	// Violation as causal context. 0 = DefaultContextDepth.
	ContextDepth int
	// MaxViolations caps *stored* Violation records (counters keep
	// counting past it). 0 = DefaultMaxViolations.
	MaxViolations int
}

// MaxLines caps the tracked (bus, line) shadows; events on further
// lines are counted, not checked.
const MaxLines = 1 << 16

// Defaults for Config zero values.
const (
	DefaultContextDepth  = 8
	DefaultMaxViolations = 64

	// maxPending bounds the txid→address-cycle map that lets fill
	// legality resolve CH-conditional cells exactly.
	maxPending = 1 << 12
)

// Violation is one detected invariant breach.
type Violation struct {
	// N is the 1-based detection order across the run.
	N int64 `json:"n"`
	// Invariant names the breached property.
	Invariant Invariant `json:"invariant"`
	// TS is the simulated time of the triggering event.
	TS int64 `json:"ts"`
	// Bus and Addr key the line; Proc is the acting copy's board (the
	// master of the transaction for transaction-level checks).
	Bus  int    `json:"bus"`
	Proc int    `json:"proc"`
	Addr uint64 `json:"addr"`
	// Proto is the governing protocol of the blamed copy (best effort
	// for transaction-level checks, where the event carries none).
	Proto string `json:"proto,omitempty"`
	// TxID blames the causing bus transaction (0 = a silent local
	// transition).
	TxID uint64 `json:"txid,omitempty"`
	// Cause is the triggering state event's cause, if any.
	Cause string `json:"cause,omitempty"`
	// From and To are the shadow state of the acting copy before and
	// after the triggering transition (empty for transaction checks).
	From string `json:"from,omitempty"`
	To   string `json:"to,omitempty"`
	// Holders is the per-board shadow after the event ("0:M 2:S").
	Holders string `json:"holders,omitempty"`
	// Detail explains the breach in terms of the paper's rules.
	Detail string `json:"detail"`
	// Context is the bounded ring of the last events touching the line,
	// oldest first, ending with the triggering event.
	Context []obs.Event `json:"context,omitempty"`
}

func (v *Violation) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s: line %#x (bus %d) proc %d", v.Invariant, v.Addr, v.Bus, v.Proc)
	if v.From != "" || v.To != "" {
		fmt.Fprintf(&b, " %s→%s", v.From, v.To)
	}
	if v.Cause != "" {
		fmt.Fprintf(&b, " (%s)", v.Cause)
	}
	if v.Proto != "" {
		fmt.Fprintf(&b, " [%s]", v.Proto)
	}
	if v.TxID != 0 {
		fmt.Fprintf(&b, " tx %d", v.TxID)
	}
	fmt.Fprintf(&b, ": %s", v.Detail)
	if v.Holders != "" {
		fmt.Fprintf(&b, " (holders:%s)", v.Holders)
	}
	return b.String()
}

// Count is one (invariant, protocol) violation counter.
type Count struct {
	Invariant Invariant `json:"invariant"`
	Proto     string    `json:"proto"`
	N         int64     `json:"n"`
}

// Report is a snapshot of the monitor for /violations and fbt watch.
type Report struct {
	// Events is every event consumed; States and Txs count the checked
	// kinds.
	Events int64 `json:"events"`
	States int64 `json:"states"`
	Txs    int64 `json:"txs"`
	// Lines is the number of tracked line shadows; TruncatedEvents
	// counts events skipped because MaxLines was hit, and state events
	// skipped because their bus or proc lies outside [0, obs.MaxID).
	Lines           int   `json:"lines"`
	TruncatedEvents int64 `json:"truncated_events,omitempty"`
	// Total counts every violation; ByInvariant and Counts break it
	// down. First and Violations are bounded records.
	Total       int64               `json:"total"`
	ByInvariant map[Invariant]int64 `json:"by_invariant,omitempty"`
	Counts      []Count             `json:"counts,omitempty"`
	First       *Violation          `json:"first,omitempty"`
	Violations  []Violation         `json:"violations,omitempty"`
}

type countKey struct {
	inv   Invariant
	proto string
}

type txInfo struct {
	col int
	ch  bool
}

// pendEntry is one slot of the direct-mapped pending-transaction
// cache (txid 0 = empty). A newer transaction that collides simply
// evicts the older slot — the same bounded-memory behaviour as a FIFO
// over a map, without map traffic on the monitor's hottest path.
type pendEntry struct {
	txid uint64
	col  int16
	ch   bool
}

// line is the shadow of one (bus, address) pair (see obs.LineTable):
// every board's copy state, derived counts, the per-transaction owner
// snapshot, and the causal-context ring.
type line struct {
	states              []int8 // per proc; -1 = never seen (treated as I)
	owners, excl, valid int32
	// txSnap / ownersAtSnap / ownerAtSnap capture the owner situation
	// when the first event of a transaction touched this line — i.e.
	// before its snoop commits applied — which is what the DI rule of
	// §3.1.4 is stated against.
	txSnap       uint64
	ownersAtSnap int32
	ownerAtSnap  int32
	// held are the snoop-caused state events of transaction heldTx that
	// broke real exclusivity when they committed, to be judged again
	// when the transaction's KindTx arrives.
	held     []obs.Event
	heldTx   uint64
	ring     []obs.Event
	ringPos  int32
	ringFull bool
}

func (ln *line) stateOf(proc int) int8 {
	if proc < 0 || proc >= len(ln.states) {
		return -1
	}
	return ln.states[proc]
}

// setState records proc's copy in state s; the line has a slot for proc
// (Monitor.slot).
func (ln *line) setState(proc int, s core.State) {
	old := ln.states[proc]
	if old >= 0 {
		ln.account(core.State(old), -1)
	}
	ln.states[proc] = int8(s)
	ln.account(s, +1)
}

func (ln *line) account(s core.State, d int32) {
	if s.Valid() {
		ln.valid += d
	}
	if s.OwnedCopy() {
		ln.owners += d
	}
	if s.ExclusiveCopy() {
		ln.excl += d
	}
}

func (ln *line) snapshot(txid uint64) {
	if ln.txSnap == txid {
		return
	}
	ln.txSnap = txid
	ln.ownersAtSnap = ln.owners
	ln.ownerAtSnap = -1
	if ln.owners > 0 {
		for p, s := range ln.states {
			if s >= 0 && core.State(s).OwnedCopy() {
				ln.ownerAtSnap = int32(p)
				break
			}
		}
	}
}

// foreignOwner reports whether, at the transaction snapshot, some cache
// other than master owned the line.
func (ln *line) foreignOwner(master int32) bool {
	return ln.ownersAtSnap > 1 || (ln.ownersAtSnap == 1 && ln.ownerAtSnap != master)
}

// remember adds e to the line's context ring, carving the ring from the
// monitor's arena on the line's first event.
func (m *Monitor) remember(ln *line, e *obs.Event) {
	depth := m.cfg.ContextDepth
	if ln.ring == nil {
		ln.ring = m.rings.Make(depth)[:0]
	}
	if len(ln.ring) < depth {
		ln.ring = append(ln.ring, *e)
		return
	}
	ln.ring[ln.ringPos] = *e
	ln.ringPos = (ln.ringPos + 1) % int32(depth)
	ln.ringFull = true
}

// context returns the remembered events oldest-first.
func (ln *line) context() []obs.Event {
	if len(ln.ring) == 0 {
		return nil
	}
	out := make([]obs.Event, 0, len(ln.ring))
	if ln.ringFull {
		out = append(out, ln.ring[ln.ringPos:]...)
		out = append(out, ln.ring[:ln.ringPos]...)
	} else {
		out = append(out, ln.ring...)
	}
	return out
}

func (ln *line) holders() string {
	var b strings.Builder
	for p, s := range ln.states {
		if s > 0 { // valid copies only (Invalid = 0)
			fmt.Fprintf(&b, " %d:%s", p, core.State(s).Letter())
		}
	}
	return b.String()
}

// Monitor is the runtime-verification sink. It implements obs.Sink and
// must be consumed from a single goroutine (the Recorder's drainer, or
// a replay loop); while a recorder feeds it, read it inside
// Recorder.View.
type Monitor struct {
	cfg Config

	lines obs.LineTable[line]
	// maxLines caps lines: MaxLines, lowered only by the truncation
	// test.
	maxLines int
	// nprocs is one past the largest proc a state event has named: a
	// line's states are made with that capacity (see slot).
	nprocs int
	slots  obs.Arena[int8]
	rings  obs.Arena[obs.Event]

	pending []pendEntry // direct-mapped by txid & (maxPending-1)

	// splitPend tracks split-mode transactions currently in a pending
	// table (KindPend seen, KindData not yet), bounded at maxPending.
	// splitDropped flags that the bound evicted entries, so an unknown
	// txid on KindData is excused rather than misreported.
	splitPend    map[uint64]struct{}
	splitDropped bool

	// procProto gives each bus master's protocol, indexed by bus, then
	// proc (0 = unknown): a tree repeats proc ids across its buses
	// (bridge k on the global bus, cache k on its cluster's bus).
	// busProto backs its first row, so a single-bus monitor allocates
	// only that row.
	procProto [][]obs.Name
	busProto  [1][]obs.Name

	events, states, txs, truncated int64

	total      int64
	counts     map[countKey]int64
	first      *Violation
	violations []Violation
}

// New builds a monitor; zero Config fields take the defaults.
func New(cfg Config) *Monitor {
	if cfg.ContextDepth <= 0 {
		cfg.ContextDepth = DefaultContextDepth
	}
	if cfg.MaxViolations <= 0 {
		cfg.MaxViolations = DefaultMaxViolations
	}
	m := &Monitor{
		cfg:      cfg,
		maxLines: MaxLines,
		pending:  make([]pendEntry, maxPending),
		counts:   make(map[countKey]int64),
	}
	m.procProto = m.busProto[:0]
	return m
}

// Consume implements obs.Sink.
func (m *Monitor) Consume(e *obs.Event) {
	m.events++
	switch e.Kind {
	case obs.KindState:
		m.consumeState(e)
	case obs.KindTx:
		m.consumeTx(e)
	case obs.KindEpoch:
		m.reset()
	case obs.KindPend:
		m.consumePend(e)
	case obs.KindData:
		m.consumeData(e)
	case obs.KindRetryExhausted:
		ln := m.lookup(e.Bus, e.Addr, true)
		if ln == nil {
			m.truncated++
			return
		}
		m.remember(ln, e)
		m.report(InvProgress, e, ln, fmt.Sprintf(
			"transaction gave up after %d BS aborts (ErrTooManyRetries) — recovery pushes never quiesced the line",
			e.Retries))
	case obs.KindNack, obs.KindAbort, obs.KindRecover, obs.KindCapture:
		// Rare recovery-path events are kept as violation context. The
		// chatty per-cycle kinds (blocked/update/intervene/evict) are
		// deliberately not remembered: they restate information already
		// carried by the surrounding state and tx events, and together
		// they are over a third of the stream — dropping them keeps the
		// monitor's share of a single-core run inside the overhead budget.
		if ln := m.lookup(e.Bus, e.Addr, false); ln != nil {
			m.remember(ln, e)
		}
	}
}

// Flush implements obs.Sink.
func (m *Monitor) Flush() error { return nil }

// consumePend admits a split transaction into the shadow pending set;
// a duplicate admission means the bus split one address tenure into
// two pending entries.
func (m *Monitor) consumePend(e *obs.Event) {
	ln := m.lookup(e.Bus, e.Addr, true)
	if ln == nil {
		m.truncated++
		return
	}
	m.remember(ln, e)
	if e.TxID == 0 {
		return
	}
	if m.splitPend == nil {
		m.splitPend = make(map[uint64]struct{}, 64)
	}
	if _, dup := m.splitPend[e.TxID]; dup {
		m.report(InvPendingTx, e, ln,
			"transaction entered the pending table twice without an intervening data tenure")
		return
	}
	if len(m.splitPend) >= maxPending {
		m.splitDropped = true
		return
	}
	m.splitPend[e.TxID] = struct{}{}
}

// consumeData retires a split transaction from the shadow pending set;
// a data tenure for a transaction that never pended (and could not have
// been evicted by the bound) is a fabricated response.
func (m *Monitor) consumeData(e *obs.Event) {
	ln := m.lookup(e.Bus, e.Addr, true)
	if ln == nil {
		m.truncated++
		return
	}
	m.remember(ln, e)
	if e.TxID == 0 {
		return
	}
	if _, ok := m.splitPend[e.TxID]; ok {
		delete(m.splitPend, e.TxID)
		return
	}
	if !m.splitDropped {
		m.report(InvPendingTx, e, ln,
			"data tenure retired a transaction that never entered the pending table")
	}
}

// reset clears the per-line shadow at a system boundary (KindEpoch)
// while keeping cumulative violation counters and records.
func (m *Monitor) reset() {
	// Reset lines in place: sweeps and benchmarks replay the same
	// address set epoch after epoch, so the shadow reaches a steady
	// state with no per-epoch garbage (every line keeps its states,
	// ring and held storage).
	m.lines.Each(func(_ int32, _ uint64, ln *line) {
		ln.states = ln.states[:0]
		ln.owners, ln.excl, ln.valid = 0, 0, 0
		ln.txSnap, ln.ownersAtSnap, ln.ownerAtSnap = 0, 0, -1
		ln.held, ln.heldTx = ln.held[:0], 0
		ln.ring = ln.ring[:0]
		ln.ringPos, ln.ringFull = 0, false
	})
	clear(m.pending)
	clear(m.splitPend)
	m.splitDropped = false
	for _, protos := range m.procProto {
		clear(protos)
	}
}

func (m *Monitor) lookup(bus int32, addr uint64, create bool) *line {
	if !create {
		return m.lines.Get(bus, addr)
	}
	ln, added := m.lines.Add(bus, addr, m.maxLines)
	if added {
		ln.ownerAtSnap = -1
	}
	return ln
}

// slot makes sure ln has a state for proc. A line's states are made
// once, with room for the procs seen so far, and again only when a
// larger proc turns up; within that room they extend, never seen, up to
// the largest proc the line has seen since the last epoch.
func (m *Monitor) slot(ln *line, proc int) {
	if proc < len(ln.states) {
		return
	}
	if proc >= cap(ln.states) {
		m.nprocs = max(m.nprocs, proc+1)
		states := m.slots.Make(m.nprocs)
		ln.states = states[:copy(states, ln.states)]
	}
	for len(ln.states) <= proc {
		ln.states = append(ln.states, -1)
	}
}

func (m *Monitor) notePending(txid uint64, col int32, ch bool) {
	if txid == 0 {
		return
	}
	m.pending[txid&(maxPending-1)] = pendEntry{txid: txid, col: int16(col), ch: ch}
}

func (m *Monitor) pendingFor(txid uint64) (txInfo, bool) {
	if txid == 0 {
		return txInfo{}, false
	}
	p := m.pending[txid&(maxPending-1)]
	if p.txid != txid {
		return txInfo{}, false
	}
	return txInfo{col: int(p.col), ch: p.ch}, true
}

func (m *Monitor) consumeTx(e *obs.Event) {
	m.txs++
	m.notePending(e.TxID, e.Col, e.CH)
	ln := m.lookup(e.Bus, e.Addr, true)
	if ln == nil {
		m.truncated++
		return
	}
	m.remember(ln, e)
	if e.TxID != 0 {
		ln.snapshot(e.TxID)
	}
	m.judgeHeld(ln)

	// §3.1.4, operationally: memory supplies (and accepts) data exactly
	// when no cache owns the line; an owner must intervene on reads and
	// capture non-broadcast plain writes. Broadcast transfers (SL) and
	// pushes carry their own data path, so only columns 5–7 reads and
	// column 9 writes are constrained.
	foreign := ln.foreignOwner(e.Proc)
	switch {
	case e.Op == obs.OpRead:
		if e.DI && !foreign {
			m.reportTx(e, ln, "a cache intervened (DI) on a read of a line no other cache owned")
		} else if !e.DI && foreign {
			m.reportTx(e, ln, fmt.Sprintf(
				"memory supplied a read while cache %d owned the line — memory must be invalid while a cache owns (stale data served)", ln.ownerAtSnap))
		}
	case e.Op == obs.OpWrite && e.Col == 9:
		if e.DI && !foreign {
			m.reportTx(e, ln, "a cache captured (DI) a plain write to a line no other cache owned")
		} else if !e.DI && foreign {
			m.reportTx(e, ln, fmt.Sprintf(
				"cache %d owned the line but did not capture a plain write (column 9) — memory and owner now disagree", ln.ownerAtSnap))
		}
	}
}

func (m *Monitor) consumeState(e *obs.Event) {
	m.states++
	if uint32(e.Bus) >= obs.MaxID || uint32(e.Proc) >= obs.MaxID {
		m.truncated++
		return
	}
	if e.Proto != 0 {
		for len(m.procProto) <= int(e.Bus) {
			m.procProto = append(m.procProto, nil)
		}
		protos := &m.procProto[e.Bus]
		for len(*protos) <= int(e.Proc) {
			*protos = append(*protos, 0)
		}
		(*protos)[e.Proc] = e.Proto
	}
	ln := m.lookup(e.Bus, e.Addr, true)
	if ln == nil {
		m.truncated++
		return
	}
	m.remember(ln, e)

	from, to := e.From, e.To
	if !known(from) || !known(to) {
		letterFrom, letterTo := e.Letters()
		m.report(InvLegalLocal, e, ln, fmt.Sprintf("malformed state letters %q→%q", letterFrom, letterTo))
		return
	}

	// Owner snapshot before this transaction's commits apply.
	if e.TxID != 0 {
		ln.snapshot(e.TxID)
	}
	if ln.heldTx != e.TxID {
		// The held events' KindTx never came (a transaction that failed
		// after its commits, or a truncated trace): judge them now.
		m.judgeHeld(ln)
	}

	// Trace integrity: the event's From must match the shadow.
	if prev := ln.stateOf(int(e.Proc)); prev >= 0 && core.State(prev) != from {
		m.report(InvShadow, e, ln, fmt.Sprintf(
			"shadow recorded %s for this copy but the event departs from %s — the stream skipped a transition",
			core.State(prev).Letter(), from.Letter()))
	}

	// Action legality (Tables 1–2).
	if inv, detail, ok := m.legal(e, from, to); !ok {
		m.report(inv, e, ln, detail)
	}

	// Apply, then the structural §3.1 invariants.
	m.slot(ln, int(e.Proc))
	ln.setState(int(e.Proc), to)
	breaches := ln.copies().Breaches()
	if to.OwnedCopy() && breaches.Has(core.UniqueOwner) {
		m.report(InvSingleOwner, e, ln, fmt.Sprintf(
			"%d caches own the line after this transition — §3.1.3 allows at most one", ln.owners))
	}
	switch {
	case !to.Valid() || !breaches.Has(core.RealExclusivity):
	case e.Cause.Snoop() && e.TxID != 0:
		// Judged when the KindTx arrives, once every snooper has
		// committed.
		ln.held, ln.heldTx = append(ln.held, *e), e.TxID
	default:
		m.report(InvExclusivity, e, ln, exclusivity(ln, to))
	}
}

// copies summarises the line's states for core's §3.1 predicate; the
// monitor sees no data, so no copy or memory counts as stale.
func (ln *line) copies() core.Copies {
	return core.Copies{Valid: int(ln.valid), Owned: int(ln.owners), Exclusive: int(ln.excl)}
}

// exclusivity words a §3.1.2 breach for a valid copy of the line in
// state to: the copy is exclusive but not the only one, or it coexists
// with another cache's exclusive copy. It returns "" when the line
// keeps real exclusivity.
func exclusivity(ln *line, to core.State) string {
	switch {
	case !ln.copies().Breaches().Has(core.RealExclusivity):
		return ""
	case to.ExclusiveCopy():
		return fmt.Sprintf(
			"copy became %s (exclusive) while %d cached copies exist — §3.1.2 requires it to be the only one",
			to.Letter(), ln.valid)
	}
	return "copy became valid while another cache holds the line in an exclusive state (M/E)"
}

// judgeHeld reports the held snoop-caused state events that still break
// real exclusivity now that their transaction's snoopers have all
// committed.
func (m *Monitor) judgeHeld(ln *line) {
	for i := range ln.held {
		e := &ln.held[i]
		if s := ln.stateOf(int(e.Proc)); s > 0 {
			if detail := exclusivity(ln, core.State(s)); detail != "" {
				m.report(InvExclusivity, e, ln, detail)
			}
		}
	}
	ln.held, ln.heldTx = ln.held[:0], 0
}

// snoopLegal checks a snooper-side transition against its Table 2
// column (the snoop-* causes name the column consulted).
func snoopLegal(ev core.BusEvent, from, to core.State) (Invariant, string, bool) {
	mask := snoopNext[int(ev)][int(from)]
	if !has(mask, to) {
		return InvLegalSnoop, fmt.Sprintf(
			"Table 2 permits a %s snooper on column %d to reach {%s}, not %s",
			from.Letter(), ev.Column(), letters(mask), to.Letter()), false
	}
	return "", "", true
}

// legal checks one state transition against the class tables.
func (m *Monitor) legal(e *obs.Event, from, to core.State) (Invariant, string, bool) {
	switch e.Cause {
	case obs.CauseSnoopCacheRead:
		return snoopLegal(core.BusCacheRead, from, to)
	case obs.CauseSnoopCacheRFO:
		return snoopLegal(core.BusCacheRFO, from, to)
	case obs.CauseSnoopRead:
		return snoopLegal(core.BusPlainRead, from, to)
	case obs.CauseSnoopCacheBcastWrite:
		return snoopLegal(core.BusCacheBroadcastWrite, from, to)
	case obs.CauseSnoopWrite:
		return snoopLegal(core.BusPlainWrite, from, to)
	case obs.CauseSnoopBcastWrite:
		return snoopLegal(core.BusPlainBroadcastWrite, from, to)
	case obs.CauseFill:
		if from != core.Invalid {
			return InvLegalLocal, "a fill must start from Invalid", false
		}
		mask := fillCol5.union() | fillCol6.union()
		info, pend := m.pendingFor(e.TxID)
		if pend {
			switch info.col {
			case 5:
				mask = fillCol5.resolve(info.ch, true)
			case 6:
				mask = fillCol6.resolve(info.ch, true)
			}
		}
		if !has(mask, to) {
			// The description is only built on the failure path: fills
			// dominate the legal-transition stream and a Sprintf per
			// clean fill is measurable allocator traffic.
			desc := "a miss"
			switch {
			case pend && info.col == 5:
				desc = fmt.Sprintf("a read miss (column 5, CH=%t)", info.ch)
			case pend && info.col == 6:
				desc = fmt.Sprintf("a read-for-ownership (column 6, CH=%t)", info.ch)
			}
			return InvLegalLocal, fmt.Sprintf(
				"Table 1 permits %s to install {%s}, not %s", desc, letters(mask), to.Letter()), false
		}
	case obs.CauseWriteUpgrade:
		mask := upgradeNext[int(from)].union()
		if info, ok := m.pendingFor(e.TxID); ok {
			mask = upgradeNext[int(from)].resolve(info.ch, true)
		}
		if !has(mask, to) {
			return InvLegalLocal, fmt.Sprintf(
				"Table 1 permits an announced write from %s to reach {%s}, not %s",
				from.Letter(), letters(mask), to.Letter()), false
		}
	case obs.CauseSilentWrite, obs.CauseWriteHit:
		if mask := silentWrite[int(from)]; !has(mask, to) {
			return InvLegalLocal, fmt.Sprintf(
				"Table 1 permits a silent write only from M/E (to {%s}); %s→%s announces nothing on the bus",
				letters(mask), from.Letter(), to.Letter()), false
		}
	case obs.CauseReadHit:
		if mask := readHitNext[int(from)]; !has(mask, to) {
			return InvLegalLocal, fmt.Sprintf(
				"a read hit must not change the copy's state (%s→%s)", from.Letter(), to.Letter()), false
		}
	case obs.CauseEvict:
		if mask := evictBus[int(from)]; !has(mask, to) {
			return InvLegalLocal, fmt.Sprintf(
				"Table 1's Flush from %s permits {%s}, not %s (a dirty eviction must write back)",
				from.Letter(), letters(mask), to.Letter()), false
		}
	case obs.CauseEvictClean:
		if mask := evictSilent[int(from)]; !has(mask, to) {
			return InvLegalLocal, fmt.Sprintf(
				"Table 1 has no silent Flush from %s — discarding an owned line loses the only up-to-date copy",
				from.Letter()), false
		}
	case obs.CausePush:
		if mask := pushNext[int(from)]; !has(mask, to) {
			return InvLegalLocal, fmt.Sprintf(
				"Table 1's Pass/Flush from %s permit {%s}, not %s",
				from.Letter(), letters(mask), to.Letter()), false
		}
	case obs.CauseBSRecovery:
		if !from.OwnedCopy() {
			return InvLegalSnoop, "only an owner (M/O) may assert BS and recover", false
		}
		if to.OwnedCopy() {
			return InvLegalSnoop, "a BS recovery push must pass ownership back to memory", false
		}
	case obs.CauseSnoopClean:
		if to.OwnedCopy() {
			return InvLegalSnoop, "after CmdClean no cache may own the line", false
		}
	case obs.CauseAbsorb:
		if to != core.Modified {
			return InvLegalLocal, "absorbing a write-back must leave the bridge Modified", false
		}
	case obs.CauseInvalidateHeld:
		if to != core.Invalid {
			return InvLegalLocal, "invalidate-held must leave the copy Invalid", false
		}
	default:
		return InvLegalLocal, fmt.Sprintf("unrecognised transition cause %q", e.Cause), false
	}
	return "", "", true
}

// known reports whether s is one of the five MOESI states, which index
// the legality tables.
func known(s core.State) bool { return int(s) < len(core.States) }

func (m *Monitor) protoFor(e *obs.Event) string {
	if e.Proto != 0 {
		return e.Proto.String()
	}
	if e.Bus >= 0 && int(e.Bus) < len(m.procProto) {
		if protos := m.procProto[e.Bus]; e.Proc >= 0 && int(e.Proc) < len(protos) && protos[e.Proc] != 0 {
			return protos[e.Proc].String()
		}
	}
	return "unknown"
}

func (m *Monitor) reportTx(e *obs.Event, ln *line, detail string) {
	m.record(Violation{
		Invariant: InvMemoryOwner, TS: e.TS, Bus: int(e.Bus), Proc: int(e.Proc),
		Addr: e.Addr, Proto: m.protoFor(e), TxID: e.TxID,
		Holders: ln.holders(), Detail: detail, Context: ln.context(),
	})
}

func (m *Monitor) report(inv Invariant, e *obs.Event, ln *line, detail string) {
	from, to := e.Letters()
	m.record(Violation{
		Invariant: inv, TS: e.TS, Bus: int(e.Bus), Proc: int(e.Proc),
		Addr: e.Addr, Proto: m.protoFor(e), TxID: e.TxID, Cause: e.CauseName(),
		From: from, To: to,
		Holders: ln.holders(), Detail: detail, Context: ln.context(),
	})
}

func (m *Monitor) record(v Violation) {
	m.total++
	v.N = m.total
	m.counts[countKey{v.Invariant, v.Proto}]++
	if m.first == nil {
		first := v
		m.first = &first
	}
	if len(m.violations) < m.cfg.MaxViolations {
		m.violations = append(m.violations, v)
	}
}

// Total returns the number of violations detected so far.
func (m *Monitor) Total() int64 { return m.total }

// Counts snapshots the per-(invariant, protocol) counters, sorted by
// invariant then protocol.
func (m *Monitor) Counts() []Count {
	out := make([]Count, 0, len(m.counts))
	for k, n := range m.counts {
		out = append(out, Count{Invariant: k.inv, Proto: k.proto, N: n})
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Invariant != out[j].Invariant {
			return out[i].Invariant < out[j].Invariant
		}
		return out[i].Proto < out[j].Proto
	})
	return out
}

// First returns a copy of the first violation (nil if clean).
func (m *Monitor) First() *Violation {
	if m.first == nil {
		return nil
	}
	v := *m.first
	return &v
}

// Violations returns a copy of the stored (bounded) violation records.
func (m *Monitor) Violations() []Violation {
	return append([]Violation(nil), m.violations...)
}

// Report snapshots the monitor.
func (m *Monitor) Report() *Report {
	r := &Report{
		Events: m.events, States: m.states, Txs: m.txs,
		Lines: m.lines.Len(), TruncatedEvents: m.truncated,
		Total:       m.total,
		ByInvariant: make(map[Invariant]int64),
		Counts:      m.Counts(),
		First:       m.First(),
		Violations:  m.Violations(),
	}
	for k, n := range m.counts {
		r.ByInvariant[k.inv] += n
	}
	return r
}

// Summary renders a one-screen text report: the verdict line, then
// per-invariant counts.
func (r *Report) Summary() string {
	var b strings.Builder
	if r.Total == 0 {
		fmt.Fprintf(&b, "clean: %d events (%d state transitions, %d transactions) across %d lines, 0 violations\n",
			r.Events, r.States, r.Txs, r.Lines)
	} else {
		fmt.Fprintf(&b, "VIOLATIONS: %d across %d events (%d state transitions, %d transactions)\n",
			r.Total, r.Events, r.States, r.Txs)
		for _, inv := range Invariants {
			if n := r.ByInvariant[inv]; n > 0 {
				fmt.Fprintf(&b, "  %-28s %d\n", inv, n)
			}
		}
	}
	if r.TruncatedEvents > 0 {
		fmt.Fprintf(&b, "  (%d events were not checked: on lines past the line cap, or state events with a bus or proc outside [0, %d))\n",
			r.TruncatedEvents, obs.MaxID)
	}
	return b.String()
}
