// Package coherence reconstructs per-line MOESI lifetimes from the obs
// event stream. Caches emit one compact KindState event per real state
// change (line address, from→to, cause, governing protocol, causing
// bus TxID); this package folds that stream — plus the KindTx /
// KindUpdate events that anchor bus transactions — into per-protocol
// transition matrices, state-residency totals, per-line ownership
// chains, and write invalidation/update fan-out distributions.
//
// The Analyzer is an obs.Sink, so the same aggregation runs three
// ways: offline over a .fbt recording (fbt lens), live behind the
// obshttp service's /coherence endpoint, and inside tests. It is not
// itself goroutine-safe: the Recorder never runs two Consume calls at
// once, and a live reader takes its snapshot inside Recorder.View.
package coherence

import (
	"sort"

	"futurebus/internal/core"
	"futurebus/internal/obs"
)

// NumStates is the size of the MOESI state alphabet.
const NumStates = 5

// StateLetters orders the states the way the paper's tables do:
// Modified, Owned, Exclusive, Shared, Invalid. Every [NumStates] array
// in this package is indexed in this order.
var StateLetters = [NumStates]string{"M", "O", "E", "S", "I"}

// stateIdx maps a core.State to its StateLetters index (-1 for none).
var stateIdx = func() (idx [256]int8) {
	for i := range idx {
		idx[i] = -1
	}
	for i, s := range core.States {
		idx[s] = int8(i)
	}
	return idx
}()

// Matrix is a from×to transition count table in StateLetters order:
// Matrix[0][4] counts M→I transitions.
type Matrix [NumStates][NumStates]int64

// Total sums every cell.
func (m *Matrix) Total() int64 {
	var t int64
	for _, row := range m {
		for _, v := range row {
			t += v
		}
	}
	return t
}

// Add accumulates o into m.
func (m *Matrix) Add(o *Matrix) {
	for f := range m {
		for t := range m[f] {
			m[f][t] += o[f][t]
		}
	}
}

// OwnerSeg is one link of a line's ownership chain: proc acquired
// ownership (entered M or O) at TS. Proc -1 means ownership returned
// to memory (the owner pushed or invalidated its copy without another
// cache taking over).
type OwnerSeg struct {
	Proc  int    `json:"proc"`
	State string `json:"state"`
	TS    int64  `json:"ts"`
}

// LineSummary describes one cache line's reconstructed lifetime.
type LineSummary struct {
	Addr   uint64 `json:"addr"`
	Events int64  `json:"events"`
	// Owners counts distinct ownership acquisitions (chain links with
	// Proc >= 0), including ones dropped past the chain cap.
	Owners int64 `json:"owners"`
	// Chain is the ownership chain in event order, capped at
	// MaxChainLen links (Truncated reports the overflow).
	Chain     []OwnerSeg `json:"chain,omitempty"`
	Truncated bool       `json:"truncated,omitempty"`
}

// ProtoAnalysis aggregates everything observed for one protocol.
type ProtoAnalysis struct {
	// Transitions is the total number of state transitions.
	Transitions int64 `json:"transitions"`
	// Matrix is the 5×5 from→to transition count table.
	Matrix Matrix `json:"matrix"`
	// ByCause splits the matrix by the Cause field of the state
	// events ("fill", "snoop-cache-rfo", ...).
	ByCause map[string]*Matrix `json:"by_cause,omitempty"`
	// ResidencyNS is the total simulated time lines spent in each
	// state across every (proc, line) pair, in StateLetters order.
	// Invalid residency is only accumulated between an invalidation
	// and a refill — lines never observed are not charged.
	ResidencyNS [NumStates]int64 `json:"residency_ns"`
	// Invalidations counts snoop-caused transitions to Invalid.
	Invalidations int64 `json:"invalidations"`
	// InvFanout histograms, per invalidating bus write, how many
	// remote copies it invalidated (key = fan-out, value = writes).
	InvFanout map[int]int64 `json:"inv_fanout,omitempty"`
	// UpdFanout histograms, per broadcast write, how many remote
	// copies it updated in place.
	UpdFanout map[int]int64 `json:"upd_fanout,omitempty"`
	// CacheSourced / MemSourced split this protocol's completed bus
	// reads by who supplied the line (DI intervention vs. memory).
	CacheSourced int64 `json:"cache_sourced"`
	MemSourced   int64 `json:"mem_sourced"`
	// OwnershipMoves counts a line's ownership migrating directly
	// from one cache to another (attributed to the new owner's
	// protocol).
	OwnershipMoves int64 `json:"ownership_moves"`
}

// Analysis is the aggregation result, stable under JSON.
type Analysis struct {
	// Events is every event consumed; StateEvents only the KindState
	// subset.
	Events      int64 `json:"events"`
	StateEvents int64 `json:"state_events"`
	// Lines is the number of distinct lines observed, a line being a
	// (bus, address) pair: in a hierarchy one address has a line on
	// every bus that caches it.
	Lines int `json:"lines"`
	// SpanNS is the largest timestamp (+duration) observed — the
	// horizon residency intervals are closed against.
	SpanNS int64 `json:"span_ns"`
	// Protocols maps protocol name → its aggregate. State events
	// without a protocol tag land under "unknown".
	Protocols map[string]*ProtoAnalysis `json:"protocols"`
	// TopLines are the busiest lines by state-event count.
	TopLines []LineSummary `json:"top_lines,omitempty"`
	// TruncatedLines counts the state events that got no line: those
	// on a line past MaxLines and those whose bus or proc lies outside
	// [0, obs.MaxID). Their transitions still count in the matrices,
	// but residency and ownership chains were not reconstructed for
	// them.
	TruncatedLines int64 `json:"truncated_lines,omitempty"`
}

// Bounds on per-line reconstruction state, so a live sink attached to
// an unbounded run cannot grow without limit. Matrices and fan-out
// histograms are intrinsically bounded; only per-line state needs caps.
const (
	// MaxChainLen caps one line's stored ownership chain.
	MaxChainLen = 64
	// MaxLines caps the number of distinct (bus, address) lines
	// tracked per-line.
	MaxLines = 1 << 20
	// maxPending caps in-flight per-transaction fan-out trackers
	// (only reachable if a trace lost KindTx events).
	maxPending = 1 << 16
)

// Analyzer folds obs events into the aggregates above. The zero value
// is ready to use.
type Analyzer struct {
	events      int64
	stateEvents int64
	maxTS       int64
	protos      []*protoAgg // indexed by protocol name
	lines       obs.LineTable[lineAgg]
	truncLines  int64
	pending     map[uint64]pendingTx

	// masters indexes mlist, this system's masters. An epoch empties
	// both but keeps mlist's storage, the masters' fan-out histograms
	// included, for the next system's.
	masters map[masterKey]int32
	mlist   []master

	// nprocs is one past the largest proc a state event has named: a
	// line's per-proc slots are made with that capacity, once, and
	// extended within it up to the largest proc the line has seen since
	// the last epoch.
	nprocs int
	slots  obs.Arena[procLine]
	links  obs.Arena[chainBlock]

	// A one-entry cache for the per-event hot path: consecutive events
	// usually touch the same master (the line table keeps its own). It
	// points into mlist, so master replaces it whenever mlist grows and
	// endEpoch clears it.
	lastMKey   masterKey
	lastMaster *master
}

// protoAgg is one protocol's running aggregate: its ProtoAnalysis, with
// the per-cause matrices indexed by cause until Analyze names them.
type protoAgg struct {
	ProtoAnalysis
	byCause [obs.NumCauses]*Matrix
}

// unknownProto files state events that name no protocol.
var unknownProto = obs.NameOf("unknown")

// masterKey names a bus master by bus and proc, for the reason a line
// is named by bus and address (see lineAgg): a hierarchy repeats proc
// ids across its buses (bridge k on the global bus and the tree's cache
// k, and every bridge's agent on its local bus). A fabric's master has
// one key per shard it used, each of
// which learns the master's one protocol from a state event on that
// shard.
type masterKey struct{ bus, proc int32 }

// master accumulates one bus master's transaction statistics, with the
// protocol its latest state event named. They are kept per master (not
// per protocol) because a master's first transactions arrive before its
// first state event reveals its protocol — a system boundary
// (KindEpoch) or Analyze merges them under the protocol of the system
// that ran them. The fan-out histograms are dense slices (fan-out is
// bounded by the snooper count), bumped without map hashing on the hot
// path.
type master struct {
	proto        obs.Name
	cacheSourced int64
	memSourced   int64
	invFanout    []int64
	updFanout    []int64
}

func bumpFanout(h *[]int64, k int) {
	for len(*h) <= k {
		*h = append(*h, 0)
	}
	(*h)[k]++
}

// lineAgg is per-line reconstruction state. A line is named as
// watch.Monitor names it, by bus and address (see obs.LineTable).
type lineAgg struct {
	events    int64
	owners    int64
	owner     int32 // proc currently owning the line, -1 = memory
	truncated bool
	chain     ownerChain
	procs     []procLine // indexed by proc id; live marks real entries
	// relTx is the bus transaction that snooped the last owner out. A
	// following acquisition under the same transaction is one direct
	// cache-to-cache ownership move (the invalidation reaches the
	// stream before the new owner's fill, so without the link every
	// RFO migration would look like a round-trip through memory).
	relTx uint64
}

// procLine is one cache's copy of one line.
type procLine struct {
	live  bool
	state int8 // StateLetters index
	since int64
	proto obs.Name
}

// ownerLink is one link of an ownership chain as the analyzer stores it;
// Analyze renders it as an OwnerSeg.
type ownerLink struct {
	ts    int64
	proc  int32 // -1 = memory
	state int8  // StateLetters index
}

// chainLinks is how many links one block of an ownership chain holds.
const chainLinks = 8

// chainBlock is a fixed-size block of a line's ownership chain.
type chainBlock struct {
	links [chainLinks]ownerLink
	next  *chainBlock
}

// ownerChain is a line's ownership chain: n links, in blocks from the
// analyzer's arena, chained from head; tail holds the newest.
type ownerChain struct {
	head, tail *chainBlock
	n          int
}

func (c *ownerChain) last() *ownerLink { return &c.tail.links[(c.n-1)%chainLinks] }

func (c *ownerChain) push(link ownerLink, blocks *obs.Arena[chainBlock]) {
	if c.n%chainLinks == 0 {
		b := &blocks.Make(1)[0]
		if c.head == nil {
			c.head = b
		} else {
			c.tail.next = b
		}
		c.tail = b
	}
	c.tail.links[c.n%chainLinks] = link
	c.n++
}

// segs renders the chain.
func (c *ownerChain) segs() []OwnerSeg {
	if c.n == 0 {
		return nil
	}
	out := make([]OwnerSeg, 0, c.n)
	for b := c.head; len(out) < c.n; b = b.next {
		for _, l := range b.links[:min(chainLinks, c.n-len(out))] {
			out = append(out, OwnerSeg{Proc: int(l.proc), State: StateLetters[l.state], TS: l.ts})
		}
	}
	return out
}

// pendingTx accumulates the snoop fan-out of a bus transaction until
// its KindTx event arrives (snoop commits are emitted before the tx
// event, so by stream order the counts are complete by then).
type pendingTx struct {
	inv int
	upd int
}

func (a *Analyzer) init() {
	if a.pending == nil {
		a.pending = make(map[uint64]pendingTx)
		a.masters = make(map[masterKey]int32)
	}
}

func (a *Analyzer) master(bus, proc int32) *master {
	key := masterKey{bus, proc}
	if key == a.lastMKey && a.lastMaster != nil {
		return a.lastMaster
	}
	i, ok := a.masters[key]
	if !ok {
		i = int32(len(a.mlist))
		if len(a.mlist) < cap(a.mlist) {
			// Reuse an earlier system's master and its histograms.
			a.mlist = a.mlist[:i+1]
			m := &a.mlist[i]
			*m = master{invFanout: m.invFanout[:0], updFanout: m.updFanout[:0]}
		} else {
			a.mlist = append(a.mlist, master{})
		}
		a.masters[key] = i
	}
	m := &a.mlist[i]
	a.lastMKey, a.lastMaster = key, m
	return m
}

func (a *Analyzer) proto(name obs.Name) *protoAgg {
	if name == 0 {
		name = unknownProto
	}
	if int(name) >= len(a.protos) {
		a.protos = append(a.protos, make([]*protoAgg, int(name)+1-len(a.protos))...)
	}
	p := a.protos[name]
	if p == nil {
		p = &protoAgg{ProtoAnalysis: ProtoAnalysis{
			InvFanout: make(map[int]int64),
			UpdFanout: make(map[int]int64),
		}}
		a.protos[name] = p
	}
	return p
}

// protoAnalysis is proto for closeResidency and foldTx, which only
// reach the ProtoAnalysis.
func (a *Analyzer) protoAnalysis(name obs.Name) *ProtoAnalysis {
	return &a.proto(name).ProtoAnalysis
}

// line returns the state event e's line, with a slot for e's proc; nil
// (counted as truncated) past MaxLines, or for a bus or proc past
// obs.MaxID.
func (a *Analyzer) line(e *obs.Event) *lineAgg {
	if uint32(e.Bus) >= obs.MaxID || uint32(e.Proc) >= obs.MaxID {
		a.truncLines++
		return nil
	}
	l, added := a.lines.Add(e.Bus, e.Addr, MaxLines)
	if l == nil {
		a.truncLines++
		return nil
	}
	if added {
		l.owner = -1
	}
	if n := int(e.Proc) + 1; n > len(l.procs) {
		if n > cap(l.procs) {
			a.nprocs = max(a.nprocs, n)
			procs := a.slots.Make(a.nprocs)
			l.procs = procs[:copy(procs, l.procs)]
		}
		old := len(l.procs)
		l.procs = l.procs[:n]
		clear(l.procs[old:])
	}
	return l
}

// Consume implements obs.Sink.
func (a *Analyzer) Consume(e *obs.Event) {
	a.init()
	a.events++
	if e.Kind == obs.KindEpoch {
		// A fresh system: settle the finished one at its own horizon,
		// before the marker's timestamp extends it.
		a.endEpoch()
	}
	if ts := e.TS + e.Dur; ts > a.maxTS {
		a.maxTS = ts
	}
	switch e.Kind {
	case obs.KindState:
		from, to := stateIdx[e.From], stateIdx[e.To]
		if from >= 0 && to >= 0 && e.Proc >= 0 {
			a.consumeState(e, from, to)
		}
	case obs.KindTx:
		if e.Proc >= 0 {
			a.consumeTx(e)
		}
	case obs.KindUpdate:
		if e.TxID != 0 {
			a.addPending(e.TxID, 0, 1)
		}
	}
}

// addPending adds inv invalidations and upd updates to a transaction's
// pending fan-out.
func (a *Analyzer) addPending(txid uint64, inv, upd int) {
	p, ok := a.pending[txid]
	if !ok && len(a.pending) >= maxPending {
		// Only reachable when KindTx events were lost. Evict the
		// oldest txid (smallest — arbiter ids are monotonic) so the
		// result stays deterministic for a given stream.
		oldest := txid
		for id := range a.pending {
			if id < oldest {
				oldest = id
			}
		}
		delete(a.pending, oldest)
	}
	p.inv += inv
	p.upd += upd
	a.pending[txid] = p
}

// StateLetters indices used by the hot path: M and O confer ownership,
// I is the invalidation target.
const (
	idxM = 0
	idxO = 1
	idxI = 4
)

// consumeState folds a state event whose From and To are the
// StateLetters indices from and to.
func (a *Analyzer) consumeState(e *obs.Event, from, to int8) {
	a.stateEvents++
	a.master(e.Bus, e.Proc).proto = e.Proto

	ps := a.proto(e.Proto)
	ps.Transitions++
	ps.Matrix[from][to]++
	cm := ps.byCause[e.Cause]
	if cm == nil {
		cm = &Matrix{}
		ps.byCause[e.Cause] = cm
	}
	cm[from][to]++

	// A snoop that names a Table 2 column ("snoop-…", not the bare
	// "snoop" of a transaction outside the table) invalidates.
	if to == idxI && e.Cause.Snoop() && e.Cause != obs.CauseSnoop {
		ps.Invalidations++
		if e.TxID != 0 {
			a.addPending(e.TxID, 1, 0)
		}
	}

	l := a.line(e)
	if l == nil {
		return
	}
	l.events++

	// Residency: close the copy's previous interval against this
	// event's timestamp.
	pl := &l.procs[e.Proc]
	if !pl.live {
		*pl = procLine{live: true, state: from, since: e.TS, proto: e.Proto}
	}
	if e.TS > pl.since {
		a.proto(pl.proto).ResidencyNS[pl.state] += e.TS - pl.since
	}
	pl.state, pl.since, pl.proto = to, e.TS, e.Proto

	// Ownership: entering M or O makes e.Proc the line's owner;
	// leaving ownership with no successor returns it to memory.
	owned := to == idxM || to == idxO
	switch {
	case owned && l.owner != e.Proc:
		replace := false
		if l.owner >= 0 {
			ps.OwnershipMoves++
		} else if e.TxID != 0 && e.TxID == l.relTx {
			// The same bus transaction that removed the previous
			// owner installed this one: a direct migration, not a
			// round-trip through memory — the new owner's link
			// replaces the mem link.
			ps.OwnershipMoves++
			replace = !l.truncated && l.chain.n > 0 && l.chain.last().proc == -1
		}
		l.owner = e.Proc
		l.owners++
		l.relTx = 0
		link := ownerLink{ts: e.TS, proc: e.Proc, state: to}
		if replace {
			*l.chain.last() = link
		} else {
			a.appendChain(l, link)
		}
	case !owned && l.owner == e.Proc && (from == idxM || from == idxO):
		l.owner = -1
		l.relTx = e.TxID
		a.appendChain(l, ownerLink{ts: e.TS, proc: -1, state: to})
	}
}

func (a *Analyzer) appendChain(l *lineAgg, link ownerLink) {
	if l.chain.n >= MaxChainLen {
		l.truncated = true
		return
	}
	l.chain.push(link, &a.links)
}

// Table 2 column sets: which bus-transaction columns carry the IM
// (invalidate) and BC (broadcast) attention signals.
func colIM(col int32) bool { return col == 6 || col == 8 || col == 9 || col == 10 }
func colBC(col int32) bool { return col == 8 || col == 10 }

func (a *Analyzer) consumeTx(e *obs.Event) {
	t := a.master(e.Bus, e.Proc)
	if e.Op == obs.OpRead {
		if e.DI {
			t.cacheSourced++
		} else {
			t.memSourced++
		}
	}
	inv, upd := 0, 0
	if len(a.pending) > 0 {
		if p, ok := a.pending[e.TxID]; ok {
			inv, upd = p.inv, p.upd
			delete(a.pending, e.TxID)
		}
	}
	if colIM(e.Col) {
		bumpFanout(&t.invFanout, inv)
	}
	if colBC(e.Col) {
		bumpFanout(&t.updFanout, upd)
	}
}

// Flush implements obs.Sink.
func (a *Analyzer) Flush() error { return nil }

// endEpoch settles the system that ran before a KindEpoch marker, as
// the runtime invariant monitor does, so a sweep sharing one recorder
// across many systems analyzes each in turn: open residency closes at
// the horizon so far, per-master transaction stats fold under the
// protocols that system's masters ran, and per-line ownership,
// per-copy and in-flight transaction state start over (the next
// system's caches begin Invalid, and its transaction ids restart).
func (a *Analyzer) endEpoch() {
	a.closeResidency(a.protoAnalysis)
	a.foldTx(a.protoAnalysis)
	clear(a.masters)
	a.mlist = a.mlist[:0]
	a.lastMaster = nil
	clear(a.pending)
	a.lines.Each(func(_ int32, _ uint64, l *lineAgg) { l.owner, l.relTx, l.procs = -1, 0, l.procs[:0] })
}

// closeResidency charges every live copy's open interval, up to the
// horizon, to the protocol get returns for the copy's protocol.
func (a *Analyzer) closeResidency(get func(proto obs.Name) *ProtoAnalysis) {
	a.lines.Each(func(_ int32, _ uint64, l *lineAgg) {
		for i := range l.procs {
			pl := &l.procs[i]
			if pl.live && a.maxTS > pl.since {
				get(pl.proto).ResidencyNS[pl.state] += a.maxTS - pl.since
			}
		}
	})
}

// foldTx adds each master's transaction stats to the protocol get
// returns for the protocol the master ran.
func (a *Analyzer) foldTx(get func(proto obs.Name) *ProtoAnalysis) {
	for i := range a.mlist {
		t := &a.mlist[i]
		ps := get(t.proto)
		ps.CacheSourced += t.cacheSourced
		ps.MemSourced += t.memSourced
		for k, v := range t.invFanout {
			if v != 0 {
				ps.InvFanout[k] += v
			}
		}
		for k, v := range t.updFanout {
			if v != 0 {
				ps.UpdFanout[k] += v
			}
		}
	}
}

// DefaultTopLines is how many per-line summaries Analyze keeps.
const DefaultTopLines = 32

// Analyze snapshots the aggregates into an Analysis. topN bounds
// TopLines (0 = DefaultTopLines; negative = none). The analyzer keeps
// consuming afterwards; open residency intervals are closed against
// the current horizon without disturbing future accounting.
func (a *Analyzer) Analyze(topN int) *Analysis {
	a.init()
	if topN == 0 {
		topN = DefaultTopLines
	}
	res := &Analysis{
		Events:         a.events,
		StateEvents:    a.stateEvents,
		Lines:          a.lines.Len(),
		SpanNS:         a.maxTS,
		Protocols:      make(map[string]*ProtoAnalysis, len(a.protos)),
		TruncatedLines: a.truncLines,
	}
	for name, ps := range a.protos {
		if ps != nil {
			res.Protocols[protoName(obs.Name(name))] = ps.analysis()
		}
	}
	// Merge the current system's per-master transaction stats under
	// the protocols its masters ran (a master's first transactions
	// precede its first state event; by now the mapping is as complete
	// as it will get), and close its open residency intervals at the
	// horizon — into the copies, so the live state is undisturbed.
	get := func(name obs.Name) *ProtoAnalysis {
		ps, ok := res.Protocols[protoName(name)]
		if !ok {
			ps = (&protoAgg{}).analysis()
			res.Protocols[protoName(name)] = ps
		}
		return ps
	}
	a.foldTx(get)
	a.closeResidency(get)
	if topN > 0 {
		res.TopLines = a.topLines(topN)
	}
	return res
}

// protoName is the name a protocol's aggregate is reported under.
func protoName(name obs.Name) string {
	if name == 0 {
		return "unknown"
	}
	return name.String()
}

// analysis copies the aggregate out, naming its per-cause matrices.
func (p *protoAgg) analysis() *ProtoAnalysis {
	c := p.ProtoAnalysis
	c.ByCause = make(map[string]*Matrix)
	for cause, m := range p.byCause {
		if m != nil {
			cm := *m
			c.ByCause[obs.Cause(cause).String()] = &cm
		}
	}
	c.InvFanout = cloneHist(p.InvFanout)
	c.UpdFanout = cloneHist(p.UpdFanout)
	return &c
}

func cloneHist(h map[int]int64) map[int]int64 {
	c := make(map[int]int64, len(h))
	for k, v := range h {
		c[k] = v
	}
	return c
}

func (a *Analyzer) topLines(topN int) []LineSummary {
	type top struct {
		bus  int32
		addr uint64
		l    *lineAgg
	}
	all := make([]top, 0, a.lines.Len())
	a.lines.Each(func(bus int32, addr uint64, l *lineAgg) { all = append(all, top{bus, addr, l}) })
	sort.Slice(all, func(i, j int) bool {
		x, y := all[i], all[j]
		if x.l.events != y.l.events {
			return x.l.events > y.l.events
		}
		if x.addr != y.addr {
			return x.addr < y.addr
		}
		return x.bus < y.bus
	})
	out := make([]LineSummary, min(topN, len(all)))
	for i, t := range all[:len(out)] {
		out[i] = LineSummary{
			Addr:      t.addr,
			Events:    t.l.events,
			Owners:    t.l.owners,
			Chain:     t.l.chain.segs(),
			Truncated: t.l.truncated,
		}
	}
	return out
}

// Totals are cheap cross-protocol running sums, suitable for pulling
// on every metrics scrape (no per-line or per-cause traversal).
type Totals struct {
	StateEvents    int64
	Invalidations  int64
	OwnershipMoves int64
	CacheSourced   int64
	MemSourced     int64
}

// Totals sums the per-protocol counters.
func (a *Analyzer) Totals() Totals {
	t := Totals{StateEvents: a.stateEvents}
	for _, ps := range a.protos {
		if ps == nil {
			continue
		}
		t.Invalidations += ps.Invalidations
		t.OwnershipMoves += ps.OwnershipMoves
		t.CacheSourced += ps.CacheSourced
		t.MemSourced += ps.MemSourced
	}
	for i := range a.mlist {
		tx := &a.mlist[i]
		t.CacheSourced += tx.cacheSourced
		t.MemSourced += tx.memSourced
	}
	return t
}

// Transitions calls fn with each protocol observed so far, its running
// transition matrix and its snoop-caused invalidations: the cheap
// per-protocol read a metrics scrape pulls (Analyze copies far more).
func (a *Analyzer) Transitions(fn func(proto string, m *Matrix, invalidations int64)) {
	for name, ps := range a.protos {
		if ps != nil {
			fn(obs.Name(name).String(), &ps.Matrix, ps.Invalidations)
		}
	}
}

// FanoutMean returns the weighted mean of a fan-out histogram (0 when
// empty).
func FanoutMean(h map[int]int64) float64 {
	var n, sum int64
	for k, v := range h {
		n += v
		sum += int64(k) * v
	}
	if n == 0 {
		return 0
	}
	return float64(sum) / float64(n)
}

// ProtocolNames returns the analysis' protocol names, sorted.
func (an *Analysis) ProtocolNames() []string {
	names := make([]string, 0, len(an.Protocols))
	for n := range an.Protocols {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}
