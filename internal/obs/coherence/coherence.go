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

// StateIndex maps a state letter to its StateLetters index (-1 if the
// letter is not one of M/O/E/S/I).
func StateIndex(letter string) int {
	switch letter {
	case "M":
		return 0
	case "O":
		return 1
	case "E":
		return 2
	case "S":
		return 3
	case "I":
		return 4
	}
	return -1
}

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
// Matrix[StateIndex("M")][StateIndex("I")] counts M→I transitions.
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
	// TruncatedLines counts lines beyond the tracking cap:
	// their transitions still count in the matrices, but residency
	// and ownership chains were not reconstructed for them.
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
	protos      []*protoAgg         // indexed by protocol name
	lines       map[uint64]*lineAgg // by address; see lineAgg.next
	nlines      int
	pending     map[uint64]*pendingTx
	masters     map[masterKey]*master
	truncLines  int64

	// One-entry caches for the per-event hot path: consecutive events
	// usually touch the same line and master.
	lastLine   *lineAgg
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
// ids on every bus (bridge k on the global bus and cache k of each
// cluster). A fabric's master has one key per shard it used, each of
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
// watch.Monitor names it: by bus and address. A hierarchy repeats proc
// ids on every bus (a bridge and a cluster cache, or the caches of two
// clusters, share one), so only the bus tells their copies of one
// address apart. On a single bus or a sharded fabric an address always
// carries the same bus id.
type lineAgg struct {
	bus  int32
	addr uint64
	// next is the line of the same address on another bus, so the
	// per-event lookup hashes the address alone.
	next      *lineAgg
	events    int64
	owner     int // proc currently owning the line, -1 = memory
	owners    int64
	chain     []OwnerSeg
	truncated bool
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

// pendingTx accumulates the snoop fan-out of a bus transaction until
// its KindTx event arrives (snoop commits are emitted before the tx
// event, so by stream order the counts are complete by then).
type pendingTx struct {
	inv int
	upd int
}

func (a *Analyzer) init() {
	if a.lines == nil {
		a.lines = make(map[uint64]*lineAgg)
		a.pending = make(map[uint64]*pendingTx)
		a.masters = make(map[masterKey]*master)
	}
}

func (a *Analyzer) master(bus, proc int32) *master {
	key := masterKey{bus, proc}
	if key == a.lastMKey && a.lastMaster != nil {
		return a.lastMaster
	}
	m, ok := a.masters[key]
	if !ok {
		m = &master{}
		a.masters[key] = m
	}
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

func (a *Analyzer) line(bus int32, addr uint64) *lineAgg {
	if l := a.lastLine; l != nil && l.addr == addr && l.bus == bus {
		return l
	}
	first := a.lines[addr]
	l := first
	for l != nil && l.bus != bus {
		l = l.next
	}
	if l == nil {
		if a.nlines >= MaxLines {
			a.truncLines++
			return nil
		}
		l = &lineAgg{bus: bus, addr: addr, next: first, owner: -1}
		a.lines[addr] = l
		a.nlines++
	}
	a.lastLine = l
	return l
}

// eachLine calls fn with every line.
func (a *Analyzer) eachLine(fn func(l *lineAgg)) {
	for _, first := range a.lines {
		for l := first; l != nil; l = l.next {
			fn(l)
		}
	}
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
			a.pendingFor(e.TxID).upd++
		}
	}
}

func (a *Analyzer) pendingFor(txid uint64) *pendingTx {
	p, ok := a.pending[txid]
	if !ok {
		if len(a.pending) >= maxPending {
			// Only reachable when KindTx events were lost. Evict the
			// oldest txid (smallest — arbiter ids are monotonic) so
			// the result stays deterministic for a given stream.
			oldest := txid
			for id := range a.pending {
				if id < oldest {
					oldest = id
				}
			}
			delete(a.pending, oldest)
		}
		p = &pendingTx{}
		a.pending[txid] = p
	}
	return p
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
			a.pendingFor(e.TxID).inv++
		}
	}

	l := a.line(e.Bus, e.Addr)
	if l == nil {
		return
	}
	l.events++

	// Residency: close the copy's previous interval against this
	// event's timestamp.
	for len(l.procs) <= int(e.Proc) {
		l.procs = append(l.procs, procLine{})
	}
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
	case owned && l.owner != int(e.Proc):
		if l.owner >= 0 {
			ps.OwnershipMoves++
		} else if e.TxID != 0 && e.TxID == l.relTx {
			// The same bus transaction that removed the previous
			// owner installed this one: a direct migration, not a
			// round-trip through memory — collapse the mem link.
			ps.OwnershipMoves++
			if n := len(l.chain); !l.truncated && n > 0 && l.chain[n-1].Proc == -1 {
				l.chain = l.chain[:n-1]
			}
		}
		l.owner = int(e.Proc)
		l.owners++
		l.relTx = 0
		l.appendChain(OwnerSeg{Proc: int(e.Proc), State: StateLetters[to], TS: e.TS})
	case !owned && l.owner == int(e.Proc) && (from == idxM || from == idxO):
		l.owner = -1
		l.relTx = e.TxID
		l.appendChain(OwnerSeg{Proc: -1, State: StateLetters[to], TS: e.TS})
	}
}

func (l *lineAgg) appendChain(seg OwnerSeg) {
	if len(l.chain) >= MaxChainLen {
		l.truncated = true
		return
	}
	l.chain = append(l.chain, seg)
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
		if p := a.pending[e.TxID]; p != nil {
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
	a.lastMaster = nil
	clear(a.pending)
	a.eachLine(func(l *lineAgg) { l.owner, l.relTx, l.procs = -1, 0, l.procs[:0] })
}

// closeResidency charges every live copy's open interval, up to the
// horizon, to the protocol get returns for the copy's protocol.
func (a *Analyzer) closeResidency(get func(proto obs.Name) *ProtoAnalysis) {
	a.eachLine(func(l *lineAgg) {
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
	for _, t := range a.masters {
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
		Lines:          a.nlines,
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
	all := make([]*lineAgg, 0, a.nlines)
	a.eachLine(func(l *lineAgg) { all = append(all, l) })
	sort.Slice(all, func(i, j int) bool {
		x, y := all[i], all[j]
		if x.events != y.events {
			return x.events > y.events
		}
		if x.addr != y.addr {
			return x.addr < y.addr
		}
		return x.bus < y.bus
	})
	out := make([]LineSummary, min(topN, len(all)))
	for i, l := range all[:len(out)] {
		out[i] = LineSummary{
			Addr:      l.addr,
			Events:    l.events,
			Owners:    l.owners,
			Chain:     append([]OwnerSeg(nil), l.chain...),
			Truncated: l.truncated,
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
	for _, tx := range a.masters {
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
