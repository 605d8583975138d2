// Package causal reconstructs the dependency structure of a recorded
// simulation run and extracts its critical path.
//
// The event stream (live from an obs.Recorder, or replayed from a .fbt
// trace) is folded into one node per bus transaction, joined on the
// arbiter-allocated TxIDs. Three kinds of edges give the DAG:
//
//   - program order: a board's transactions execute in sequence;
//   - blocking mastership: a transaction that waited for the bus
//     (KindGrant with non-zero Dur in the concurrent engine, KindBlocked
//     in the deterministic engine) depends on the transaction that held
//     the bus while it waited;
//   - BS recovery: a Busy-abort forces the owning cache to push its
//     line as a nested transaction before the master retries (§3.2.2),
//     so the retried transaction depends on every recovery push made on
//     its behalf.
//
// Walking the DAG backwards from the last-finishing transaction yields
// the critical path — the chain of dependencies that bounds the run —
// and each node's cost decomposes into blame categories (see Causes)
// mapped from the bus phase model.
package causal

import (
	"encoding/json"
	"sort"

	"futurebus/internal/obs"
)

// Blame categories. The first five mirror the bus phase decomposition
// (bus.PhaseCosts / the Table 2 cost model); bs-retry additionally
// absorbs the whole cost of BS recovery pushes, which the phase view
// accounts as ordinary transactions of the owning board.
const (
	CauseArbWait      = "arb-wait"     // waiting for mastership (not occupancy)
	CauseAddr         = "addr"         // broadcast address handshake
	CauseData         = "data"         // data beats
	CauseIntervention = "intervention" // cache-to-cache first word
	CauseMemory       = "memory"       // memory first word
	CauseBSRetry      = "bs-retry"     // BS aborts: wasted address cycles + recovery pushes
)

// NumCauses is the number of blame categories.
const NumCauses = 6

// Causes lists the blame categories in canonical (render) order.
var Causes = [NumCauses]string{
	CauseArbWait, CauseAddr, CauseData, CauseIntervention, CauseMemory, CauseBSRetry,
}

// CauseVec is a cost vector indexed in Causes order (nanoseconds).
type CauseVec [NumCauses]int64

// Add accumulates another vector.
func (v *CauseVec) Add(o CauseVec) {
	for i := range v {
		v[i] += o[i]
	}
}

// Total sums all categories.
func (v CauseVec) Total() int64 {
	var t int64
	for _, x := range v {
		t += x
	}
	return t
}

// Dominant returns the largest category's name ("" if the vector is
// zero). Ties resolve to the earlier Causes entry.
func (v CauseVec) Dominant() string {
	best, idx := int64(0), -1
	for i, x := range v {
		if x > best {
			best, idx = x, i
		}
	}
	if idx < 0 {
		return ""
	}
	return Causes[idx]
}

// MarshalJSON renders the vector as an object keyed by cause name,
// omitting zero categories.
func (v CauseVec) MarshalJSON() ([]byte, error) {
	m := make(map[string]int64, NumCauses)
	for i, x := range v {
		if x != 0 {
			m[Causes[i]] = x
		}
	}
	return json.Marshal(m)
}

// UnmarshalJSON parses the object form produced by MarshalJSON.
func (v *CauseVec) UnmarshalJSON(data []byte) error {
	var m map[string]int64
	if err := json.Unmarshal(data, &m); err != nil {
		return err
	}
	*v = CauseVec{}
	for i, name := range Causes {
		v[i] = m[name]
	}
	return nil
}

// TxNode is one reconstructed bus transaction.
type TxNode struct {
	TxID uint64 `json:"txid"`
	Proc int    `json:"proc"`
	Bus  int    `json:"bus"`
	Addr uint64 `json:"addr"`
	Col  int    `json:"col"`
	Op   string `json:"op,omitempty"`
	// Start/End span the transaction's bus occupancy on the recorder's
	// occupancy clock (End - Start == Dur, exclusive of waiting).
	Start int64 `json:"start"`
	End   int64 `json:"end"`
	Dur   int64 `json:"dur"`
	// Wait is time spent waiting for the bus before this mastership:
	// measured arbitration wait (concurrent engine) plus deferred
	// timeline wait (deterministic engine's KindBlocked).
	Wait    int64 `json:"wait,omitempty"`
	Retries int   `json:"retries,omitempty"`
	// BlockedBy is the TxID that occupied the bus while this master
	// waited (0 = none recorded).
	BlockedBy uint64 `json:"blocked_by,omitempty"`
	// RecoveredFor, when non-zero, marks this transaction as a BS
	// recovery push on behalf of the named aborted transaction.
	RecoveredFor uint64 `json:"recovered_for,omitempty"`
	// Phases is the raw bus-phase decomposition in obs.PhaseNames order.
	Phases [obs.NumPhases]int64 `json:"-"`
	// ByCause is the node's blame decomposition: Wait → arb-wait,
	// phases → their categories, and a recovery push's entire Dur →
	// bs-retry (the push only exists because of the abort).
	ByCause CauseVec `json:"by_cause"`
	// Disc is the arbitration discipline in force when this transaction
	// ran (from the enclosing KindEpoch marker; none on traces recorded
	// before the marker carried it). Aggregated into
	// Analysis.ByDiscipline rather than serialized per node.
	Disc obs.Name `json:"-"`
}

// causes derives the blame vector from the node's identity and phases.
func (n *TxNode) causes() CauseVec {
	var v CauseVec
	v[0] = n.Wait
	if n.RecoveredFor != 0 {
		v[5] += n.Dur
		return v
	}
	v[1] = n.Phases[obs.PhaseAddr]
	v[2] = n.Phases[obs.PhaseData]
	v[3] = n.Phases[obs.PhaseIntervention]
	v[4] = n.Phases[obs.PhaseMemory]
	v[5] = n.Phases[obs.PhaseRetry]
	return v
}

// Analyzer is an obs.Sink that folds the event stream into TxNodes.
// Feed it live (Recorder sink) or offline (obs.ReplayTrace), then call
// Analyze. The zero value is ready to use.
type Analyzer struct {
	// Limit bounds the number of transactions retained (0 = DefaultLimit).
	// Past the limit further transactions are counted but not stored.
	Limit int

	txs      []TxNode
	byID     map[uint64]int    // TxID → index in txs
	grants   map[uint64]uint64 // TxID → blocking TxID (from KindGrant)
	blocked  map[int32]blockedWait
	aborts   map[uint64]int // TxID → abort count seen
	overflow int64
	// disc is the arbitration discipline named by the most recent
	// KindEpoch marker; queuedData counts split-mode data tenures that
	// queued behind another (KindData with a cause edge), indexed by
	// discipline.
	disc       obs.Name
	queuedData []int
}

type blockedWait struct {
	dur     int64
	blocker uint64
}

// DefaultLimit bounds retained transactions when Analyzer.Limit is 0.
const DefaultLimit = 1 << 20

// Consume implements obs.Sink.
func (a *Analyzer) Consume(e *obs.Event) {
	switch e.Kind {
	case obs.KindEpoch:
		a.disc = e.Disc
	case obs.KindData:
		if e.CauseID != 0 {
			for int(a.disc) >= len(a.queuedData) {
				a.queuedData = append(a.queuedData, 0)
			}
			a.queuedData[a.disc]++
		}
	case obs.KindGrant:
		if e.TxID != 0 && e.Dur > 0 && e.CauseID != 0 {
			if a.grants == nil {
				a.grants = make(map[uint64]uint64)
			}
			if len(a.grants) < a.limit() {
				a.grants[e.TxID] = e.CauseID
			}
		}
	case obs.KindBlocked:
		if a.blocked == nil {
			a.blocked = make(map[int32]blockedWait)
		}
		w := a.blocked[e.Proc]
		w.dur += e.Dur
		if e.CauseID != 0 {
			w.blocker = e.CauseID
		}
		a.blocked[e.Proc] = w
	case obs.KindAbort:
		if e.TxID != 0 {
			if a.aborts == nil {
				a.aborts = make(map[uint64]int)
			}
			if len(a.aborts) < a.limit() || a.aborts[e.TxID] > 0 {
				a.aborts[e.TxID]++
			}
		}
	case obs.KindTx:
		if len(a.txs) >= a.limit() {
			a.overflow++
			return
		}
		n := TxNode{
			TxID: e.TxID, Proc: int(e.Proc), Bus: int(e.Bus), Addr: e.Addr,
			Col: int(e.Col), Op: e.Op.String(),
			Start: e.TS, End: e.TS + e.Dur, Dur: e.Dur,
			Wait: e.ArbNS, Retries: int(e.Retries),
			RecoveredFor: e.CauseID,
			Disc:         a.disc,
		}
		n.Phases = [obs.NumPhases]int64{
			e.ArbNS, e.AddrNS, e.DataNS, e.IntvNS, e.MemNS, e.RetryNS,
		}
		if b, ok := a.grants[e.TxID]; ok {
			n.BlockedBy = b
			delete(a.grants, e.TxID)
		}
		if w, ok := a.blocked[e.Proc]; ok {
			n.Wait += w.dur
			if n.BlockedBy == 0 {
				n.BlockedBy = w.blocker
			}
			delete(a.blocked, e.Proc)
		}
		n.ByCause = n.causes()
		if a.byID == nil {
			a.byID = make(map[uint64]int)
		}
		if n.TxID != 0 {
			a.byID[n.TxID] = len(a.txs)
		}
		a.txs = append(a.txs, n)
	}
}

// Flush implements obs.Sink (no buffering).
func (a *Analyzer) Flush() error { return nil }

func (a *Analyzer) limit() int {
	if a.Limit > 0 {
		return a.Limit
	}
	return DefaultLimit
}

// AnalyzeEvents runs a one-shot analysis over an in-memory event slice.
func AnalyzeEvents(events []obs.Event) *Analysis {
	var a Analyzer
	for i := range events {
		a.Consume(&events[i])
	}
	return a.Analyze()
}

// Segment is one step of the critical path, in execution order.
type Segment struct {
	TxNode
	// Via names the dependency edge that put this node on the path:
	// "start" (first node), "program" (same board's previous
	// transaction), "arb-wait" (blocking mastership) or "bs-retry"
	// (recovery push chain).
	Via string `json:"via"`
}

// BoardBlame aggregates per-board cost attribution.
type BoardBlame struct {
	Proc    int      `json:"proc"`
	Txs     int      `json:"txs"`
	Cost    int64    `json:"cost_ns"` // bus occupancy of this board's transactions
	Wait    int64    `json:"wait_ns"`
	Retries int      `json:"retries"`
	ByCause CauseVec `json:"by_cause"`
}

// DisciplineBlame aggregates arbitration-wait blame under one
// arbitration discipline. A trace can carry several (a sweep records
// one system per discipline on a shared recorder), and the table makes
// their fairness cost directly comparable.
type DisciplineBlame struct {
	Discipline string `json:"discipline"`
	Txs        int    `json:"txs"`
	WaitNS     int64  `json:"wait_ns"`
	MaxWaitNS  int64  `json:"max_wait_ns"`
	// Share is this discipline's fraction of the run's total
	// mastership wait.
	Share float64 `json:"wait_share"`
	// QueuedData counts split-mode data tenures that queued behind
	// another pending response (the pending-wait causal edge) while
	// this discipline was in force.
	QueuedData int `json:"queued_data_tenures,omitempty"`
}

// Analysis is the result of reconstructing one run.
type Analysis struct {
	// Txs counts reconstructed transactions (Truncated more were seen
	// but discarded past the analyzer's limit).
	Txs       int   `json:"txs"`
	Truncated int64 `json:"truncated,omitempty"`
	// Elapsed is the occupancy-clock end of the last transaction;
	// TotalCost the summed bus occupancy; TotalWait the summed
	// mastership waits (waiting overlaps occupancy, so it is reported
	// separately, as in bus.PhaseCosts).
	Elapsed   int64 `json:"elapsed_ns"`
	TotalCost int64 `json:"total_cost_ns"`
	TotalWait int64 `json:"total_wait_ns"`
	Aborts    int   `json:"aborts"`
	// ByCause and ByPhase attribute the whole run's cost: ByPhase is
	// the raw bus-phase view, ByCause reclassifies recovery pushes to
	// bs-retry and includes wait time.
	ByCause CauseVec         `json:"by_cause"`
	ByPhase map[string]int64 `json:"by_phase"`
	Boards  []BoardBlame     `json:"boards"`
	// ByDiscipline attributes mastership waits to the arbitration
	// discipline in force, sorted by wait descending. Empty (and
	// omitted from JSON) on traces whose epoch markers carry no
	// discipline label, so pre-label recordings render unchanged.
	ByDiscipline []DisciplineBlame `json:"by_discipline,omitempty"`
	// Path is the critical path in execution order; PathByCause its
	// blame decomposition; PathCost its summed cost (occupancy + wait).
	Path        []Segment `json:"path"`
	PathCost    int64     `json:"path_cost_ns"`
	PathByCause CauseVec  `json:"path_by_cause"`
}

// Analyze reconstructs the DAG and extracts the critical path from the
// transactions consumed so far. It may be called repeatedly (e.g. from
// a live HTTP endpoint); each call recomputes from the current nodes.
func (a *Analyzer) Analyze() *Analysis {
	an := &Analysis{
		Txs:       len(a.txs),
		Truncated: a.overflow,
		ByPhase:   make(map[string]int64, obs.NumPhases),
	}
	if len(a.txs) == 0 {
		return an
	}

	boards := make(map[int]*BoardBlame)
	discs := make(map[obs.Name]*DisciplineBlame)
	// prev[proc] is the index of the board's previous transaction, for
	// program-order edges.
	prev := make(map[int]int)
	prevIdx := make([]int, len(a.txs))
	last := 0
	for i := range a.txs {
		n := &a.txs[i]
		if n.End > an.Elapsed {
			an.Elapsed = n.End
			last = i
		}
		an.TotalCost += n.Dur
		an.TotalWait += n.Wait
		an.Aborts += n.Retries
		an.ByCause.Add(n.ByCause)
		for p := 0; p < obs.NumPhases; p++ {
			an.ByPhase[obs.PhaseNames[p]] += n.Phases[p]
		}
		b := boards[n.Proc]
		if b == nil {
			b = &BoardBlame{Proc: n.Proc}
			boards[n.Proc] = b
		}
		b.Txs++
		b.Cost += n.Dur
		b.Wait += n.Wait
		b.Retries += n.Retries
		b.ByCause.Add(n.ByCause)
		if n.Disc != 0 {
			d := discs[n.Disc]
			if d == nil {
				d = &DisciplineBlame{Discipline: n.Disc.String()}
				discs[n.Disc] = d
			}
			d.Txs++
			d.WaitNS += n.Wait
			if n.Wait > d.MaxWaitNS {
				d.MaxWaitNS = n.Wait
			}
		}
		if j, ok := prev[n.Proc]; ok {
			prevIdx[i] = j
		} else {
			prevIdx[i] = -1
		}
		prev[n.Proc] = i
	}
	for _, b := range boards {
		an.Boards = append(an.Boards, *b)
	}
	sort.Slice(an.Boards, func(i, j int) bool { return an.Boards[i].Proc < an.Boards[j].Proc })

	// Fold in split-mode queue pressure and compute wait shares. A
	// label with queued tenures but no retained transactions (all past
	// the limit) still earns a row — the queue pressure happened.
	for label, n := range a.queuedData {
		if label == 0 || n == 0 {
			continue
		}
		d := discs[obs.Name(label)]
		if d == nil {
			d = &DisciplineBlame{Discipline: obs.Name(label).String()}
			discs[obs.Name(label)] = d
		}
		d.QueuedData = n
	}
	for _, d := range discs {
		if an.TotalWait > 0 {
			d.Share = float64(d.WaitNS) / float64(an.TotalWait)
		}
		an.ByDiscipline = append(an.ByDiscipline, *d)
	}
	sort.Slice(an.ByDiscipline, func(i, j int) bool {
		if an.ByDiscipline[i].WaitNS != an.ByDiscipline[j].WaitNS {
			return an.ByDiscipline[i].WaitNS > an.ByDiscipline[j].WaitNS
		}
		return an.ByDiscipline[i].Discipline < an.ByDiscipline[j].Discipline
	})

	an.Path = a.criticalPath(last, prevIdx)
	for _, s := range an.Path {
		an.PathByCause.Add(s.ByCause)
		an.PathCost += s.Dur + s.Wait
	}
	an.PathCost = min64(an.PathCost, an.Elapsed)
	return an
}

// criticalPath walks dependency edges backwards from the last-finishing
// node. At each node the binding predecessor is the dependency that
// finished latest — that is the chain the node actually waited on:
//
//   - the latest recovery push made on this transaction's behalf
//     (bs-retry edge, for aborted-and-retried transactions);
//   - the transaction it was blocked behind (arb-wait edge);
//   - the same board's previous transaction (program-order edge).
//
// Ties prefer the more specific edge (bs-retry over arb-wait over
// program order). The walk is bounded by the node count and only steps
// to strictly earlier-finishing nodes, so malformed traces cannot loop.
func (a *Analyzer) criticalPath(last int, prevIdx []int) []Segment {
	// pushes[txid] = latest-ending recovery push made for txid.
	pushes := make(map[uint64]int)
	for i := range a.txs {
		n := &a.txs[i]
		if n.RecoveredFor == 0 {
			continue
		}
		if j, ok := pushes[n.RecoveredFor]; !ok || n.End > a.txs[j].End {
			pushes[n.RecoveredFor] = i
		}
	}

	var rev []Segment
	cur := last
	for steps := 0; steps <= len(a.txs); steps++ {
		n := &a.txs[cur]
		rev = append(rev, Segment{TxNode: *n})

		next, nextVia := -1, ""
		consider := func(idx int, v string) {
			if idx < 0 || idx == cur {
				return
			}
			c := &a.txs[idx]
			if c.End > n.End || (c.End == n.End && c.Start >= n.Start) {
				return // not strictly earlier: refuse to loop
			}
			if next < 0 || c.End >= a.txs[next].End {
				next, nextVia = idx, v
			}
		}
		// Order encodes tie preference: a later consider call wins End
		// ties, so the more specific edge is tried last.
		consider(prevIdx[cur], "program")
		if n.BlockedBy != 0 {
			if idx, ok := a.byID[n.BlockedBy]; ok {
				consider(idx, CauseArbWait)
			}
		}
		if n.TxID != 0 {
			if idx, ok := pushes[n.TxID]; ok {
				consider(idx, CauseBSRetry)
			}
		}
		if next < 0 {
			break
		}
		// The edge pred→n is n's incoming dependency: label n with it.
		rev[len(rev)-1].Via = nextVia
		cur = next
	}

	// Reverse into execution order; the earliest node has no incoming
	// edge.
	for i, j := 0, len(rev)-1; i < j; i, j = i+1, j-1 {
		rev[i], rev[j] = rev[j], rev[i]
	}
	rev[0].Via = "start"
	return rev
}

func min64(a, b int64) int64 {
	if a < b {
		return a
	}
	return b
}
