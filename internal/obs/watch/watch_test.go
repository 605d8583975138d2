package watch

import (
	"strings"
	"testing"

	"futurebus/internal/core"
	"futurebus/internal/obs"
)

// rig drives a Monitor with hand-built events, mimicking the emission
// order the substrates guarantee: snoop-caused state commits before
// their KindTx, master-side fill/upgrade/evict states after it.
type rig struct {
	t  *testing.T
	m  *Monitor
	ts int64
}

func newRig(t *testing.T, cfg Config) *rig {
	return &rig{t: t, m: New(cfg)}
}

func (r *rig) tx(proc int, addr uint64, col int, op string, ch, di bool, txid uint64) {
	r.ts++
	ops := map[string]obs.Op{"R": obs.OpRead, "W": obs.OpWrite, "A": obs.OpAddr}
	r.m.Consume(&obs.Event{
		TS: r.ts, Kind: obs.KindTx, Bus: 0, Proc: int32(proc), Addr: addr,
		Col: int32(col), Op: ops[op], CH: ch, DI: di, TxID: txid,
	})
}

func (r *rig) st(proc int, addr uint64, from, to, cause string, txid uint64) {
	r.t.Helper()
	r.ts++
	f, errF := core.ParseState(from)
	t, errT := core.ParseState(to)
	c, errC := obs.ParseCause(cause)
	if errF != nil || errT != nil || errC != nil {
		r.t.Fatalf("rig.st(%q, %q, %q): %v %v %v", from, to, cause, errF, errT, errC)
	}
	r.m.Consume(&obs.Event{
		TS: r.ts, Kind: obs.KindState, Bus: 0, Proc: int32(proc), Addr: addr,
		From: f, To: t, Cause: c, Proto: obs.NameOf("moesi"), TxID: txid,
	})
}

func (r *rig) wantClean() {
	r.t.Helper()
	if r.m.Total() != 0 {
		r.t.Fatalf("expected clean run, got %d violations; first: %v", r.m.Total(), r.m.First())
	}
}

func (r *rig) wantViolation(inv Invariant) *Violation {
	r.t.Helper()
	rep := r.m.Report()
	if rep.ByInvariant[inv] == 0 {
		r.t.Fatalf("expected a %s violation, got by-invariant %v (first: %v)",
			inv, rep.ByInvariant, rep.First)
	}
	for i := range rep.Violations {
		if rep.Violations[i].Invariant == inv {
			return &rep.Violations[i]
		}
	}
	r.t.Fatalf("%s counted but not stored", inv)
	return nil
}

// TestCleanMOESISequence walks a legal write-miss / read-share /
// upgrade / evict sequence and expects zero violations.
func TestCleanMOESISequence(t *testing.T) {
	r := newRig(t, Config{})
	const a = 0x1000

	// proc 0 write miss: RFO (col 6), nobody holds, install M.
	r.tx(0, a, 6, "R", false, false, 1)
	r.st(0, a, "I", "M", "fill", 1)

	// proc 1 read miss: proc 0 snoops col 5 (M→O, DI), fill installs S.
	r.st(0, a, "M", "O", "snoop-cache-read", 2)
	r.tx(1, a, 5, "R", true, true, 2)
	r.st(1, a, "I", "S", "fill", 2)

	// proc 1 writes: proc 0 snooper invalidates (col 6), address-only
	// upgrade, writer goes S→M.
	r.st(0, a, "O", "I", "snoop-cache-rfo", 3)
	r.tx(1, a, 6, "A", false, true, 3)
	r.st(1, a, "S", "M", "write-upgrade", 3)

	// proc 1 evicts dirty: copy-back (plain write col 9, no captor).
	r.tx(1, a, 9, "W", false, false, 4)
	r.st(1, a, "M", "I", "evict", 4)

	r.wantClean()
	rep := r.m.Report()
	if rep.States != 6 || rep.Txs != 4 {
		t.Fatalf("report counted states=%d txs=%d, want 6/4", rep.States, rep.Txs)
	}
	if !strings.Contains(rep.Summary(), "clean") {
		t.Fatalf("summary should say clean: %q", rep.Summary())
	}
}

func TestDualOwnersCaught(t *testing.T) {
	r := newRig(t, Config{})
	const a = 0x2000
	r.tx(0, a, 6, "R", false, false, 1)
	r.st(0, a, "I", "M", "fill", 1)
	// proc 1 gains M too — no invalidation of proc 0 ever happened.
	r.tx(1, a, 6, "R", false, true, 2)
	r.st(1, a, "I", "M", "fill", 2)

	v := r.wantViolation(InvSingleOwner)
	if v.Proc != 1 || v.Addr != a {
		t.Fatalf("violation blames proc %d addr %#x, want 1/%#x", v.Proc, v.Addr, uint64(a))
	}
	if !strings.Contains(v.Holders, "0:M") || !strings.Contains(v.Holders, "1:M") {
		t.Fatalf("holders should show both owners: %q", v.Holders)
	}
}

func TestStaleReaderCaught(t *testing.T) {
	r := newRig(t, Config{})
	const a = 0x2100
	// proc 0 and proc 1 share, then proc 0 upgrades but proc 1's
	// invalidation was dropped: proc 1 still S next to proc 0's M.
	r.tx(0, a, 5, "R", false, false, 1)
	r.st(0, a, "I", "E", "fill", 1)
	r.st(0, a, "E", "S", "snoop-cache-read", 2)
	r.tx(1, a, 5, "R", true, false, 2)
	r.st(1, a, "I", "S", "fill", 2)
	r.tx(0, a, 6, "A", true, false, 3) // CH asserted: someone kept a copy
	r.st(0, a, "S", "M", "write-upgrade", 3)

	v := r.wantViolation(InvExclusivity)
	if v.Cause != "write-upgrade" {
		t.Fatalf("blamed cause %q, want write-upgrade", v.Cause)
	}
}

// TestListeningOwnerBeforeLastSharer is P3's transaction 1445 (fbsweep
// -exp P3 -refs 500): on a column-7 read by an uncached master, the
// owner (proc 0) commits first and resolves CH:O/M to M, because the
// only sharer (proc 5) drops its copy instead of asserting CH — but
// proc 5's S→I commits after proc 0's O→M. Once the KindTx arrives, the
// line has one copy, M: no violation.
func TestListeningOwnerBeforeLastSharer(t *testing.T) {
	r := newRig(t, Config{})
	const a = 0x100000003
	r.tx(0, a, 6, "R", false, false, 1)
	r.st(0, a, "I", "M", "fill", 1)
	r.st(0, a, "M", "O", "snoop-cache-read", 2)
	r.tx(5, a, 5, "R", true, true, 2)
	r.st(5, a, "I", "S", "fill", 2)

	r.st(0, a, "O", "M", "snoop-read", 3)
	r.st(5, a, "S", "I", "snoop-read", 3)
	r.tx(6, a, 7, "R", false, true, 3)
	r.wantClean()
}

// TestSnoopExclusivityHeldToKindTx keeps the deferred judgement honest:
// a snooper that turns exclusive while a sharer keeps its copy through
// the whole transaction is still a violation, reported once the KindTx
// arrives, and blamed on the snoop transition.
func TestSnoopExclusivityHeldToKindTx(t *testing.T) {
	r := newRig(t, Config{})
	const a = 0x2800
	r.tx(0, a, 6, "R", false, false, 1)
	r.st(0, a, "I", "M", "fill", 1)
	r.st(0, a, "M", "O", "snoop-cache-read", 2)
	r.tx(1, a, 5, "R", true, true, 2)
	r.st(1, a, "I", "S", "fill", 2)

	r.st(0, a, "O", "M", "snoop-read", 3)
	if r.m.Total() != 0 {
		t.Fatalf("judged before the KindTx: %v", r.m.First())
	}
	r.tx(6, a, 7, "R", false, true, 3)
	v := r.wantViolation(InvExclusivity)
	if v.Proc != 0 || v.Cause != "snoop-read" || v.TxID != 3 {
		t.Fatalf("violation blames proc %d cause %q tx %d, want 0/snoop-read/3", v.Proc, v.Cause, v.TxID)
	}
}

func TestIllegalSnoopTransition(t *testing.T) {
	r := newRig(t, Config{})
	const a = 0x2200
	r.tx(0, a, 6, "R", false, false, 1)
	r.st(0, a, "I", "M", "fill", 1)
	// Table 2 says an M snooper on a cache read goes to O — E is a
	// corrupted transition.
	r.st(0, a, "M", "E", "snoop-cache-read", 2)

	v := r.wantViolation(InvLegalSnoop)
	if !strings.Contains(v.Detail, "column 5") {
		t.Fatalf("detail should name the column: %q", v.Detail)
	}
}

func TestMemoryServedStaleData(t *testing.T) {
	r := newRig(t, Config{})
	const a = 0x2300
	r.tx(0, a, 6, "R", false, false, 1)
	r.st(0, a, "I", "M", "fill", 1)
	// proc 1 reads, the owner stays silent: memory (invalid while a
	// cache owns) supplied the data.
	r.tx(1, a, 5, "R", false, false, 2)

	v := r.wantViolation(InvMemoryOwner)
	if v.TxID != 2 || v.Proc != 1 {
		t.Fatalf("violation blames tx %d proc %d, want 2/1", v.TxID, v.Proc)
	}
	if !strings.Contains(v.Detail, "memory") {
		t.Fatalf("detail should mention memory: %q", v.Detail)
	}
}

func TestPhantomIntervention(t *testing.T) {
	r := newRig(t, Config{})
	const a = 0x2350
	// DI on a read of a line nobody owns.
	r.tx(0, a, 5, "R", false, true, 1)
	r.wantViolation(InvMemoryOwner)
}

func TestSilentDirtyEviction(t *testing.T) {
	r := newRig(t, Config{})
	const a = 0x2400
	r.tx(0, a, 6, "R", false, false, 1)
	r.st(0, a, "I", "M", "fill", 1)
	// Dropping an M line without a copy-back loses the only copy.
	r.st(0, a, "M", "I", "evict-clean", 0)

	v := r.wantViolation(InvLegalLocal)
	if !strings.Contains(v.Detail, "Flush") {
		t.Fatalf("detail should cite the Flush rule: %q", v.Detail)
	}
}

func TestShadowDivergence(t *testing.T) {
	r := newRig(t, Config{})
	const a = 0x2500
	r.tx(0, a, 6, "R", false, false, 1)
	r.st(0, a, "I", "M", "fill", 1)
	// The stream claims the copy departs from S — a transition was lost.
	r.st(0, a, "S", "I", "snoop-cache-rfo", 2)
	r.wantViolation(InvShadow)
}

func TestBSRecoveryFromUnownedState(t *testing.T) {
	r := newRig(t, Config{})
	const a = 0x2600
	r.tx(0, a, 5, "R", false, false, 1)
	r.st(0, a, "I", "E", "fill", 1)
	r.st(0, a, "E", "S", "snoop-cache-read", 2)
	r.tx(1, a, 5, "R", true, false, 2)
	r.st(1, a, "I", "S", "fill", 2)
	// Only owners may abort-and-push; an S copy asserting BS is bogus.
	r.st(0, a, "S", "I", "bs-recovery", 3)
	r.wantViolation(InvLegalSnoop)
}

func TestFillExclusiveDespiteSharers(t *testing.T) {
	r := newRig(t, Config{})
	const a = 0x2700
	// CH was asserted on the read miss, yet the fill installs M.
	r.tx(0, a, 5, "R", true, false, 1)
	r.st(0, a, "I", "M", "fill", 1)

	v := r.wantViolation(InvLegalLocal)
	if !strings.Contains(v.Detail, "CH=true") {
		t.Fatalf("detail should show the resolved CH: %q", v.Detail)
	}
}

func TestUnknownCause(t *testing.T) {
	r := newRig(t, Config{})
	bad := obs.Cause(obs.NumCauses + 7)
	r.m.Consume(&obs.Event{TS: 1, Kind: obs.KindState, Addr: 0x2800,
		From: core.Invalid, To: core.Modified, Cause: bad, Proto: obs.NameOf("moesi")})
	v := r.wantViolation(InvLegalLocal)
	if !strings.Contains(v.Detail, bad.String()) {
		t.Fatalf("detail should quote the cause: %q", v.Detail)
	}
}

func TestContextRingBounded(t *testing.T) {
	r := newRig(t, Config{ContextDepth: 4})
	const a = 0x2900
	r.tx(0, a, 6, "R", false, false, 1)
	r.st(0, a, "I", "M", "fill", 1)
	for i := 0; i < 20; i++ { // legal churn to rotate the ring
		r.st(0, a, "M", "O", "snoop-cache-read", uint64(10+i))
		r.st(0, a, "O", "I", "snoop-cache-rfo", uint64(40+i))
		r.tx(0, a, 6, "R", false, false, uint64(70+i))
		r.st(0, a, "I", "M", "fill", uint64(70+i))
	}
	r.st(0, a, "M", "I", "evict-clean", 0)

	v := r.wantViolation(InvLegalLocal)
	if len(v.Context) != 4 {
		t.Fatalf("context has %d events, want exactly depth 4", len(v.Context))
	}
	last := v.Context[len(v.Context)-1]
	if last.Cause != obs.CauseEvictClean {
		t.Fatalf("context should end with the trigger, got cause %q", last.Cause)
	}
	for i := 1; i < len(v.Context); i++ {
		if v.Context[i].TS < v.Context[i-1].TS {
			t.Fatalf("context out of order: %v", v.Context)
		}
	}
}

func TestEpochResetsShadow(t *testing.T) {
	r := newRig(t, Config{})
	const a = 0x3000
	r.tx(0, a, 6, "R", false, false, 1)
	r.st(0, a, "I", "M", "fill", 1)

	// New system on the same recorder: everyone is Invalid again.
	r.m.Consume(&obs.Event{Kind: obs.KindEpoch})

	r.tx(1, a, 6, "R", false, false, 2)
	r.st(1, a, "I", "M", "fill", 2)
	r.wantClean()
	if rep := r.m.Report(); rep.Lines != 1 {
		t.Fatalf("epoch should reset line shadows, got %d lines", rep.Lines)
	}
}

func TestEpochKeepsCounters(t *testing.T) {
	r := newRig(t, Config{})
	r.st(0, 0x3100, "I", "M", "read-hit", 0)
	r.m.Consume(&obs.Event{Kind: obs.KindEpoch})
	if r.m.Total() != 1 {
		t.Fatalf("epoch must not erase violation counters, total=%d", r.m.Total())
	}
}

func TestViolationStorageBounded(t *testing.T) {
	r := newRig(t, Config{MaxViolations: 3})
	for i := 0; i < 10; i++ {
		r.st(0, uint64(0x4000+i*64), "I", "M", "read-hit", 0)
	}
	if r.m.Total() != 10 {
		t.Fatalf("counter should keep counting, total=%d", r.m.Total())
	}
	if got := len(r.m.Violations()); got != 3 {
		t.Fatalf("stored %d violations, want cap 3", got)
	}
	if f := r.m.First(); f == nil || f.N != 1 {
		t.Fatalf("first violation latch wrong: %v", f)
	}
}

func TestLineCapTruncates(t *testing.T) {
	r := newRig(t, Config{})
	r.m.maxLines = 2
	for i := 0; i < 5; i++ {
		r.tx(0, uint64(0x5000+i*64), 6, "R", false, false, uint64(i+1))
		r.st(0, uint64(0x5000+i*64), "I", "M", "fill", uint64(i+1))
	}
	rep := r.m.Report()
	if rep.Lines != 2 {
		t.Fatalf("line cap not applied: %d lines", rep.Lines)
	}
	if rep.TruncatedEvents == 0 {
		t.Fatal("events beyond the cap should be counted as truncated")
	}
	if !strings.Contains(rep.Summary(), "not checked") {
		t.Fatalf("summary should disclose truncation: %q", rep.Summary())
	}
}

func TestCountsLabelledByProto(t *testing.T) {
	r := newRig(t, Config{})
	r.st(0, 0x6000, "I", "M", "read-hit", 0)
	counts := r.m.Counts()
	if len(counts) != 1 || counts[0].Proto != "moesi" || counts[0].Invariant != InvLegalLocal {
		t.Fatalf("counts = %+v", counts)
	}
	if s := counts[0]; s.N != 1 {
		t.Fatalf("count = %d, want 1", s.N)
	}
}

// TestTxViolationProtoKeyedByBus: in a tree, bridge k is master k on
// the global bus and cluster cache k is master k on its cluster's bus,
// so a transaction-level violation is filed under the protocol the
// master's own bus last named, not the other bus's.
func TestTxViolationProtoKeyedByBus(t *testing.T) {
	m := New(Config{})
	var ts int64
	emit := func(e obs.Event) {
		ts++
		e.TS = ts
		m.Consume(&e)
	}
	fill := func(bus, proc int32, addr uint64, proto string, txid uint64) {
		emit(obs.Event{Kind: obs.KindTx, Bus: bus, Proc: proc, Addr: addr, Col: 6, Op: obs.OpRead, TxID: txid})
		emit(obs.Event{Kind: obs.KindState, Bus: bus, Proc: proc, Addr: addr, From: core.Invalid,
			To: core.Modified, Cause: obs.CauseFill, Proto: obs.NameOf(proto), TxID: txid})
	}
	fill(0, 0, 0x100, "moesi-invalidate", 1) // bridge 0, global bus
	fill(0, 1, 0x200, "moesi-invalidate", 2) // bridge 1 owns 0x200
	fill(1, 0, 0x300, "moesi", 3)            // cluster cache 0, bus 1
	// Bridge 0 reads 0x200 without DI: memory answers for an owned line.
	emit(obs.Event{Kind: obs.KindTx, Bus: 0, Proc: 0, Addr: 0x200, Col: 5, Op: obs.OpRead, TxID: 4})

	v := m.First()
	if v == nil || v.Invariant != InvMemoryOwner {
		t.Fatalf("first violation = %v, want %s", v, InvMemoryOwner)
	}
	if v.Proto != "moesi-invalidate" {
		t.Errorf("bridge 0's violation filed under %q, want moesi-invalidate", v.Proto)
	}
	if counts := m.Counts(); len(counts) != 1 || counts[0].Proto != "moesi-invalidate" {
		t.Errorf("counts = %+v, want one moesi-invalidate count", counts)
	}
}

func TestViolationString(t *testing.T) {
	r := newRig(t, Config{})
	const a = 0x7000
	r.tx(0, a, 6, "R", false, false, 1)
	r.st(0, a, "I", "M", "fill", 1)
	r.st(0, a, "M", "I", "evict-clean", 0)
	s := r.m.First().String()
	for _, want := range []string{"legal-local-action", "0x7000", "M→I", "evict-clean", "moesi"} {
		if !strings.Contains(s, want) {
			t.Fatalf("String() = %q, missing %q", s, want)
		}
	}
}

// splitEvent feeds one split-phase event (pend/data/nack/exhausted).
func (r *rig) split(kind obs.Kind, proc int, addr uint64, txid uint64, retries int) {
	r.ts++
	r.m.Consume(&obs.Event{
		TS: r.ts, Kind: kind, Bus: 0, Proc: int32(proc), Addr: addr,
		TxID: txid, Retries: int32(retries),
	})
}

// TestSplitPendingLifecycleClean: a legal pend→data pairing (with a
// NACK in between) raises nothing.
func TestSplitPendingLifecycleClean(t *testing.T) {
	r := newRig(t, Config{})
	const a = 0x8000
	r.split(obs.KindPend, 0, a, 1, 0)
	r.split(obs.KindNack, 1, a+1, 2, 0)
	r.split(obs.KindPend, 1, a+1, 2, 0)
	r.split(obs.KindData, 0, a, 1, 0)
	r.split(obs.KindData, 1, a+1, 2, 0)
	r.wantClean()
}

// TestSplitDoublePendCaught: the same transaction entering the pending
// table twice is a split-bookkeeping bug.
func TestSplitDoublePendCaught(t *testing.T) {
	r := newRig(t, Config{})
	const a = 0x8100
	r.split(obs.KindPend, 0, a, 7, 0)
	r.split(obs.KindPend, 0, a, 7, 0)
	v := r.wantViolation(InvPendingTx)
	if v.TxID != 7 {
		t.Fatalf("violation blames tx %d, want 7", v.TxID)
	}
}

// TestSplitPhantomDataCaught: a data tenure for a transaction that
// never entered the pending table is a fabricated response.
func TestSplitPhantomDataCaught(t *testing.T) {
	r := newRig(t, Config{})
	r.split(obs.KindData, 0, 0x8200, 9, 0)
	r.wantViolation(InvPendingTx)
}

// TestSplitPendResetsOnEpoch: a new system boundary clears the shadow
// pending set — a pend left over from the previous epoch must not make
// the next epoch's same-txid pend look like a duplicate.
func TestSplitPendResetsOnEpoch(t *testing.T) {
	r := newRig(t, Config{})
	const a = 0x8300
	r.split(obs.KindPend, 0, a, 3, 0)
	r.m.Consume(&obs.Event{Kind: obs.KindEpoch, Bus: 0, Proc: -1})
	r.split(obs.KindPend, 0, a, 3, 0)
	r.split(obs.KindData, 0, a, 3, 0)
	r.wantClean()
}

// TestRetryExhaustedIsProgressViolation: KindRetryExhausted folds into
// a forward-progress violation carrying the abort count.
func TestRetryExhaustedIsProgressViolation(t *testing.T) {
	r := newRig(t, Config{})
	r.split(obs.KindRetryExhausted, 2, 0x8400, 11, 33)
	v := r.wantViolation(InvProgress)
	if v.Proc != 2 || v.TxID != 11 {
		t.Fatalf("violation blames proc %d tx %d, want 2/11", v.Proc, v.TxID)
	}
	if !strings.Contains(v.Detail, "33") {
		t.Fatalf("detail should carry the abort count: %q", v.Detail)
	}
}

// TestStructuralChecksMatchCore: on every multiset of up to three copies
// over {S, E, O, M}, installed one fill at a time, the monitor reports
// exactly the §3.1 invariants core's predicate names for the line's
// states. It sees no data, so only ownership and exclusivity can be
// breached.
func TestStructuralChecksMatchCore(t *testing.T) {
	names := map[Invariant]core.Invariant{
		InvSingleOwner: core.UniqueOwner,
		InvExclusivity: core.RealExclusivity,
	}
	kinds := []core.State{core.Shared, core.Exclusive, core.Owned, core.Modified}
	n := 0
	var grow func(from int, set []core.State)
	grow = func(from int, set []core.State) {
		n++
		r := newRig(t, Config{})
		var want core.Copies
		for proc, s := range set {
			r.st(proc, 0x40, "I", s.Letter(), "fill", 0)
			want.Add(s, false)
		}
		var got core.Invariant
		for inv, c := range r.m.Report().ByInvariant {
			if c > 0 {
				got |= names[inv]
			}
		}
		if got != want.Breaches() {
			t.Errorf("copies %v: monitor reports %q, core %q", set, got, want.Breaches())
		}
		if len(set) < 3 {
			for k := from; k < len(kinds); k++ {
				grow(k, append(set[:len(set):len(set)], kinds[k]))
			}
		}
	}
	grow(0, nil)
	if n != 35 {
		t.Errorf("%d multisets, want 35", n)
	}
}
