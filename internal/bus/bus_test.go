package bus

import (
	"encoding/binary"
	"errors"
	"strings"
	"testing"

	"futurebus/internal/core"
)

// fakeMemory is a minimal MemoryPort for bus-level tests.
type fakeMemory struct {
	lineSize int
	lines    map[Addr][]byte
	reads    int
	writes   int
}

func newFakeMemory(lineSize int) *fakeMemory {
	return &fakeMemory{lineSize: lineSize, lines: map[Addr][]byte{}}
}

func (m *fakeMemory) ReadLine(addr Addr, dst []byte) {
	m.reads++
	if l, ok := m.lines[addr]; ok {
		copy(dst, l)
		return
	}
	clear(dst)
}

func (m *fakeMemory) WriteLine(addr Addr, data []byte) {
	m.writes++
	m.lines[addr] = append([]byte(nil), data...)
}

// fakeSnooper scripts one snooper's responses and records the bus's
// calls against the Query→Commit/Cancel contract.
type fakeSnooper struct {
	id      int
	resp    func(tx *Transaction) SnoopResponse
	locked  bool
	commits []struct {
		otherCH bool
		action  core.SnoopAction
	}
	cancels int
}

func (f *fakeSnooper) SnooperID() int { return f.id }

func (f *fakeSnooper) Query(tx *Transaction) SnoopResponse {
	if f.locked {
		panic("Query while already locked")
	}
	f.locked = true
	if f.resp == nil {
		return SnoopResponse{}
	}
	return f.resp(tx)
}

func (f *fakeSnooper) Commit(tx *Transaction, resp SnoopResponse, otherCH bool) {
	if !f.locked {
		panic("Commit without Query")
	}
	f.locked = false
	f.commits = append(f.commits, struct {
		otherCH bool
		action  core.SnoopAction
	}{otherCH, resp.Action})
}

func (f *fakeSnooper) Cancel(tx *Transaction, resp SnoopResponse) {
	if !f.locked {
		panic("Cancel without Query")
	}
	f.locked = false
	f.cancels++
}

// respond builds a static response function.
func respond(action string, line []byte) func(*Transaction) SnoopResponse {
	a, err := core.ParseSnoopAction(action)
	if err != nil {
		panic(err)
	}
	return func(*Transaction) SnoopResponse {
		return SnoopResponse{Action: a, Line: line, Hit: true}
	}
}

func lineOf(lineSize int, first uint32) []byte {
	l := make([]byte, lineSize)
	binary.LittleEndian.PutUint32(l, first)
	return l
}

// TestReadFromMemory: no DI — memory supplies, SL reflects its
// participation.
func TestReadFromMemory(t *testing.T) {
	mem := newFakeMemory(16)
	mem.WriteLine(1, lineOf(16, 0x1234))
	mem.writes = 0
	b := New(mem, Config{LineSize: 16})
	s := &fakeSnooper{id: 1}
	b.Attach(s)

	res, err := b.Execute(Transaction{MasterID: 0, Signals: core.SigCA, Op: core.BusRead, Addr: 1, Data: make([]byte, b.LineSize())})
	if err != nil {
		t.Fatal(err)
	}
	if res.DI || res.CH {
		t.Errorf("unexpected responses: %+v", res)
	}
	if !res.SL {
		t.Error("memory did not connect")
	}
	if binary.LittleEndian.Uint32(res.Data) != 0x1234 {
		t.Errorf("data = %x", res.Data)
	}
	if mem.reads != 1 {
		t.Errorf("memory reads = %d", mem.reads)
	}
}

// TestInterventionPreemptsMemory: a DI owner supplies the data; memory
// is not read (§3.2.2: DI "will preempt a response from memory").
func TestInterventionPreemptsMemory(t *testing.T) {
	mem := newFakeMemory(16)
	b := New(mem, Config{LineSize: 16})
	owner := &fakeSnooper{id: 1, resp: respond("O,CH,DI", lineOf(16, 0xBEEF))}
	b.Attach(owner)

	res, err := b.Execute(Transaction{MasterID: 0, Signals: core.SigCA, Op: core.BusRead, Addr: 7, Data: make([]byte, b.LineSize())})
	if err != nil {
		t.Fatal(err)
	}
	if !res.DI || !res.CH {
		t.Errorf("responses: %+v", res)
	}
	if binary.LittleEndian.Uint32(res.Data) != 0xBEEF {
		t.Errorf("data = %x (memory supplied?)", res.Data)
	}
	if mem.reads != 0 {
		t.Error("memory was read despite intervention")
	}
	if b.Stats().Interventions != 1 {
		t.Errorf("interventions = %d", b.Stats().Interventions)
	}
}

// TestDuplicateOwnersRejected: two DI assertions mean two owners — the
// bus reports the broken system instead of picking one.
func TestDuplicateOwnersRejected(t *testing.T) {
	mem := newFakeMemory(16)
	b := New(mem, Config{LineSize: 16})
	b.Attach(&fakeSnooper{id: 1, resp: respond("O,CH,DI", lineOf(16, 1))})
	b.Attach(&fakeSnooper{id: 2, resp: respond("O,CH,DI", lineOf(16, 2))})

	_, err := b.Execute(Transaction{MasterID: 0, Signals: core.SigCA, Op: core.BusRead, Addr: 7, Data: make([]byte, b.LineSize())})
	if err == nil || !strings.Contains(err.Error(), "duplicate owners") {
		t.Fatalf("err = %v", err)
	}
}

// TestNonBroadcastWriteCapturedByOwner: column 9 — the owner captures,
// memory is preempted.
func TestNonBroadcastWriteCapturedByOwner(t *testing.T) {
	mem := newFakeMemory(16)
	b := New(mem, Config{LineSize: 16})
	owner := &fakeSnooper{id: 1, resp: respond("M,CH?,DI", nil)}
	b.Attach(owner)

	_, err := b.Execute(Transaction{
		MasterID: 0, Signals: core.SigIM, Op: core.BusWrite, Addr: 3,
		Partial: true, Word: 1, Val: 0xAA,
	})
	if err != nil {
		t.Fatal(err)
	}
	if mem.writes != 0 {
		t.Error("memory updated despite DI capture")
	}
}

// TestBroadcastWriteReachesMemoryAndSlaves: column 10 — memory merges
// the word and SL slaves connect even with an owner present.
func TestBroadcastWriteReachesMemoryAndSlaves(t *testing.T) {
	mem := newFakeMemory(16)
	mem.WriteLine(3, lineOf(16, 0x11))
	mem.writes = 0
	b := New(mem, Config{LineSize: 16})
	sharer := &fakeSnooper{id: 1, resp: respond("S,CH,SL", nil)}
	b.Attach(sharer)

	res, err := b.Execute(Transaction{
		MasterID: 0, Signals: core.SigIM | core.SigBC, Op: core.BusWrite, Addr: 3,
		Partial: true, Word: 1, Val: 0xAB,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !res.SL {
		t.Error("no SL")
	}
	if mem.writes != 1 {
		t.Errorf("memory writes = %d", mem.writes)
	}
	got := mem.lines[3]
	if binary.LittleEndian.Uint32(got) != 0x11 || binary.LittleEndian.Uint32(got[4:]) != 0xAB {
		t.Errorf("memory merged wrong: %x", got)
	}
	if b.Stats().Updates != 1 {
		t.Errorf("updates = %d", b.Stats().Updates)
	}
}

// TestFullLineWriteBack: a push stores the whole line in memory.
func TestFullLineWriteBack(t *testing.T) {
	mem := newFakeMemory(16)
	b := New(mem, Config{LineSize: 16})
	data := lineOf(16, 0xF00D)
	if _, err := b.Execute(Transaction{MasterID: 0, Op: core.BusWrite, Addr: 9, Data: data}); err != nil {
		t.Fatal(err)
	}
	if binary.LittleEndian.Uint32(mem.lines[9]) != 0xF00D {
		t.Errorf("memory = %x", mem.lines[9])
	}
}

// TestOtherCHExcludesSelf: each snooper's otherCH is the OR over the
// OTHER units — the listening-owner mechanism of §3.2.2.
func TestOtherCHExcludesSelf(t *testing.T) {
	mem := newFakeMemory(16)
	b := New(mem, Config{LineSize: 16})
	// Snooper 1 asserts CH; snooper 2 does not.
	s1 := &fakeSnooper{id: 1, resp: respond("S,CH", nil)}
	s2 := &fakeSnooper{id: 2, resp: respond("CH:O/M,DI", lineOf(16, 5))}
	b.Attach(s1)
	b.Attach(s2)

	res, err := b.Execute(Transaction{MasterID: 0, Op: core.BusRead, Addr: 4, Data: make([]byte, b.LineSize())})
	if err != nil {
		t.Fatal(err)
	}
	if !res.CH {
		t.Error("master did not observe CH")
	}
	// s1 asserted the only CH: its own view must be false; s2's true.
	if s1.commits[0].otherCH {
		t.Error("s1 observed its own CH")
	}
	if !s2.commits[0].otherCH {
		t.Error("s2 missed s1's CH")
	}

	// Two asserters and a listener, with the master attached too (its
	// CH-asserting response must not count): each asserter sees the
	// other's CH, the listener sees both.
	b = New(newFakeMemory(16), Config{LineSize: 16})
	master := &fakeSnooper{id: 0, resp: respond("S,CH", nil)}
	a1 := &fakeSnooper{id: 1, resp: respond("S,CH", nil)}
	a2 := &fakeSnooper{id: 2, resp: respond("S,CH", nil)}
	listener := &fakeSnooper{id: 3, resp: respond("CH:O/M,DI", lineOf(16, 5))}
	for _, s := range []*fakeSnooper{master, a1, a2, listener} {
		b.Attach(s)
	}
	if _, err := b.Execute(Transaction{MasterID: 0, Op: core.BusRead, Addr: 4, Data: make([]byte, b.LineSize())}); err != nil {
		t.Fatal(err)
	}
	for _, s := range []*fakeSnooper{a1, a2, listener} {
		if len(s.commits) != 1 || !s.commits[0].otherCH {
			t.Errorf("snooper %d: otherCH false with another unit asserting CH", s.id)
		}
	}
	if len(master.commits) != 0 {
		t.Error("master snooped its own transaction")
	}

	// A single asserter beside a non-asserting master sees no other CH.
	b = New(newFakeMemory(16), Config{LineSize: 16})
	lone := &fakeSnooper{id: 1, resp: respond("S,CH", nil)}
	quiet := &fakeSnooper{id: 2}
	b.Attach(lone)
	b.Attach(quiet)
	if _, err := b.Execute(Transaction{MasterID: 0, Op: core.BusRead, Addr: 4, Data: make([]byte, b.LineSize())}); err != nil {
		t.Fatal(err)
	}
	if lone.commits[0].otherCH {
		t.Error("lone asserter observed its own CH")
	}
	if !quiet.commits[0].otherCH {
		t.Error("non-asserter missed the asserter's CH")
	}
}

// TestMasterExcludedFromSnoop: the master's own snooper is not queried.
func TestMasterExcludedFromSnoop(t *testing.T) {
	mem := newFakeMemory(16)
	b := New(mem, Config{LineSize: 16})
	self := &fakeSnooper{id: 0, resp: respond("O,CH,DI", lineOf(16, 1))}
	b.Attach(self)
	res, err := b.Execute(Transaction{MasterID: 0, Op: core.BusRead, Addr: 4, Data: make([]byte, b.LineSize())})
	if err != nil {
		t.Fatal(err)
	}
	if res.CH || res.DI {
		t.Error("master snooped itself")
	}
	if len(self.commits) != 0 {
		t.Error("master's snooper was committed")
	}
}

// abortingSnooper asserts BS once, pushes during recovery, then
// responds normally.
type abortingSnooper struct {
	fakeSnooper
	pushed bool
	data   []byte
}

func (a *abortingSnooper) Query(tx *Transaction) SnoopResponse {
	if a.locked {
		panic("Query while locked")
	}
	a.locked = true
	if !a.pushed {
		act, _ := core.ParseSnoopAction("BS;S,CA,W")
		return SnoopResponse{Action: act, State: core.Modified, Hit: true}
	}
	act, _ := core.ParseSnoopAction("S,CH")
	return SnoopResponse{Action: act, State: core.Shared, Hit: true}
}

func (a *abortingSnooper) Recover(b *Bus, aborted *Transaction, resp SnoopResponse) error {
	a.pushed = true
	_, err := b.ExecuteHeld(Transaction{
		MasterID: a.id, Signals: resp.Action.Abort.Assert,
		Op: core.BusWrite, Addr: aborted.Addr, Data: a.data,
	})
	return err
}

// TestAbortPushRetry: the BS flow of §4.3–4.5 — abort, recovery push
// updates memory, retry succeeds and now reads the pushed data from
// memory.
func TestAbortPushRetry(t *testing.T) {
	mem := newFakeMemory(16)
	b := New(mem, Config{LineSize: 16})
	owner := &abortingSnooper{fakeSnooper: fakeSnooper{id: 1}, data: lineOf(16, 0xCAFE)}
	bystander := &fakeSnooper{id: 2}
	b.Attach(owner)
	b.Attach(bystander)

	res, err := b.Execute(Transaction{MasterID: 0, Signals: core.SigCA, Op: core.BusRead, Addr: 11, Data: make([]byte, b.LineSize())})
	if err != nil {
		t.Fatal(err)
	}
	if res.Retries != 1 {
		t.Errorf("retries = %d", res.Retries)
	}
	if binary.LittleEndian.Uint32(res.Data) != 0xCAFE {
		t.Errorf("retried read got %x", res.Data)
	}
	if mem.writes != 1 {
		t.Errorf("memory writes = %d (push missing?)", mem.writes)
	}
	if b.Stats().Aborts != 1 {
		t.Errorf("aborts = %d", b.Stats().Aborts)
	}
	// The bystander was cancelled once (aborted attempt), then
	// committed twice: once for the recovery push, once for the retry.
	if bystander.cancels != 1 {
		t.Errorf("bystander cancels = %d", bystander.cancels)
	}
	if len(bystander.commits) != 2 {
		t.Errorf("bystander commits = %d", len(bystander.commits))
	}
	// Cost accumulated across attempts: three address cycles (abort,
	// push, retry) plus two data phases.
	if res.Cost <= b.Timing().AddressCycleCost()*3 {
		t.Errorf("cost %d does not include retries", res.Cost)
	}
}

// foreverBusy aborts every attempt without making progress.
type foreverBusy struct{ fakeSnooper }

func (f *foreverBusy) Query(tx *Transaction) SnoopResponse {
	f.locked = true
	act, _ := core.ParseSnoopAction("BS;S,CA,W")
	return SnoopResponse{Action: act, Hit: true}
}

func (f *foreverBusy) Recover(b *Bus, aborted *Transaction, resp SnoopResponse) error {
	return nil // never actually pushes
}

// TestTooManyRetries: a livelocking BS asserter is detected.
func TestTooManyRetries(t *testing.T) {
	b := New(newFakeMemory(16), Config{LineSize: 16})
	b.Attach(&foreverBusy{fakeSnooper{id: 1}})
	_, err := b.Execute(Transaction{MasterID: 0, Op: core.BusRead, Addr: 1, Data: make([]byte, b.LineSize())})
	if !errors.Is(err, ErrTooManyRetries) {
		t.Fatalf("err = %v", err)
	}
}

// TestTransactionValidation: the §5.1 standard-line-size rule and
// signal hygiene are enforced.
func TestTransactionValidation(t *testing.T) {
	b := New(newFakeMemory(32), Config{LineSize: 32})
	cases := []Transaction{
		{MasterID: 0, Op: core.BusWrite, Addr: 1, Data: make([]byte, 16)},                     // wrong size
		{MasterID: 0, Op: core.BusRead, Addr: 1},                                              // read without a buffer
		{MasterID: 0, Op: core.BusRead, Addr: 1, Data: make([]byte, 16)},                      // read buffer of the wrong size
		{MasterID: 0, Op: core.BusRead, Addr: 1, Data: make([]byte, 32), Partial: true},       // read with a partial write
		{MasterID: 0, Op: core.BusAddrOnly, Addr: 1, Partial: true},                           // addr-only with data
		{MasterID: 0, Op: core.BusAddrOnly, Addr: 1, Data: make([]byte, 32)},                  // addr-only with a line
		{MasterID: 0, Op: core.BusWrite, Addr: 1, Data: make([]byte, 32), Partial: true},      // both payloads
		{MasterID: 0, Op: core.BusWrite, Addr: 1, Partial: true, Word: 8},                     // word out of line
		{MasterID: 0, Op: core.BusRead, Addr: 1, Data: make([]byte, 32), Signals: core.SigCH}, // response signal from master
		{MasterID: 0, Op: core.BusReadThenWrite, Addr: 1},                                     // composite op
	}
	for i, tx := range cases {
		if _, err := b.Execute(tx); err == nil {
			t.Errorf("case %d accepted: %s", i, &tx)
		}
	}
}

// TestDuplicateSnooperPanics: two boards with one id is a wiring error.
func TestDuplicateSnooperPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("duplicate id accepted")
		}
	}()
	b := New(newFakeMemory(16), Config{LineSize: 16})
	b.Attach(&fakeSnooper{id: 1})
	b.Attach(&fakeSnooper{id: 1})
}

// TestTraceHook: the observer sees every completed transaction.
func TestTraceHook(t *testing.T) {
	b := New(newFakeMemory(16), Config{LineSize: 16})
	var seen int
	b.SetTrace(func(tx *Transaction, r *Result) { seen++ })
	for i := 0; i < 3; i++ {
		if _, err := b.Execute(Transaction{MasterID: 0, Op: core.BusRead, Addr: Addr(i), Data: make([]byte, b.LineSize())}); err != nil {
			t.Fatal(err)
		}
	}
	if seen != 3 {
		t.Errorf("trace saw %d transactions", seen)
	}
}

// TestEventClassification: transactions report their Table 2 column.
func TestEventClassification(t *testing.T) {
	tx := &Transaction{Signals: core.SigCA | core.SigIM}
	if tx.Event() != core.BusCacheRFO {
		t.Errorf("event = %v", tx.Event())
	}
}
