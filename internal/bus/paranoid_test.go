package bus

import (
	"strings"
	"testing"

	"futurebus/internal/core"
)

// TestParanoidAcceptsClassActions: legal responses pass unmolested.
func TestParanoidAcceptsClassActions(t *testing.T) {
	mem := newFakeMemory(16)
	b := New(mem, Config{LineSize: 16, Paranoid: true})
	owner := &fakeSnooper{id: 1, resp: func(tx *Transaction) SnoopResponse {
		a, _ := core.ParseSnoopAction("O,CH,DI")
		return SnoopResponse{Action: a, Line: lineOf(16, 1), State: core.Modified, Hit: true}
	}}
	b.Attach(owner)
	if _, err := b.Execute(Transaction{MasterID: 0, Signals: core.SigCA, Op: core.BusRead, Addr: 1, Data: make([]byte, b.LineSize())}); err != nil {
		t.Fatal(err)
	}
}

// TestParanoidRejectsOutOfClass: an illegal response fails the
// transaction immediately, with directories released (the snooper is
// Cancelled, not left locked).
func TestParanoidRejectsOutOfClass(t *testing.T) {
	mem := newFakeMemory(16)
	b := New(mem, Config{LineSize: 16, Paranoid: true})
	evil := &fakeSnooper{id: 1, resp: func(tx *Transaction) SnoopResponse {
		// Keeping an S copy across a column 6 invalidate is the classic
		// protocol bug.
		a, _ := core.ParseSnoopAction("S,CH")
		return SnoopResponse{Action: a, State: core.Shared, Hit: true}
	}}
	b.Attach(evil)
	_, err := b.Execute(Transaction{MasterID: 0, Signals: core.SigCA | core.SigIM, Op: core.BusAddrOnly, Addr: 1})
	if err == nil || !strings.Contains(err.Error(), "out-of-class") {
		t.Fatalf("err = %v", err)
	}
	if evil.cancels != 1 {
		t.Errorf("snooper not cancelled: %d", evil.cancels)
	}
	if evil.locked {
		t.Error("snooper left locked")
	}
	// The bus remains usable afterwards... with the evil snooper gone
	// silent.
	evil.resp = nil
	if _, err := b.Execute(Transaction{MasterID: 0, Op: core.BusRead, Addr: 2, Data: make([]byte, b.LineSize())}); err != nil {
		t.Fatalf("bus wedged after paranoid failure: %v", err)
	}
}

// TestParanoidAllowsBS: the BS extension is in the extended class, not
// rejected.
func TestParanoidAllowsBS(t *testing.T) {
	mem := newFakeMemory(16)
	b := New(mem, Config{LineSize: 16, Paranoid: true})
	owner := &abortingSnooper{fakeSnooper: fakeSnooper{id: 1}, data: lineOf(16, 9)}
	b.Attach(owner)
	res, err := b.Execute(Transaction{MasterID: 0, Signals: core.SigCA, Op: core.BusRead, Addr: 3, Data: make([]byte, b.LineSize())})
	if err != nil {
		t.Fatal(err)
	}
	if res.Retries != 1 {
		t.Errorf("retries = %d", res.Retries)
	}
}

// TestParanoidSkipsCleanCommands: CmdClean responses are a documented
// extension outside the printed class.
func TestParanoidSkipsCleanCommands(t *testing.T) {
	mem := newFakeMemory(16)
	b := New(mem, Config{LineSize: 16, Paranoid: true})
	holder := &fakeSnooper{id: 1, resp: func(tx *Transaction) SnoopResponse {
		a, _ := core.ParseSnoopAction("S,CH")
		return SnoopResponse{Action: a, State: core.Shared, Hit: true}
	}}
	b.Attach(holder)
	if _, err := b.Execute(Transaction{MasterID: 0, Cmd: CmdClean, Op: core.BusAddrOnly, Addr: 1}); err != nil {
		t.Fatal(err)
	}
}
