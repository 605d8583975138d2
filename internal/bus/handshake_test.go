package bus

import (
	"strings"
	"testing"
	"testing/quick"

	"futurebus/internal/core"
)

// TestParallelProtocolSequence is experiment F2: the event ordering of
// Figure 2 — address before AS*, AK* falls with the first slave, AI*
// rises only after the last slave plus the filter, and only then may
// the master remove the address.
func TestParallelProtocolSequence(t *testing.T) {
	tr := SimulateBroadcastHandshake(DefaultHandshakeConfig())

	idx := func(line string, kind EdgeKind) int {
		for i, e := range tr.Events {
			if e.Line == line && e.Kind == kind {
				return i
			}
		}
		t.Fatalf("no %s %s event", line, kind)
		return -1
	}
	addrOn := idx("ADDR", EdgeAssert)
	asOn := idx("AS*", EdgeAssert)
	akOn := idx("AK*", EdgeAssert)
	aiHigh := idx("AI*", EdgeHigh)
	addrOff := idx("ADDR", EdgeHigh)

	if !(addrOn < asOn && asOn < akOn && akOn < aiHigh && aiHigh <= addrOff) {
		t.Fatalf("protocol order violated: %v", tr.Events)
	}
	if tr.Events[addrOff].Time < tr.Events[aiHigh].Time {
		t.Error("master removed the address before AI* rose")
	}
}

// TestBroadcastHandshakeOrdering is experiment F1: wired-OR timing —
// the cycle completes at the SLOWEST slave's release plus the glitch
// filter, and AK* falls at the FASTEST slave's ack.
func TestBroadcastHandshakeOrdering(t *testing.T) {
	cfg := HandshakeConfig{
		AddressSetup: 10,
		GlitchFilter: 25,
		Slaves: []SlaveTiming{
			{AckDelay: 9, ProcessTime: 30},
			{AckDelay: 2, ProcessTime: 120}, // slowest board
			{AckDelay: 5, ProcessTime: 55},
		},
	}
	tr := SimulateBroadcastHandshake(cfg)
	if want := int64(10 + 2); tr.FirstAck != want {
		t.Errorf("AK* fell at %d, want %d (fastest ack)", tr.FirstAck, want)
	}
	if want := int64(10 + 120); tr.LastRelease != want {
		t.Errorf("last AI* release at %d, want %d (slowest board)", tr.LastRelease, want)
	}
	if want := tr.LastRelease + 25; tr.Complete != want {
		t.Errorf("cycle complete at %d, want %d (+glitch filter)", tr.Complete, want)
	}
}

// TestHandshakePenaltyProperty: for any board mix, completion time is
// exactly max(process) + setup + filter — "no matter how new or old,
// fast or slow, a particular board may be" (§2.2), the slowest sets the
// pace and nobody is left behind.
func TestHandshakePenaltyProperty(t *testing.T) {
	f := func(procTimes []uint8) bool {
		if len(procTimes) == 0 {
			return true
		}
		cfg := HandshakeConfig{AddressSetup: 10, GlitchFilter: 25}
		var slowest int64
		for i, p := range procTimes {
			pt := int64(p) + 1
			cfg.Slaves = append(cfg.Slaves, SlaveTiming{AckDelay: int64(i%7) + 1, ProcessTime: pt})
			if pt > slowest {
				slowest = pt
			}
		}
		tr := SimulateBroadcastHandshake(cfg)
		return tr.Complete == 10+slowest+25
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// TestHandshakeEventsSorted: the trace is time-ordered.
func TestHandshakeEventsSorted(t *testing.T) {
	tr := SimulateBroadcastHandshake(DefaultHandshakeConfig())
	for i := 1; i < len(tr.Events); i++ {
		if tr.Events[i].Time < tr.Events[i-1].Time {
			t.Fatalf("events out of order at %d: %v", i, tr.Events)
		}
	}
}

// TestHandshakeRender: the human-readable trace mentions the filter.
func TestHandshakeRender(t *testing.T) {
	out := SimulateBroadcastHandshake(DefaultHandshakeConfig()).Render()
	for _, want := range []string{"AS*", "AK*", "AI*", "wired-OR filter"} {
		if !strings.Contains(out, want) {
			t.Errorf("trace lacks %q:\n%s", want, out)
		}
	}
}

// TestHandshakeDrivenTiming: on a bus timed by a simulated handshake,
// every address cycle costs exactly its completion time — adding a slow
// board to the bus slows every transaction for everyone (§2.2).
func TestHandshakeDrivenTiming(t *testing.T) {
	run := func(slowest int64) int64 {
		cfg := DefaultHandshakeConfig()
		cfg.Slaves = append(cfg.Slaves, SlaveTiming{AckDelay: 5, ProcessTime: slowest})
		mem := newFakeMemory(16)
		b := New(mem, Config{LineSize: 16, Timing: SimulateBroadcastHandshake(cfg).Timing()})
		res, err := b.Execute(Transaction{MasterID: 0, Signals: core.SigCA | core.SigIM, Op: core.BusAddrOnly, Addr: 1})
		if err != nil {
			t.Fatal(err)
		}
		wantAddr := SimulateBroadcastHandshake(cfg).Complete
		if res.Cost != wantAddr {
			t.Fatalf("address-only cost %d, simulated handshake %d", res.Cost, wantAddr)
		}
		return res.Cost
	}
	fast := run(90)
	slow := run(400)
	if slow-fast != 310 {
		t.Errorf("slow board added %dns per cycle, want 310", slow-fast)
	}
}
