package check

import (
	"bytes"
	"encoding/binary"
	"strings"
	"sync"
	"testing"

	"futurebus/internal/bus"
	"futurebus/internal/cache"
	"futurebus/internal/core"
	"futurebus/internal/memory"
	"futurebus/internal/protocols"
)

const lineSize = 32

// TestShadowMergesWords: the golden image accumulates word stores.
func TestShadowMergesWords(t *testing.T) {
	s := NewShadow(lineSize)
	s.OnWrite(3, 0, 0x11)
	s.OnWrite(3, 2, 0x33)
	s.OnWrite(3, 0, 0x12) // overwrite
	line := s.Line(3)
	if line[0] != 0x12 || line[8] != 0x33 {
		t.Errorf("line = %x", line[:12])
	}
	if s.Writes() != 3 {
		t.Errorf("writes = %d", s.Writes())
	}
	if got := s.Line(99); !bytes.Equal(got, make([]byte, lineSize)) {
		t.Errorf("unwritten line = %x", got)
	}
	if lines := s.Lines(); len(lines) != 1 || lines[0] != 3 {
		t.Errorf("lines = %v", lines)
	}
}

// TestShadowConcurrent: the hook is safe under concurrent writers (it
// is called from many cache goroutines).
func TestShadowConcurrent(t *testing.T) {
	s := NewShadow(lineSize)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 1000; i++ {
				s.OnWrite(bus.Addr(g), i%8, uint32(i))
			}
		}(g)
	}
	wg.Wait()
	if s.Writes() != 8000 {
		t.Errorf("writes = %d", s.Writes())
	}
}

// TestShadowStripedWriters: writers on many lines, spread over every
// stripe, keep each line's own values, while the writes of one shared
// line, ordered by a lock as a directory lock or the bus orders them,
// leave the line holding the last one.
func TestShadowStripedWriters(t *testing.T) {
	const writers, lines, rounds = 8, 64, 50
	s := NewShadow(lineSize)
	const shared = bus.Addr(1 << 20)
	var order sync.Mutex
	var last uint32
	var wg sync.WaitGroup
	for g := 0; g < writers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for r := 0; r < rounds; r++ {
				for l := 0; l < lines; l++ {
					s.OnWrite(bus.Addr(g*lines+l), g%8, uint32(r))
				}
				order.Lock()
				last++
				s.OnWrite(shared, 0, last)
				order.Unlock()
			}
		}(g)
	}
	wg.Wait()
	if got, want := s.Writes(), int64(writers*rounds*(lines+1)); got != want {
		t.Errorf("writes = %d, want %d", got, want)
	}
	if got := len(s.Lines()); got != writers*lines+1 {
		t.Errorf("%d lines, want %d", got, writers*lines+1)
	}
	for g := 0; g < writers; g++ {
		for l := 0; l < lines; l++ {
			line := s.Line(bus.Addr(g*lines + l))
			if got := binary.LittleEndian.Uint32(line[g%8*4:]); got != rounds-1 {
				t.Fatalf("line %d word %d = %d, want %d", g*lines+l, g%8, got, rounds-1)
			}
		}
	}
	if got := binary.LittleEndian.Uint32(s.Line(shared)); got != last {
		t.Errorf("shared line = %d, want the last write %d", got, last)
	}
}

// rig builds a real two-cache system for end-to-end checker tests.
func rig(t *testing.T, p0, p1 core.Policy) (*bus.Bus, *memory.Memory, *cache.Cache, *cache.Cache, *Checker) {
	t.Helper()
	mem := memory.New(lineSize)
	b := bus.New(mem, bus.Config{LineSize: lineSize})
	shadow := NewShadow(lineSize)
	cfg := cache.Config{Sets: 4, Ways: 2, OnWrite: shadow.OnWrite}
	c0 := cache.New(0, b, p0, cfg)
	c1 := cache.New(1, b, p1, cfg)
	checker := &Checker{Caches: []LineSource{c0, c1}, Memory: mem, Shadow: shadow}
	return b, mem, c0, c1, checker
}

// TestCleanSystemPasses: a correctly-driven system has no violations.
func TestCleanSystemPasses(t *testing.T) {
	_, _, c0, c1, checker := rig(t, protocols.MOESI(), protocols.Dragon())
	for i := 0; i < 50; i++ {
		addr := bus.Addr(i % 6)
		if err := c0.WriteWord(addr, i%8, uint32(i+1)); err != nil {
			t.Fatal(err)
		}
		if _, err := c1.ReadWord(addr, i%8); err != nil {
			t.Fatal(err)
		}
		if err := c1.WriteWord(addr, (i+1)%8, uint32(i+100)); err != nil {
			t.Fatal(err)
		}
	}
	if err := checker.MustPass(); err != nil {
		t.Fatal(err)
	}
}

// evilPolicy claims M on every read miss regardless of CH — two caches
// both end up "exclusive", the textbook coherence bug.
type evilPolicy struct{ core.Policy }

func newEvil() core.Policy { return &evilPolicy{Policy: protocols.MOESI()} }

func (p *evilPolicy) Name() string { return "evil" }

func (p *evilPolicy) ChooseLocal(s core.State, e core.LocalEvent) (core.LocalAction, bool) {
	if s == core.Invalid && e == core.LocalRead {
		a, err := core.ParseLocalAction("M,CA,R")
		if err != nil {
			panic(err)
		}
		return a, true
	}
	return p.Policy.ChooseLocal(s, e)
}

// ChooseSnoop keeps stale copies alive on column 5 — combined with the
// M-miss above, this manufactures duplicate exclusivity.
func (p *evilPolicy) ChooseSnoop(s core.State, e core.BusEvent) (core.SnoopAction, bool) {
	if e == core.BusCacheRead && s.Valid() {
		cell := "S,CH"
		if s.OwnedCopy() {
			// Pretend to stay exclusive owner without intervening.
			cell = "M,CH?"
		}
		a, err := core.ParseSnoopAction(cell)
		if err != nil {
			panic(err)
		}
		return a, true
	}
	return p.Policy.ChooseSnoop(s, e)
}

// TestCheckerDetectsDuplicateExclusivity: the evil policy produces two
// caches claiming M/E on one line, and the checker reports it.
func TestCheckerDetectsDuplicateExclusivity(t *testing.T) {
	_, _, c0, c1, checker := rig(t, newEvil(), newEvil())
	// c0 loads the line as M (lying), then c1 read-misses: c0 snoops
	// with "M,CH?" (refusing to supply or demote) and c1 also installs
	// M. Memory serves stale zeroes to c1.
	if err := c0.WriteWord(1, 0, 0xAA); err != nil { // miss→M (evil read not used: write uses MOESI RFO)
		t.Fatal(err)
	}
	if _, err := c1.ReadWord(1, 0); err != nil {
		t.Fatal(err)
	}
	vs := checker.Check()
	if len(vs) == 0 {
		t.Fatal("duplicate exclusivity not detected")
	}
	var text []string
	for _, v := range vs {
		text = append(text, v.String())
	}
	joined := strings.Join(text, "\n")
	if !strings.Contains(joined, "exclusivity") && !strings.Contains(joined, "owned by") {
		t.Errorf("unexpected violations:\n%s", joined)
	}
	if err := checker.MustPass(); err == nil {
		t.Error("MustPass passed a broken system")
	}
}

// TestCheckerDetectsGoldenMismatch: writing memory behind the system's
// back breaks the golden-image invariant.
func TestCheckerDetectsGoldenMismatch(t *testing.T) {
	_, mem, c0, _, checker := rig(t, protocols.MOESI(), protocols.MOESI())
	if err := c0.WriteWord(2, 0, 0x77); err != nil {
		t.Fatal(err)
	}
	if err := c0.Flush(2); err != nil {
		t.Fatal(err)
	}
	// Corrupt memory directly (a "board" writing without the bus).
	mem.WriteLine(2, make([]byte, lineSize))
	vs := checker.Check()
	found := false
	for _, v := range vs {
		if strings.Contains(v.Reason, "golden") {
			found = true
		}
	}
	if !found {
		t.Errorf("golden mismatch not detected: %v", vs)
	}
}

// TestCheckerDetectsStaleMemoryWithoutOwner: an S copy differing from
// memory with no owner anywhere is a lost write-back.
func TestCheckerDetectsStaleMemoryWithoutOwner(t *testing.T) {
	_, mem, c0, _, checker := rig(t, protocols.MOESI(), protocols.MOESI())
	if _, err := c0.ReadWord(4, 0); err != nil {
		t.Fatal(err)
	}
	// Memory changes under a clean E copy.
	line := make([]byte, lineSize)
	line[0] = 0xEE
	mem.WriteLine(4, line)
	vs := checker.Check()
	if len(vs) == 0 {
		t.Fatal("stale unowned copy not detected")
	}
}

// TestViolationString: locations are human-readable.
func TestViolationString(t *testing.T) {
	v := Violation{Addr: 0x40, Reason: "broken"}
	if got := v.String(); !strings.Contains(got, "0x40") || !strings.Contains(got, "broken") {
		t.Errorf("violation renders %q", got)
	}
}
