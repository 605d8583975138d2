package check

import (
	"bytes"
	"encoding/binary"
	"fmt"
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

// TestViolationString: locations are human-readable, and the breached
// invariant is named by its section.
func TestViolationString(t *testing.T) {
	v := Violation{Addr: 0x40, Invariant: core.SingleImage, Reason: "broken"}
	if got := v.String(); got != "line 0x40: §3.1.1 single-valued image: broken" {
		t.Errorf("violation renders %q", got)
	}
}

// copySpec is one cache's copy in an enumerated snapshot.
type copySpec struct {
	state core.State
	stale bool
}

// snapshots calls fn with every multiset of up to three copies over
// {S, E, O, M} × {current, stale}, with memory current and stale: 330
// snapshots.
func snapshots(fn func(copies []copySpec, memStale bool)) {
	var kinds []copySpec
	for _, s := range []core.State{core.Shared, core.Exclusive, core.Owned, core.Modified} {
		kinds = append(kinds, copySpec{s, false}, copySpec{s, true})
	}
	var grow func(from int, set []copySpec)
	grow = func(from int, set []copySpec) {
		fn(set, false)
		fn(set, true)
		if len(set) < 3 {
			for k := from; k < len(kinds); k++ {
				grow(k, append(set[:len(set):len(set)], kinds[k]))
			}
		}
	}
	grow(0, nil)
}

// oneLine is a LineSource holding one line.
type oneLine struct {
	id    int
	addr  bus.Addr
	state core.State
	data  []byte
}

func (c oneLine) ID() int { return c.id }

func (c oneLine) ForEachLine(fn func(bus.Addr, core.State, []byte)) { fn(c.addr, c.state, c.data) }

// word returns a line whose first word is v.
func word(v uint32) []byte {
	line := make([]byte, lineSize)
	binary.LittleEndian.PutUint32(line, v)
	return line
}

// staleness is how an enumerated snapshot's stale copies and stale
// memory differ from the last write (word 1): all alike, each its own
// value, or stale copies alike and memory apart.
var staleness = []struct {
	name       string
	copy       func(i int) uint32
	memoryWord uint32
}{
	{"alike", func(int) uint32 { return 2 }, 2},
	{"distinct", func(i int) uint32 { return uint32(10 + i) }, 9},
	{"memory apart", func(int) uint32 { return 2 }, 9},
}

// snapshot builds the checker of one enumerated snapshot at addr: the
// program last wrote word 1 (recorded in a golden shadow when golden is
// set), each copy holds it or a stale value, and so does memory.
func snapshot(copies []copySpec, memStale, golden bool, addr bus.Addr, stale func(int) uint32, memWord uint32) *Checker {
	mem := memory.New(lineSize)
	c := &Checker{Memory: mem}
	if memStale {
		mem.WriteLine(addr, word(memWord))
	} else {
		mem.WriteLine(addr, word(1))
	}
	if golden {
		c.Shadow = NewShadow(lineSize)
		c.Shadow.OnWrite(addr, 0, 1)
	}
	for i, cp := range copies {
		data := word(1)
		if cp.stale {
			data = word(stale(i))
		}
		c.Caches = append(c.Caches, oneLine{id: i, addr: addr, state: cp.state, data: data})
	}
	return c
}

// TestCheckMatchesCore: with a golden shadow, the checker reports on
// every snapshot exactly the §3.1 invariants core's predicate names.
func TestCheckMatchesCore(t *testing.T) {
	for _, st := range staleness {
		snapshots(func(copies []copySpec, memStale bool) {
			want := core.Copies{MemStale: memStale}
			for _, cp := range copies {
				want.Add(cp.state, cp.stale)
			}
			var got core.Invariant
			for _, v := range snapshot(copies, memStale, true, 0x40, st.copy, st.memoryWord).Check() {
				got |= v.Invariant
			}
			if got != want.Breaches() {
				t.Errorf("%s: copies %v, memory stale %t: checker reports %q, core %q",
					st.name, copies, memStale, got, want.Breaches())
			}
		})
	}
}

// TestCheckFlagsWhatTheSixChecksFlagged: on every snapshot, with and
// without a golden shadow, the checker flags a line exactly when the
// six separate checks it was built from did (referenceCheckLine).
func TestCheckFlagsWhatTheSixChecksFlagged(t *testing.T) {
	const addr = 0x40
	for _, golden := range []bool{false, true} {
		for _, st := range staleness {
			n := 0
			snapshots(func(copies []copySpec, memStale bool) {
				n++
				c := snapshot(copies, memStale, golden, addr, st.copy, st.memoryWord)
				var infos []copyInfo
				for _, src := range c.Caches {
					src.ForEachLine(func(_ bus.Addr, s core.State, data []byte) {
						infos = append(infos, copyInfo{cacheID: src.ID(), state: s, data: data})
					})
				}
				got, want := len(c.Check()) > 0, len(referenceCheckLine(c, addr, infos)) > 0
				if got != want {
					t.Errorf("golden %t, %s: copies %v, memory stale %t: flagged %t, the six checks %t",
						golden, st.name, copies, memStale, got, want)
				}
			})
			if n != 330 {
				t.Errorf("%d snapshots, want 330", n)
			}
		}
	}
}

// referenceCheckLine is the checker's per-line judgement before it
// asked core's predicate: six separate checks, kept as the reference
// the summary's verdict must match.
func referenceCheckLine(c *Checker, addr bus.Addr, copies []copyInfo) []string {
	var out []string
	bad := func(format string, args ...any) { out = append(out, fmt.Sprintf(format, args...)) }
	var owners, exclusives []copyInfo
	for _, cp := range copies {
		if cp.state.OwnedCopy() {
			owners = append(owners, cp)
		}
		if cp.state.ExclusiveCopy() {
			exclusives = append(exclusives, cp)
		}
	}
	// 1. Unique ownership.
	if len(owners) > 1 {
		bad("owned by %d caches", len(owners))
	}
	// 2. Real exclusivity.
	if len(exclusives) > 0 && len(copies) > 1 {
		bad("cache %d claims exclusivity", exclusives[0].cacheID)
	}
	// 3. Single-valued image across caches.
	for _, cp := range copies[min(1, len(copies)):] {
		if !bytes.Equal(cp.data, copies[0].data) {
			bad("caches %d and %d hold divergent copies", copies[0].cacheID, cp.cacheID)
			break
		}
	}
	memLine := c.Memory.Peek(addr)
	// 4. Unowned implies memory-valid.
	if len(owners) == 0 {
		for _, cp := range copies {
			if !bytes.Equal(cp.data, memLine) {
				bad("no owner, but cache %d differs from memory", cp.cacheID)
				break
			}
		}
	}
	// 5. E matches memory.
	for _, cp := range copies {
		if cp.state == core.Exclusive && !bytes.Equal(cp.data, memLine) {
			bad("cache %d holds E but differs from memory", cp.cacheID)
		}
	}
	// 6. Golden image.
	if c.Shadow != nil {
		image := memLine
		if len(owners) > 0 {
			image = owners[0].data
		}
		if !bytes.Equal(image, c.Shadow.Line(addr)) {
			bad("image differs from golden record of writes")
		}
	}
	return out
}
