package workload

import (
	"bytes"
	"math"
	"testing"
	"testing/quick"
)

// TestRNGDeterminism: same seed, same stream; different seeds diverge.
func TestRNGDeterminism(t *testing.T) {
	a, b := NewRNG(5), NewRNG(5)
	for i := 0; i < 100; i++ {
		if a.Next() != b.Next() {
			t.Fatal("same seed diverged")
		}
	}
	c, d := NewRNG(5), NewRNG(6)
	same := 0
	for i := 0; i < 100; i++ {
		if c.Next() == d.Next() {
			same++
		}
	}
	if same > 2 {
		t.Errorf("different seeds coincide %d/100 times", same)
	}
	// Seed 0 is remapped, not degenerate.
	z := NewRNG(0)
	if z.Next() == 0 && z.Next() == 0 {
		t.Error("zero seed produced zeros")
	}
}

// TestRNGRanges: Intn and Float64 stay in range for all draws.
func TestRNGRanges(t *testing.T) {
	r := NewRNG(11)
	for i := 0; i < 10000; i++ {
		if v := r.Intn(7); v < 0 || v >= 7 {
			t.Fatalf("Intn out of range: %d", v)
		}
		if f := r.Float64(); f < 0 || f >= 1 {
			t.Fatalf("Float64 out of range: %g", f)
		}
	}
	if r.Intn(1) != 0 {
		t.Error("Intn(1) != 0")
	}
}

// TestRNGBoolFrequency: Bool(p) hits roughly p.
func TestRNGBoolFrequency(t *testing.T) {
	r := NewRNG(3)
	const n = 20000
	hits := 0
	for i := 0; i < n; i++ {
		if r.Bool(0.3) {
			hits++
		}
	}
	got := float64(hits) / n
	if math.Abs(got-0.3) > 0.02 {
		t.Errorf("Bool(0.3) frequency = %.3f", got)
	}
}

// TestModelValidation rejects bad parameters.
func TestModelValidation(t *testing.T) {
	base := Model{SharedLines: 8, PrivateLines: 8, WordsPerLine: 8, PShared: 0.5, PWrite: 0.5}
	if _, err := NewModel(base, 1); err != nil {
		t.Fatalf("valid model rejected: %v", err)
	}
	bad := []Model{
		{SharedLines: 0, PrivateLines: 8, WordsPerLine: 8},
		{SharedLines: 8, PrivateLines: 8, WordsPerLine: 0},
		{SharedLines: 8, PrivateLines: 8, WordsPerLine: 8, PShared: 1.5},
		{SharedLines: 8, PrivateLines: 8, WordsPerLine: 8, PWrite: -0.1},
		{SharedLines: 8, PrivateLines: 8, WordsPerLine: 8, Locality: 2},
	}
	for i, m := range bad {
		if _, err := NewModel(m, 1); err == nil {
			t.Errorf("bad model %d accepted", i)
		}
	}
}

// TestModelDistribution: the generated stream respects the model's
// probabilities and address regions.
func TestModelDistribution(t *testing.T) {
	m := Model{
		Proc: 2, SharedLines: 16, PrivateLines: 32, WordsPerLine: 8,
		PShared: 0.4, PWrite: 0.25,
	}
	g := MustModel(m, 77)
	const n = 40000
	shared, writes := 0, 0
	for i := 0; i < n; i++ {
		ref := g.Next()
		if ref.Word < 0 || ref.Word >= 8 {
			t.Fatalf("word out of range: %d", ref.Word)
		}
		if ref.Line >= sharedBase {
			shared++
			if ref.Line >= sharedBase+16 {
				t.Fatalf("shared line out of range: %#x", ref.Line)
			}
		} else {
			if ref.Line < privateBase(2) || ref.Line >= privateBase(2)+32 {
				t.Fatalf("private line out of range: %#x", ref.Line)
			}
		}
		if ref.Write {
			writes++
			if ref.Val == 0 {
				t.Fatal("write with zero value (golden image cannot distinguish)")
			}
		}
	}
	if got := float64(shared) / n; math.Abs(got-0.4) > 0.02 {
		t.Errorf("shared fraction = %.3f", got)
	}
	if got := float64(writes) / n; math.Abs(got-0.25) > 0.02 {
		t.Errorf("write fraction = %.3f", got)
	}
}

// TestModelPrivateRegionsDisjoint: two processors' private references
// never collide.
func TestModelPrivateRegionsDisjoint(t *testing.T) {
	m := Model{SharedLines: 4, PrivateLines: 1 << 19, WordsPerLine: 8, PShared: 0, PWrite: 0.5}
	m.Proc = 0
	g0 := MustModel(m, 5)
	m.Proc = 1
	g1 := MustModel(m, 5)
	seen0 := map[uint64]bool{}
	for i := 0; i < 5000; i++ {
		seen0[g0.Next().Line] = true
	}
	for i := 0; i < 5000; i++ {
		if seen0[g1.Next().Line] {
			t.Fatal("private regions overlap")
		}
	}
}

// TestModelLocality: with high locality, consecutive repeats are
// frequent.
func TestModelLocality(t *testing.T) {
	m := Model{SharedLines: 64, PrivateLines: 64, WordsPerLine: 8, PShared: 0.5, PWrite: 0.3, Locality: 0.8}
	g := MustModel(m, 3)
	prev := g.Next()
	repeats := 0
	const n = 20000
	for i := 0; i < n; i++ {
		cur := g.Next()
		if cur.Line == prev.Line {
			repeats++
		}
		prev = cur
	}
	if got := float64(repeats) / n; got < 0.7 {
		t.Errorf("repeat fraction = %.3f, want ≥0.7", got)
	}
}

// TestTraceRoundTrip: the binary codec is lossless.
func TestTraceRoundTrip(t *testing.T) {
	g := MustModel(Model{SharedLines: 8, PrivateLines: 8, WordsPerLine: 8, PShared: 0.5, PWrite: 0.5}, 1)
	trace := Record(g, 500)
	var buf bytes.Buffer
	if _, err := trace.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := ReadTrace(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(trace) {
		t.Fatalf("length %d != %d", len(got), len(trace))
	}
	for i := range trace {
		if got[i] != trace[i] {
			t.Fatalf("ref %d: %v != %v", i, got[i], trace[i])
		}
	}
}

// TestTraceRoundTripProperty: arbitrary refs survive the codec.
func TestTraceRoundTripProperty(t *testing.T) {
	f := func(lines []uint64, words []uint8, vals []uint32) bool {
		n := len(lines)
		if len(words) < n {
			n = len(words)
		}
		if len(vals) < n {
			n = len(vals)
		}
		trace := make(Trace, n)
		for i := 0; i < n; i++ {
			trace[i] = Ref{
				Line:  lines[i],
				Word:  int(words[i]) % 64,
				Write: vals[i]%2 == 0,
				Val:   vals[i],
			}
		}
		var buf bytes.Buffer
		if _, err := trace.WriteTo(&buf); err != nil {
			return false
		}
		got, err := ReadTrace(&buf)
		if err != nil || len(got) != n {
			return false
		}
		for i := range trace {
			if got[i] != trace[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// TestTraceRejectsJunk: bad magic and truncation are detected.
func TestTraceRejectsJunk(t *testing.T) {
	if _, err := ReadTrace(bytes.NewReader([]byte{1, 2, 3, 4, 5, 6, 7, 8})); err == nil {
		t.Error("bad magic accepted")
	}
	var buf bytes.Buffer
	trace := Trace{{Line: 1, Word: 2, Write: true, Val: 3}}
	if _, err := trace.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	trunc := buf.Bytes()[:buf.Len()-2]
	if _, err := ReadTrace(bytes.NewReader(trunc)); err == nil {
		t.Error("truncated trace accepted")
	}
}

// TestReplayCycles: a replay generator wraps around.
func TestReplayCycles(t *testing.T) {
	trace := Trace{{Line: 1}, {Line: 2}, {Line: 3}}
	r := NewReplay(trace)
	for round := 0; round < 3; round++ {
		for _, want := range trace {
			if got := r.Next(); got != want {
				t.Fatalf("round %d: %v != %v", round, got, want)
			}
		}
	}
}

// TestPatternsWellFormed: every structured pattern stays within its
// shared region and word bounds, and produces both reads and writes
// where designed to.
func TestPatternsWellFormed(t *testing.T) {
	const words = 8
	gens := map[string]Generator{
		"migratory":   NewMigratory(1, 4, 8, 4, words, 2),
		"producer":    NewProducerConsumer(0, 8, words, 2),
		"consumer":    NewProducerConsumer(3, 8, words, 2),
		"read-mostly": NewReadMostly(2, 8, words, 0.1, 2),
		"ping-pong":   NewPingPong(1, 4, words, 2),
	}
	for name, g := range gens {
		reads, writes := 0, 0
		for i := 0; i < 5000; i++ {
			ref := g.Next()
			if ref.Line < sharedBase || ref.Line >= sharedBase+64 {
				t.Fatalf("%s: line %#x outside shared region", name, ref.Line)
			}
			if ref.Word < 0 || ref.Word >= words {
				t.Fatalf("%s: word %d", name, ref.Word)
			}
			if ref.Write {
				writes++
				if ref.Val == 0 {
					t.Fatalf("%s: zero write value", name)
				}
			} else {
				reads++
			}
		}
		switch name {
		case "producer":
			if reads != 0 {
				t.Errorf("producer read %d times", reads)
			}
		case "consumer":
			if writes != 0 {
				t.Errorf("consumer wrote %d times", writes)
			}
		default:
			if reads == 0 || writes == 0 {
				t.Errorf("%s: reads=%d writes=%d", name, reads, writes)
			}
		}
	}
}

// TestMigratoryPhases: a migratory stream dwells on one line for the
// burst, then moves.
func TestMigratoryPhases(t *testing.T) {
	g := NewMigratory(0, 2, 8, 5, 8, 1)
	cur := g.Next().Line
	run := 1
	maxRun := 1
	for i := 0; i < 1000; i++ {
		ref := g.Next()
		if ref.Line == cur {
			run++
		} else {
			cur, run = ref.Line, 1
		}
		if run > maxRun {
			maxRun = run
		}
	}
	if maxRun < 8 {
		t.Errorf("longest dwell = %d refs, migratory bursts missing", maxRun)
	}
}

// TestZipfSkew: the hot line dominates and the skew grows with s.
func TestZipfSkew(t *testing.T) {
	count := func(s float64) float64 {
		g := NewZipf(0, 64, 8, s, 0.3, 5)
		hot := 0
		const n = 20000
		for i := 0; i < n; i++ {
			if g.Next().Line == sharedBase {
				hot++
			}
		}
		return float64(hot) / n
	}
	uniform := count(0)
	skewed := count(1.0)
	verySkewed := count(1.5)
	if math.Abs(uniform-1.0/64) > 0.01 {
		t.Errorf("s=0 hot fraction %.4f, want ≈%.4f", uniform, 1.0/64)
	}
	if !(skewed > 4*uniform) {
		t.Errorf("s=1 hot fraction %.4f not well above uniform %.4f", skewed, uniform)
	}
	if !(verySkewed > skewed) {
		t.Errorf("skew not monotone: s=1.5 %.4f vs s=1 %.4f", verySkewed, skewed)
	}
}

// TestZipfBounds: lines stay in range, values non-zero on writes.
func TestZipfBounds(t *testing.T) {
	g := NewZipf(2, 16, 4, 1.2, 0.5, 9)
	for i := 0; i < 5000; i++ {
		ref := g.Next()
		if ref.Line < sharedBase || ref.Line >= sharedBase+16 {
			t.Fatalf("line %#x", ref.Line)
		}
		if ref.Word < 0 || ref.Word >= 4 {
			t.Fatalf("word %d", ref.Word)
		}
		if ref.Write && ref.Val == 0 {
			t.Fatal("zero write value")
		}
	}
}
