package memory

import (
	"bytes"
	"math/bits"
	"slices"
	"testing"

	"futurebus/internal/bus"
)

// TestLineStore: Add stores a zeroed line once and returns the same
// storage after; Line finds only stored lines; Len and AppendAddrs
// list them.
func TestLineStore(t *testing.T) {
	s := NewLineStore(8)
	if s.Line(3) != nil || s.Len() != 0 {
		t.Fatalf("empty store: line %x, len %d", s.Line(3), s.Len())
	}
	var want []bus.Addr
	for i := 0; i < 3*chunkLines+5; i++ {
		addr := bus.Addr(i * 97)
		line := s.Add(addr)
		if !bytes.Equal(line, make([]byte, 8)) {
			t.Fatalf("new line %#x = %x, want zeroes", addr, line)
		}
		line[0] = byte(i)
		want = append(want, addr)
	}
	for i, addr := range want {
		if got := s.Line(addr); len(got) != 8 || got[0] != byte(i) || cap(got) != 8 {
			t.Fatalf("line %#x = %x (cap %d)", addr, got, cap(got))
		}
		if got := s.Add(addr); got[0] != byte(i) {
			t.Fatalf("re-add of %#x = %x", addr, got)
		}
	}
	got := s.AppendAddrs(nil)
	slices.Sort(got)
	if s.Len() != len(want) || !slices.Equal(got, want) {
		t.Errorf("len %d, addrs %v, want %v", s.Len(), got, want)
	}
}

var storeSink LineStore
var indexSink map[bus.Addr]int32

// TestLineStoreAllocs pins the store's allocations: storing n new lines
// allocates no more than an index of n lines does on its own, plus one
// chunk per 64 lines and the doubling of the chunk list; rewriting a
// stored line allocates nothing.
func TestLineStoreAllocs(t *testing.T) {
	const n = 1000
	addrs := make([]bus.Addr, n)
	for i := range addrs {
		addrs[i] = bus.Addr(i * 7919)
	}
	index := testing.AllocsPerRun(10, func() {
		indexSink = make(map[bus.Addr]int32)
		for i, addr := range addrs {
			indexSink[addr] = int32(i)
		}
	})
	store := testing.AllocsPerRun(10, func() {
		storeSink = NewLineStore(32)
		for _, addr := range addrs {
			storeSink.Add(addr)
		}
	})
	chunks := (n + chunkLines - 1) / chunkLines
	list := bits.Len(uint(chunks-1)) + 1
	if store > index+float64(chunks+list) {
		t.Errorf("storing %d lines made %.0f allocations; the index alone makes %.0f, the %d chunks and their list at most %d more",
			n, store, index, chunks, chunks+list)
	}
	if rewrite := testing.AllocsPerRun(10, func() {
		for _, addr := range addrs {
			storeSink.Add(addr)[0]++
		}
	}); rewrite != 0 {
		t.Errorf("rewriting %d stored lines made %.0f allocations", n, rewrite)
	}
}
