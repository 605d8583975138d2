package obs

import "testing"

// TestLineTable: Add keys a line by bus and address, adds it once and
// returns the same storage after; Get finds only added lines; the limit
// stops Add, not Get; Each visits the lines in the order they came.
func TestLineTable(t *testing.T) {
	var tab LineTable[int]
	if tab.Get(0, 0x40) != nil || tab.Len() != 0 {
		t.Fatalf("empty table: len %d", tab.Len())
	}
	type key struct {
		bus  int32
		addr uint64
	}
	var keys []key
	var vals []*int
	for i := 0; i < 3*lineChunk+5; i++ {
		k := key{int32(i % 3), uint64(i/3) * 0x40} // three buses per address
		v, added := tab.Add(k.bus, k.addr, 1<<20)
		if !added || *v != 0 {
			t.Fatalf("line %v: added %t, value %d", k, added, *v)
		}
		*v = i
		keys, vals = append(keys, k), append(vals, v)
	}
	for i, k := range keys {
		if v := tab.Get(k.bus, k.addr); v != vals[i] || *v != i {
			t.Fatalf("line %v: Get = %p, want %p holding %d", k, v, vals[i], i)
		}
		if v, added := tab.Add(k.bus, k.addr, 0); added || v != vals[i] {
			t.Fatalf("line %v: re-Add = %p (added %t), want %p", k, v, added, vals[i])
		}
	}
	if tab.Get(3, 0) != nil || tab.Get(0, 0x41) != nil {
		t.Error("Get found a line never added")
	}
	if v, added := tab.Add(3, 0, tab.Len()); v != nil || added {
		t.Error("Add passed its limit")
	}
	i := 0
	tab.Each(func(bus int32, addr uint64, v *int) {
		if (key{bus, addr}) != keys[i] || *v != i {
			t.Fatalf("Each line %d: %v = %d, want %v = %d", i, key{bus, addr}, *v, keys[i], i)
		}
		i++
	})
	if i != len(keys) || tab.Len() != len(keys) {
		t.Errorf("Each visited %d lines, Len %d, want %d", i, tab.Len(), len(keys))
	}
}

// TestArena: Make carves zeroed slices whose capacity is their length,
// so an append to one copies instead of writing into the next; a
// request larger than a chunk gets a chunk of its own.
func TestArena(t *testing.T) {
	var a Arena[int64]
	x, y := a.Make(3), a.Make(3)
	if len(x) != 3 || cap(x) != 3 || x[0]|x[1]|x[2] != 0 {
		t.Fatalf("Make(3) = %v (cap %d)", x, cap(x))
	}
	y[0] = 7
	x = append(x, 1)
	if y[0] != 7 {
		t.Errorf("an append to one carved slice wrote into the next: %v %v", x, y)
	}
	if big := a.Make(arenaBytes); len(big) != arenaBytes || cap(big) != arenaBytes {
		t.Errorf("Make(%d): len %d cap %d", arenaBytes, len(big), cap(big))
	}
}

// TestLineTableAllocs: adding n lines allocates no more than an index
// of n lines does on its own, plus one chunk per 64 lines and the
// doubling of the chunk list; finding them again allocates nothing.
func TestLineTableAllocs(t *testing.T) {
	const n = 1000
	var index map[uint64]int32
	perIndex := testing.AllocsPerRun(10, func() {
		index = make(map[uint64]int32)
		for i := 0; i < n; i++ {
			index[uint64(i)*0x40] = int32(i)
		}
	})
	var tab LineTable[[4]int64]
	perTable := testing.AllocsPerRun(10, func() {
		tab = LineTable[[4]int64]{}
		for i := 0; i < n; i++ {
			tab.Add(0, uint64(i)*0x40, n)
		}
	})
	chunks := (n + lineChunk - 1) / lineChunk
	list := 0
	for c := 1; c < chunks; c *= 2 {
		list++
	}
	if perTable > perIndex+float64(chunks+list+1) {
		t.Errorf("adding %d lines made %.0f allocations; the index alone makes %.0f, the %d chunks and their list at most %d more",
			n, perTable, perIndex, chunks, chunks+list+1)
	}
	if found := testing.AllocsPerRun(10, func() {
		for i := 0; i < n; i++ {
			tab.Get(0, uint64(i)*0x40)[0]++
		}
	}); found != 0 {
		t.Errorf("finding %d lines made %.0f allocations", n, found)
	}
}
