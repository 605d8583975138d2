package memory

import (
	"bytes"
	"testing"
	"testing/quick"

	"futurebus/internal/bus"
)

// readLine reads a line into a fresh buffer.
func readLine(m *Memory, addr bus.Addr) []byte {
	dst := make([]byte, m.LineSize())
	m.ReadLine(addr, dst)
	return dst
}

// TestPowerOnDefault: unwritten lines read as zero — "in the absence of
// information to the contrary, data in shared memory is defined to be
// valid (e.g. at power-on)" (§3.1.1) — whatever the caller's buffer
// held before.
func TestPowerOnDefault(t *testing.T) {
	m := New(32)
	line := bytes.Repeat([]byte{0x5A}, 32)
	m.ReadLine(0x123, line)
	if !bytes.Equal(line, make([]byte, 32)) {
		t.Errorf("power-on line = %x", line)
	}
}

// TestWriteReadPeek: writes persist; Peek does not count as a read.
func TestWriteReadPeek(t *testing.T) {
	m := New(16)
	data := bytes.Repeat([]byte{0xAB}, 16)
	m.WriteLine(7, data)
	if got := readLine(m, 7); !bytes.Equal(got, data) {
		t.Errorf("read back %x", got)
	}
	if got := m.Peek(7); !bytes.Equal(got, data) {
		t.Errorf("peek %x", got)
	}
	st := m.Stats()
	if st.Reads != 1 || st.Writes != 1 {
		t.Errorf("stats %+v (Peek must not count)", st)
	}
	if n := m.lines.Len(); n != 1 {
		t.Errorf("populated = %d", n)
	}
}

// TestReturnedSlicesAreCopies: callers cannot alias memory's storage.
func TestReturnedSlicesAreCopies(t *testing.T) {
	m := New(8)
	data := []byte{1, 2, 3, 4, 5, 6, 7, 8}
	m.WriteLine(1, data)
	got := readLine(m, 1)
	got[0] = 0xFF
	data[1] = 0xEE
	if fresh := readLine(m, 1); fresh[0] == 0xFF || fresh[1] == 0xEE {
		t.Errorf("memory aliased caller slices: %x", fresh)
	}
}

// TestWriteLineInPlace: rewriting a stored line allocates nothing — the
// line is updated in place.
func TestWriteLineInPlace(t *testing.T) {
	m := New(32)
	data := make([]byte, 32)
	m.WriteLine(9, data)
	dst := make([]byte, 32)
	if allocs := testing.AllocsPerRun(100, func() {
		data[0]++
		m.WriteLine(9, data)
		m.ReadLine(9, dst)
	}); allocs != 0 {
		t.Errorf("rewrite + read allocated %.1f times", allocs)
	}
	if dst[0] != data[0] {
		t.Errorf("read back %x, wrote %x", dst[0], data[0])
	}
}

// TestWriteSizePanics: the §5.1 standard line size is enforced.
func TestWriteSizePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("short write accepted")
		}
	}()
	New(32).WriteLine(0, make([]byte, 16))
}

// TestBadLineSizePanics: a memory module needs a positive line size.
func TestBadLineSizePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("zero line size accepted")
		}
	}()
	New(0)
}

// TestLastWriteWinsProperty: memory is a map of lines — the last write
// to an address is what any later read returns.
func TestLastWriteWinsProperty(t *testing.T) {
	f := func(writes []uint16) bool {
		m := New(8)
		last := map[bus.Addr][]byte{}
		for i, w := range writes {
			addr := bus.Addr(w % 16)
			line := bytes.Repeat([]byte{byte(i)}, 8)
			m.WriteLine(addr, line)
			last[addr] = line
		}
		for addr, want := range last {
			if !bytes.Equal(readLine(m, addr), want) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
