package workload

import (
	"bytes"
	"encoding/binary"
	"runtime"
	"testing"
)

// FuzzReadTrace: any input either fails to decode or decodes to a trace
// that WriteTo encodes back to the input's first bytes, which must hold
// every reference the header counted. The seeds in
// testdata/fuzz/FuzzReadTrace are a header alone that claims 2^20
// references, an empty trace, one reference, a truncated reference and
// the magic's bytes in the wrong order.
func FuzzReadTrace(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		tr, err := ReadTrace(bytes.NewReader(data))
		if err != nil {
			return
		}
		if n := 12 + 16*len(tr); n > len(data) {
			t.Fatalf("%d references from %d bytes", len(tr), len(data))
		}
		var buf bytes.Buffer
		if _, err := tr.WriteTo(&buf); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(buf.Bytes(), data[:buf.Len()]) {
			t.Fatalf("re-encoding differs:\n got %x\nwant %x", buf.Bytes(), data[:buf.Len()])
		}
	})
}

// TestReadTraceHeaderOnly: a 12-byte file whose header claims 2^20
// references fails at the first missing one and allocates under 64 KiB
// on the way, not the 24 MiB the count would ask for.
func TestReadTraceHeaderOnly(t *testing.T) {
	hdr := binary.LittleEndian.AppendUint64(binary.LittleEndian.AppendUint32(nil, traceMagic), 1<<20)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, err := ReadTrace(bytes.NewReader(hdr))
	runtime.ReadMemStats(&after)
	if err == nil {
		t.Fatal("a header with no references decoded")
	}
	if got := after.TotalAlloc - before.TotalAlloc; got >= 64<<10 {
		t.Errorf("allocated %d B reading a 12-byte file", got)
	}
}
