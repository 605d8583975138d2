package obs

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"math"
	"strings"
	"testing"

	"futurebus/internal/core"
)

// fbtSampleEvents exercises every field, including values the varint
// layer must reproduce exactly: negative ids, max-range durations,
// out-of-order sequence numbers (wraparound deltas) and a kind outside
// the seed dictionary.
func fbtSampleEvents() []Event {
	return []Event{
		{Seq: 0, TS: 0, Kind: KindGrant, Bus: 0, Proc: 3, Addr: 0x40, TxID: 1},
		{Seq: 1, TS: 100, Dur: 645, Kind: KindTx, Bus: 0, Proc: 3, Addr: 0x40,
			Col: 7, Op: OpWrite, CH: true, DI: true, SL: true, Retries: 2, Bytes: 32,
			ArbNS: 50, AddrNS: 125, DataNS: 320, IntvNS: 60, MemNS: 140, RetryNS: 250,
			TxID: 1, CauseID: 0},
		{Seq: 2, TS: 745, Kind: KindState, Bus: -1, Proc: 0, Addr: 0x40,
			From: core.Invalid, To: core.Modified, Cause: CauseWriteUpgrade},
		{Seq: 3, TS: 745, Dur: 90, Kind: KindBlocked, Bus: 0, Proc: 2, Addr: 0x80, CauseID: 1},
		{Seq: 4, TS: 800, Kind: KindAbort, Bus: 1, Proc: -1, Addr: math.MaxUint64, TxID: 2},
		{Seq: 5, TS: 810, Kind: KindRecover, Bus: 1, Proc: 4, Addr: 0x80, TxID: 2, CauseID: 9},
		// Out-of-order Seq/TS: deltas wrap around and must still decode
		// to the exact values.
		{Seq: 3, TS: -500, Dur: math.MaxInt64, Kind: KindState, Bus: -1, Proc: -1,
			Addr: 1, Op: OpAddr, From: core.Exclusive, To: core.Shared, Cause: CauseSnoop},
		{Seq: math.MaxUint64, TS: math.MinInt64, Dur: -1, Kind: KindEpoch,
			Bus: 255, Proc: 1024, Addr: 0, Retries: -3, Bytes: -64,
			ArbNS: math.MinInt64, RetryNS: math.MaxInt64, TxID: math.MaxUint64, CauseID: math.MaxUint64},
		{Seq: 0, TS: 0, Kind: KindMemWrite, Bus: 0, Proc: 0, Addr: 0xffff, Bytes: 32},
	}
}

func encodeFBT(t testing.TB, meta TraceMeta, events []Event) []byte {
	t.Helper()
	var buf bytes.Buffer
	sink := NewRecordSink(&buf, meta)
	for i := range events {
		sink.Consume(&events[i])
	}
	if err := sink.Flush(); err != nil {
		t.Fatalf("flush: %v", err)
	}
	return buf.Bytes()
}

// TestTraceRoundTrip is the golden-path guarantee: record → replay →
// the JSONL re-export is byte-identical to a JSONL export of the live
// stream, i.e. the codec loses nothing.
func TestTraceRoundTrip(t *testing.T) {
	events := fbtSampleEvents()
	meta := TraceMeta{Fingerprint: "test fingerprint seed=1"}
	raw := encodeFBT(t, meta, events)

	var live bytes.Buffer
	liveSink := NewJSONLSink(&live)
	for i := range events {
		liveSink.Consume(&events[i])
	}
	if err := liveSink.Flush(); err != nil {
		t.Fatal(err)
	}

	var replayed bytes.Buffer
	replaySink := NewJSONLSink(&replayed)
	gotMeta, n, err := ReplayTrace(bytes.NewReader(raw), replaySink)
	if err != nil {
		t.Fatalf("replay: %v", err)
	}
	if err := replaySink.Flush(); err != nil {
		t.Fatal(err)
	}
	if gotMeta != meta {
		t.Errorf("meta = %+v, want %+v", gotMeta, meta)
	}
	if n != int64(len(events)) {
		t.Errorf("replayed %d events, want %d", n, len(events))
	}
	if !bytes.Equal(live.Bytes(), replayed.Bytes()) {
		t.Errorf("JSONL re-export diverged:\nlive:\n%s\nreplayed:\n%s", live.String(), replayed.String())
	}
}

// TestTraceRoundTripStructs compares the decoded events field by field
// (JSONL equality would hide omitempty-invisible fields).
func TestTraceRoundTripStructs(t *testing.T) {
	events := fbtSampleEvents()
	raw := encodeFBT(t, TraceMeta{}, events)
	tr, err := NewTraceReader(bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	for i := range events {
		var got Event
		if err := tr.Next(&got); err != nil {
			t.Fatalf("event %d: %v", i, err)
		}
		if got != events[i] {
			t.Errorf("event %d = %+v, want %+v", i, got, events[i])
		}
	}
	var e Event
	if err := tr.Next(&e); err != io.EOF {
		t.Errorf("after last event: err = %v, want io.EOF", err)
	}
}

// TestTraceDeterministicEncoding: the same event stream encodes to the
// same bytes (the dictionaries are seeded and deterministic), which is
// what lets CI compare two same-seed recordings with cmp.
func TestTraceDeterministicEncoding(t *testing.T) {
	events := fbtSampleEvents()
	a := encodeFBT(t, TraceMeta{Fingerprint: "x"}, events)
	b := encodeFBT(t, TraceMeta{Fingerprint: "x"}, events)
	if !bytes.Equal(a, b) {
		t.Error("identical event streams encoded differently")
	}
}

func TestTraceHeaderErrors(t *testing.T) {
	valid := encodeFBT(t, TraceMeta{Fingerprint: "fp"}, fbtSampleEvents())
	cases := []struct {
		name string
		data []byte
		want string
	}{
		{"empty", nil, "header"},
		{"bad magic", []byte("NOPE"), "not an .fbt trace"},
		{"truncated magic", []byte("FB"), "header"},
		{"bad version", append([]byte(TraceMagic), 0x7f), "unsupported .fbt schema version"},
		{"truncated fingerprint", append([]byte(TraceMagic), 1, 200), "fingerprint"},
		{"oversized string", append([]byte(TraceMagic), 1, 0xff, 0xff, 0xff, 0x7f), "exceeds limit"},
		{"truncated kind table", valid[:len(TraceMagic)+3], "header"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := NewTraceReader(bytes.NewReader(tc.data))
			if err == nil {
				t.Fatal("NewTraceReader accepted corrupt header")
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Errorf("err = %q, want substring %q", err, tc.want)
			}
		})
	}
}

// TestTraceTruncation: cutting a valid trace anywhere past the header
// must yield a decode error (io.ErrUnexpectedEOF wrapped), never a
// silent clean EOF mid-event and never a panic.
func TestTraceTruncation(t *testing.T) {
	events := fbtSampleEvents()
	raw := encodeFBT(t, TraceMeta{Fingerprint: "fp"}, events)

	// The header length is the length of an empty trace with the same
	// metadata.
	hdr := len(encodeFBT(t, TraceMeta{Fingerprint: "fp"}, nil))

	for cut := hdr + 1; cut < len(raw); cut++ {
		tr, err := NewTraceReader(bytes.NewReader(raw[:cut]))
		if err != nil {
			t.Fatalf("cut %d: header rejected: %v", cut, err)
		}
		var e Event
		var last error
		n := 0
		for {
			if last = tr.Next(&e); last != nil {
				break
			}
			if n++; n > len(events) {
				t.Fatalf("cut %d: decoded more events than recorded", cut)
			}
		}
		if last == io.EOF && n >= len(events) {
			t.Fatalf("cut %d: truncated stream decoded cleanly", cut)
		}
		if last != io.EOF && !errors.Is(last, io.ErrUnexpectedEOF) && !strings.Contains(last.Error(), "fbt event") {
			t.Fatalf("cut %d: unexpected error %v", cut, last)
		}
	}
}

// TestTraceBadRefs: dictionary references beyond the dictionary are
// rejected.
func TestTraceBadRefs(t *testing.T) {
	hdr := encodeFBT(t, TraceMeta{}, nil)
	// kindRef far past the 13-entry seed dictionary.
	bad := append(append([]byte{}, hdr...), 0x40)
	tr, err := NewTraceReader(bytes.NewReader(bad))
	if err != nil {
		t.Fatal(err)
	}
	var e Event
	if err := tr.Next(&e); err == nil || !strings.Contains(err.Error(), "beyond dictionary") {
		t.Errorf("out-of-range kind ref: err = %v, want beyond-dictionary error", err)
	}
}

// badTrace is a one-event trace whose field dictionary entry names no
// value of that field: the kind "custom-kind", the op "X", the from
// "zz", the to "yy" or the cause "novel".
func badTrace(t testing.TB, field string) []byte {
	t.Helper()
	entry := map[string]struct {
		kind uint64 // seed dictionary index, or len(seedKinds) for a new kind
		flag uint64
		str  string
	}{
		"kind":  {uint64(len(seedKinds)), 0, "custom-kind"},
		"op":    {0, fbtOp, "X"},
		"from":  {4, fbtFrom, "zz"},
		"to":    {4, fbtTo, "yy"},
		"cause": {4, fbtCause, "novel"},
	}[field]
	b := encodeFBT(t, TraceMeta{Fingerprint: "bad " + field}, nil)
	b = binary.AppendUvarint(b, entry.kind)
	if entry.flag == 0 {
		b = appendString(b, entry.str)
	}
	b = append(b, byte(entry.flag), 0, 0, 0, 0, 0) // flags, seq, ts, bus, proc, addr
	if entry.flag != 0 {
		b = binary.AppendUvarint(b, 0) // a new string dictionary entry
		b = appendString(b, entry.str)
	}
	return b
}

// TestTraceValuesNoEnumHolds: a dictionary entry that names no kind,
// op, state or cause fails the replay with an error naming the field
// and the string.
func TestTraceValuesNoEnumHolds(t *testing.T) {
	for _, field := range []string{"kind", "op", "from", "to", "cause"} {
		t.Run(field, func(t *testing.T) {
			_, n, err := ReplayTrace(bytes.NewReader(badTrace(t, field)))
			if err == nil {
				t.Fatalf("replay accepted the trace (%d events)", n)
			}
			if want := "event 0 " + field + ": "; !strings.Contains(err.Error(), want) {
				t.Errorf("err = %q, want it to name the field (%q)", err, want)
			}
		})
	}
}

// FuzzTraceDecode hardens the decoder: arbitrary bytes must produce an
// error or a bounded number of events — never a panic or runaway
// allocation — and every trace the reader accepts must re-encode
// through RecordSink to bytes that decode to the same events. Beside
// the seeds added here, the sample trace, an empty trace and each of
// badTrace's are checked in under testdata/fuzz/FuzzTraceDecode, so
// their bytes stay pinned when the encoder changes.
func FuzzTraceDecode(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte(TraceMagic))
	f.Add(encodeFBT(f, TraceMeta{Fingerprint: "fuzz"}, fbtSampleEvents()))
	f.Add(encodeFBT(f, TraceMeta{}, nil))
	f.Fuzz(func(t *testing.T, data []byte) {
		meta, events, err := decodeAll(data)
		if err != nil {
			return
		}
		_, again, err := decodeAll(encodeFBT(t, meta, events))
		if err != nil {
			t.Fatalf("re-encoded trace does not decode: %v", err)
		}
		if len(again) != len(events) {
			t.Fatalf("re-encoded trace decodes to %d events, want %d", len(again), len(events))
		}
		for i := range events {
			if again[i] != events[i] {
				t.Fatalf("event %d re-decodes as %+v, want %+v", i, again[i], events[i])
			}
		}
	})
}

// decodeAll decodes a whole trace of at most 1<<16 events.
func decodeAll(data []byte) (TraceMeta, []Event, error) {
	tr, err := NewTraceReader(bytes.NewReader(data))
	if err != nil {
		return TraceMeta{}, nil, err
	}
	var events []Event
	for {
		var e Event
		switch err := tr.Next(&e); {
		case err == io.EOF:
			return tr.meta, events, nil
		case err != nil:
			return tr.meta, events, err
		case len(events) == 1<<16:
			return tr.meta, events, errors.New("more than 1<<16 events")
		}
		events = append(events, e)
	}
}
