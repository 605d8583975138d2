package obs

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"math"

	"futurebus/internal/core"
)

// The .fbt binary trace format: the full event stream of a run,
// varint-encoded, with a self-describing header — the offline
// counterpart of the live sinks. A recorded run can be replayed through
// any Sink (Chrome trace, JSONL, attribution, the causal analyzer)
// without re-running the simulation.
//
//	file   := magic "FBT1" | uvarint version | str fingerprint
//	          | uvarint nkinds | str × nkinds          (seed kind dict)
//	          | event*
//	event  := uvarint kindRef | uvarint flags | fields
//	str    := uvarint len | bytes
//
// kindRef and the Op/From/To/Cause strings use a streaming dictionary:
// a reference equal to the current dictionary size introduces a new
// entry (a str follows inline), so the format needs no registry and
// later schema additions decode against older readers of the same
// version. Seq and TS are delta-encoded against the previous event;
// signed fields use zigzag. Field presence is a flags bitmap, so the
// common instant event costs a handful of bytes.
const (
	// TraceMagic starts every .fbt file.
	TraceMagic = "FBT1"
	// TraceVersion is the schema version written (and the only one
	// accepted) by this package.
	TraceVersion = 1
)

// TraceMeta is the self-describing header payload of a trace: enough
// to tell two recordings apart before comparing them.
type TraceMeta struct {
	// Fingerprint identifies the configuration that produced the run
	// (protocol mix, workload, seed, engine) — fbt causal diff refuses to
	// silently compare apples to oranges without it.
	Fingerprint string `json:"fingerprint"`
}

// Decoder hardening: a corrupt or adversarial file must fail with an
// error, never an allocation blow-up.
const (
	maxTraceString = 1 << 16
	maxTraceDict   = 1 << 20
)

// Event field presence bits (flags bitmap). CH/DI/SL are valueless:
// the bit is the value.
//
// APPEND-ONLY: the bit positions here and the seedKinds order below are
// wire format. A new field gets the next free bit and its value is
// encoded/decoded AFTER every existing field; a new kind is appended to
// seedKinds. Reordering or removing either breaks every .fbt trace
// already on disk without a TraceVersion bump — TestFbtSchemaAppendOnly
// pins both.
const (
	fbtDur = 1 << iota
	fbtCol
	fbtOp
	fbtFrom
	fbtTo
	fbtCause
	fbtCH
	fbtDI
	fbtSL
	fbtRetries
	fbtBytes
	fbtArbNS
	fbtAddrNS
	fbtDataNS
	fbtIntvNS
	fbtMemNS
	fbtRetryNS
	fbtTxID
	fbtCauseID
	fbtProto
	fbtPendNS
	fbtDeferNS
)

// seedKinds is the kind dictionary written into the header, in a fixed
// order so identical runs encode byte-identically. Kinds outside it are
// appended to the stream dictionary on first use. APPEND-ONLY (see the
// flag-bit comment above).
var seedKinds = []Kind{
	KindTx, KindGrant, KindAbort, KindRecover, KindState, KindIntervene,
	KindUpdate, KindCapture, KindEvict, KindStall, KindBlocked,
	KindMemRead, KindMemWrite,
	KindPend, KindData, KindNack, KindRetryExhausted,
}

// RecordSink serialises the event stream to a .fbt binary trace. It
// implements Sink, so attaching it to a Recorder records the run; the
// encoding is a few varints per event, cheap enough to stay under the
// recording-overhead budget (see BenchmarkObsRecordingOverhead).
//
// Its dictionaries are indexed by value: each kind, op, state, cause
// and name has a slot holding its dictionary index + 1 (0 = not yet
// written). The string dictionary is one, shared by every field, as
// the format requires, so a value's first use looks its string up in
// strs and every later use reads its slot.
type RecordSink struct {
	bw      *bufio.Writer
	scratch []byte
	kinds   [256]uint32
	nkinds  uint32
	ops     [256]uint32
	states  [256]uint32
	causes  [256]uint32
	names   []uint32 // indexed by Name
	strs    map[string]uint32
	prevSeq uint64
	prevTS  int64
	err     error
}

// NewRecordSink creates a sink writing the header immediately and one
// compact record per consumed event.
func NewRecordSink(w io.Writer, meta TraceMeta) *RecordSink {
	s := &RecordSink{
		bw:   bufio.NewWriterSize(w, 1<<16),
		strs: make(map[string]uint32),
	}
	b := s.scratch[:0]
	b = append(b, TraceMagic...)
	b = binary.AppendUvarint(b, TraceVersion)
	b = appendString(b, meta.Fingerprint)
	b = binary.AppendUvarint(b, uint64(len(seedKinds)))
	for _, k := range seedKinds {
		s.nkinds++
		s.kinds[k] = s.nkinds
		b = appendString(b, k.String())
	}
	_, s.err = s.bw.Write(b)
	s.scratch = b[:0]
	return s
}

func appendString(b []byte, s string) []byte {
	b = binary.AppendUvarint(b, uint64(len(s)))
	return append(b, s...)
}

// zigzag folds a signed value into an unsigned varint-friendly one.
func zigzag(v int64) uint64 { return uint64(v<<1) ^ uint64(v>>63) }

func unzigzag(u uint64) int64 { return int64(u>>1) ^ -int64(u&1) }

// appendRef encodes a reference to the string dictionary entry of a
// field value whose slot is *slot. On the value's first use it
// introduces name() inline, or reuses the entry another field gave the
// same string.
func (s *RecordSink) appendRef(b []byte, slot *uint32, name func() string) []byte {
	if *slot == 0 {
		str := name()
		idx, ok := s.strs[str]
		if !ok {
			idx = uint32(len(s.strs))
			s.strs[str] = idx
			b = binary.AppendUvarint(b, uint64(idx))
			b = appendString(b, str)
		} else {
			b = binary.AppendUvarint(b, uint64(idx))
		}
		*slot = idx + 1
		return b
	}
	return binary.AppendUvarint(b, uint64(*slot-1))
}

// nameSlot returns n's slot in the names dictionary.
func (s *RecordSink) nameSlot(n Name) *uint32 {
	if int(n) >= len(s.names) {
		s.names = append(s.names, make([]uint32, int(n)+1-len(s.names))...)
	}
	return &s.names[n]
}

// Consume implements Sink.
func (s *RecordSink) Consume(e *Event) {
	if s.err != nil {
		return
	}
	var flags uint64
	if e.Dur != 0 {
		flags |= fbtDur
	}
	if e.Col != 0 {
		flags |= fbtCol
	}
	if e.Op != 0 {
		flags |= fbtOp
	}
	if e.Kind == KindState {
		if e.From != NoState {
			flags |= fbtFrom
		}
		if e.To != NoState {
			flags |= fbtTo
		}
	}
	if (e.Kind == KindEpoch && e.Disc != 0) || (e.Kind != KindEpoch && e.Cause != 0) {
		flags |= fbtCause
	}
	if e.CH {
		flags |= fbtCH
	}
	if e.DI {
		flags |= fbtDI
	}
	if e.SL {
		flags |= fbtSL
	}
	if e.Retries != 0 {
		flags |= fbtRetries
	}
	if e.Bytes != 0 {
		flags |= fbtBytes
	}
	if e.ArbNS != 0 {
		flags |= fbtArbNS
	}
	if e.AddrNS != 0 {
		flags |= fbtAddrNS
	}
	if e.DataNS != 0 {
		flags |= fbtDataNS
	}
	if e.IntvNS != 0 {
		flags |= fbtIntvNS
	}
	if e.MemNS != 0 {
		flags |= fbtMemNS
	}
	if e.RetryNS != 0 {
		flags |= fbtRetryNS
	}
	if e.TxID != 0 {
		flags |= fbtTxID
	}
	if e.CauseID != 0 {
		flags |= fbtCauseID
	}
	if e.Proto != 0 {
		flags |= fbtProto
	}
	if e.PendNS != 0 {
		flags |= fbtPendNS
	}
	if e.DeferNS != 0 {
		flags |= fbtDeferNS
	}

	b := s.scratch[:0]
	if kindIdx := s.kinds[e.Kind]; kindIdx != 0 {
		b = binary.AppendUvarint(b, uint64(kindIdx-1))
	} else {
		b = binary.AppendUvarint(b, uint64(s.nkinds))
		b = appendString(b, e.Kind.String())
		s.nkinds++
		s.kinds[e.Kind] = s.nkinds
	}
	b = binary.AppendUvarint(b, flags)
	// Always-present fields: wraparound deltas reproduce any uint64 /
	// int64 exactly while keeping in-order streams to 1–2 bytes each.
	b = binary.AppendUvarint(b, e.Seq-s.prevSeq)
	b = binary.AppendUvarint(b, uint64(e.TS)-uint64(s.prevTS))
	s.prevSeq, s.prevTS = e.Seq, e.TS
	b = binary.AppendUvarint(b, zigzag(int64(e.Bus)))
	b = binary.AppendUvarint(b, zigzag(int64(e.Proc)))
	b = binary.AppendUvarint(b, e.Addr)
	if flags&fbtDur != 0 {
		b = binary.AppendUvarint(b, zigzag(e.Dur))
	}
	if flags&fbtCol != 0 {
		b = binary.AppendUvarint(b, zigzag(int64(e.Col)))
	}
	if flags&fbtOp != 0 {
		b = s.appendRef(b, &s.ops[e.Op], e.Op.String)
	}
	if flags&fbtFrom != 0 {
		b = s.appendRef(b, &s.states[e.From], e.From.Letter)
	}
	if flags&fbtTo != 0 {
		b = s.appendRef(b, &s.states[e.To], e.To.Letter)
	}
	if flags&fbtCause != 0 {
		if e.Kind == KindEpoch {
			b = s.appendRef(b, s.nameSlot(e.Disc), e.Disc.String)
		} else {
			b = s.appendRef(b, &s.causes[e.Cause], e.Cause.String)
		}
	}
	if flags&fbtRetries != 0 {
		b = binary.AppendUvarint(b, zigzag(int64(e.Retries)))
	}
	if flags&fbtBytes != 0 {
		b = binary.AppendUvarint(b, zigzag(int64(e.Bytes)))
	}
	b = appendSet(b, flags&fbtArbNS, e.ArbNS)
	b = appendSet(b, flags&fbtAddrNS, e.AddrNS)
	b = appendSet(b, flags&fbtDataNS, e.DataNS)
	b = appendSet(b, flags&fbtIntvNS, e.IntvNS)
	b = appendSet(b, flags&fbtMemNS, e.MemNS)
	b = appendSet(b, flags&fbtRetryNS, e.RetryNS)
	if flags&fbtTxID != 0 {
		b = binary.AppendUvarint(b, e.TxID)
	}
	if flags&fbtCauseID != 0 {
		b = binary.AppendUvarint(b, e.CauseID)
	}
	if flags&fbtProto != 0 {
		b = s.appendRef(b, s.nameSlot(e.Proto), e.Proto.String)
	}
	b = appendSet(b, flags&fbtPendNS, e.PendNS)
	b = appendSet(b, flags&fbtDeferNS, e.DeferNS)
	_, s.err = s.bw.Write(b)
	s.scratch = b[:0]
}

// appendSet encodes a signed field whose flag bit, set, is non-zero.
func appendSet(b []byte, set uint64, v int64) []byte {
	if set == 0 {
		return b
	}
	return binary.AppendUvarint(b, zigzag(v))
}

// Flush implements Sink.
func (s *RecordSink) Flush() error {
	if s.err != nil {
		return s.err
	}
	return s.bw.Flush()
}

// TraceReader decodes a .fbt stream event by event. It maps each
// dictionary entry to its value once, on the entry's first use in a
// field; a string that names no value of that field is a decode error.
type TraceReader struct {
	br      *bufio.Reader
	meta    TraceMeta
	kinds   []string
	kindOf  []Kind // kindOf[i] is kinds[i]'s Kind, 0 until first used
	strs    []dictEntry
	prevSeq uint64
	prevTS  int64
	n       int64
}

// dictEntry is one string dictionary entry and the values it has named
// so far, one per field domain (resolved marks which are known).
type dictEntry struct {
	s        string
	resolved uint8
	op       Op
	state    core.State
	cause    Cause
	name     Name
}

// The field domains a string dictionary entry may name a value of.
const (
	domOp = 1 << iota
	domState
	domCause
	domName
)

// NewTraceReader validates the header and positions the reader at the
// first event.
func NewTraceReader(r io.Reader) (*TraceReader, error) {
	t := &TraceReader{br: bufio.NewReaderSize(r, 1<<16)}
	magic := make([]byte, len(TraceMagic))
	if _, err := io.ReadFull(t.br, magic); err != nil {
		return nil, fmt.Errorf("obs: fbt header: %w", err)
	}
	if string(magic) != TraceMagic {
		return nil, fmt.Errorf("obs: not an .fbt trace (magic %q)", magic)
	}
	version, err := t.uvarint()
	if err != nil {
		return nil, fmt.Errorf("obs: fbt header version: %w", err)
	}
	if version != TraceVersion {
		return nil, fmt.Errorf("obs: unsupported .fbt schema version %d (want %d)", version, TraceVersion)
	}
	if t.meta.Fingerprint, err = t.string(); err != nil {
		return nil, fmt.Errorf("obs: fbt header fingerprint: %w", err)
	}
	nkinds, err := t.uvarint()
	if err != nil {
		return nil, fmt.Errorf("obs: fbt header kind table: %w", err)
	}
	if nkinds > maxTraceDict {
		return nil, fmt.Errorf("obs: fbt header kind table too large (%d)", nkinds)
	}
	for i := uint64(0); i < nkinds; i++ {
		k, err := t.string()
		if err != nil {
			return nil, fmt.Errorf("obs: fbt header kind %d: %w", i, err)
		}
		t.kinds = append(t.kinds, k)
		t.kindOf = append(t.kindOf, 0)
	}
	return t, nil
}

func (t *TraceReader) uvarint() (uint64, error) {
	v, err := binary.ReadUvarint(t.br)
	if err == io.EOF {
		// EOF inside a value is truncation, not a clean end; only Next's
		// first byte may see a bare EOF.
		err = io.ErrUnexpectedEOF
	}
	return v, err
}

func (t *TraceReader) string() (string, error) {
	n, err := t.uvarint()
	if err != nil {
		return "", err
	}
	if n > maxTraceString {
		return "", fmt.Errorf("string length %d exceeds limit", n)
	}
	b := make([]byte, n)
	if _, err := io.ReadFull(t.br, b); err != nil {
		if err == io.EOF {
			err = io.ErrUnexpectedEOF
		}
		return "", err
	}
	return string(b), nil
}

// ref resolves a string dictionary reference, accepting an inline new
// entry, and returns the entry to read dom's value from: resolved, or
// the error of a string that names no value of dom.
func (t *TraceReader) ref(dom uint8) (*dictEntry, error) {
	idx, err := t.uvarint()
	if err != nil {
		return nil, err
	}
	switch {
	case idx < uint64(len(t.strs)):
	case idx == uint64(len(t.strs)):
		if idx >= maxTraceDict {
			return nil, fmt.Errorf("string dictionary exceeds %d entries", maxTraceDict)
		}
		s, err := t.string()
		if err != nil {
			return nil, err
		}
		t.strs = append(t.strs, dictEntry{s: s})
	default:
		return nil, fmt.Errorf("string ref %d beyond dictionary (%d entries)", idx, len(t.strs))
	}
	d := &t.strs[idx]
	if d.resolved&dom != 0 {
		return d, nil
	}
	switch dom {
	case domOp:
		d.op, err = parseOp(d.s)
	case domState:
		d.state, err = parseState(d.s)
	case domCause:
		d.cause, err = ParseCause(d.s)
	case domName:
		d.name, err = decodeName(d.s)
	}
	if err != nil {
		return nil, err
	}
	d.resolved |= dom
	return d, nil
}

// kind resolves a kind dictionary reference, accepting an inline new
// entry.
func (t *TraceReader) kind(ref uint64) (Kind, error) {
	switch {
	case ref < uint64(len(t.kinds)):
	case ref == uint64(len(t.kinds)):
		if ref >= maxTraceDict {
			return 0, fmt.Errorf("kind dictionary exceeds %d entries", maxTraceDict)
		}
		k, err := t.string()
		if err != nil {
			return 0, err
		}
		t.kinds = append(t.kinds, k)
		t.kindOf = append(t.kindOf, 0)
	default:
		return 0, fmt.Errorf("ref %d beyond dictionary (%d entries)", ref, len(t.kinds))
	}
	if k := t.kindOf[ref]; k != 0 {
		return k, nil
	}
	k, err := parseKind(t.kinds[ref])
	if err != nil {
		return 0, err
	}
	t.kindOf[ref] = k
	return k, nil
}

// Next decodes one event into e. It returns io.EOF at a clean end of
// stream; any other error (including truncation mid-event) is fatal.
func (t *TraceReader) Next(e *Event) error {
	kindRef, err := binary.ReadUvarint(t.br)
	if err != nil {
		if err == io.EOF {
			return io.EOF
		}
		return fmt.Errorf("obs: fbt event %d: %w", t.n, err)
	}
	fail := func(field string, err error) error {
		return fmt.Errorf("obs: fbt event %d %s: %w", t.n, field, err)
	}
	*e = Event{}
	if e.Kind, err = t.kind(kindRef); err != nil {
		return fail("kind", err)
	}
	flags, err := t.uvarint()
	if err != nil {
		return fail("flags", err)
	}
	seqDelta, err := t.uvarint()
	if err != nil {
		return fail("seq", err)
	}
	t.prevSeq += seqDelta
	e.Seq = t.prevSeq
	tsDelta, err := t.uvarint()
	if err != nil {
		return fail("ts", err)
	}
	t.prevTS = int64(uint64(t.prevTS) + tsDelta)
	e.TS = t.prevTS
	for _, f := range [...]struct {
		name string
		dst  *int32
	}{{"bus", &e.Bus}, {"proc", &e.Proc}} {
		if *f.dst, err = t.int32(); err != nil {
			return fail(f.name, err)
		}
	}
	if e.Addr, err = t.uvarint(); err != nil {
		return fail("addr", err)
	}
	if flags&fbtDur != 0 {
		v, err := t.uvarint()
		if err != nil {
			return fail("dur", err)
		}
		e.Dur = unzigzag(v)
	}
	if flags&fbtCol != 0 {
		if e.Col, err = t.int32(); err != nil {
			return fail("col", err)
		}
	}
	if flags&fbtOp != 0 {
		d, err := t.ref(domOp)
		if err != nil {
			return fail("op", err)
		}
		e.Op = d.op
	}
	if e.Kind == KindState {
		e.From, e.To = NoState, NoState
	}
	for _, f := range [...]struct {
		name string
		bit  uint64
		dst  *core.State
	}{{"from", fbtFrom, &e.From}, {"to", fbtTo, &e.To}} {
		if flags&f.bit == 0 {
			continue
		}
		if e.Kind != KindState {
			return fail(f.name, fmt.Errorf("a %s event carries no state", e.Kind))
		}
		d, err := t.ref(domState)
		if err != nil {
			return fail(f.name, err)
		}
		*f.dst = d.state
	}
	if flags&fbtCause != 0 {
		if e.Kind == KindEpoch {
			d, err := t.ref(domName)
			if err != nil {
				return fail("cause", err)
			}
			e.Disc = d.name
		} else {
			d, err := t.ref(domCause)
			if err != nil {
				return fail("cause", err)
			}
			e.Cause = d.cause
		}
	}
	e.CH = flags&fbtCH != 0
	e.DI = flags&fbtDI != 0
	e.SL = flags&fbtSL != 0
	if flags&fbtRetries != 0 {
		if e.Retries, err = t.int32(); err != nil {
			return fail("retries", err)
		}
	}
	if flags&fbtBytes != 0 {
		if e.Bytes, err = t.int32(); err != nil {
			return fail("bytes", err)
		}
	}
	for _, f := range [...]struct {
		name string
		bit  uint64
		dst  *int64
	}{
		{"arb_ns", fbtArbNS, &e.ArbNS}, {"addr_ns", fbtAddrNS, &e.AddrNS},
		{"data_ns", fbtDataNS, &e.DataNS}, {"intv_ns", fbtIntvNS, &e.IntvNS},
		{"mem_ns", fbtMemNS, &e.MemNS}, {"retry_ns", fbtRetryNS, &e.RetryNS},
	} {
		if flags&f.bit == 0 {
			continue
		}
		v, err := t.uvarint()
		if err != nil {
			return fail(f.name, err)
		}
		*f.dst = unzigzag(v)
	}
	if flags&fbtTxID != 0 {
		if e.TxID, err = t.uvarint(); err != nil {
			return fail("txid", err)
		}
	}
	if flags&fbtCauseID != 0 {
		if e.CauseID, err = t.uvarint(); err != nil {
			return fail("cause_id", err)
		}
	}
	if flags&fbtProto != 0 {
		d, err := t.ref(domName)
		if err != nil {
			return fail("proto", err)
		}
		e.Proto = d.name
	}
	for _, f := range [...]struct {
		name string
		bit  uint64
		dst  *int64
	}{
		{"pend_ns", fbtPendNS, &e.PendNS}, {"defer_ns", fbtDeferNS, &e.DeferNS},
	} {
		if flags&f.bit == 0 {
			continue
		}
		v, err := t.uvarint()
		if err != nil {
			return fail(f.name, err)
		}
		*f.dst = unzigzag(v)
	}
	t.n++
	return nil
}

// int32 decodes a zigzag field of an int32 event field; a value out of
// its range is an error.
func (t *TraceReader) int32() (int32, error) {
	u, err := t.uvarint()
	if err != nil {
		return 0, err
	}
	v := unzigzag(u)
	if v < math.MinInt32 || v > math.MaxInt32 {
		return 0, fmt.Errorf("%d is out of range", v)
	}
	return int32(v), nil
}

// ReplayTrace feeds every event of a recorded .fbt stream to the sinks
// in order — the offline analogue of a Recorder drain. The sinks are
// not flushed; the caller decides when output is final.
func ReplayTrace(r io.Reader, sinks ...Sink) (TraceMeta, int64, error) {
	t, err := NewTraceReader(r)
	if err != nil {
		return TraceMeta{}, 0, err
	}
	var e Event
	for {
		err := t.Next(&e)
		if err == io.EOF {
			return t.meta, t.n, nil
		}
		if err != nil {
			return t.meta, t.n, err
		}
		for _, s := range sinks {
			s.Consume(&e)
		}
	}
}
