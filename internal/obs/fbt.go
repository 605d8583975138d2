package obs

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
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
// order so identical runs encode byte-identically. Unknown kinds are
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
type RecordSink struct {
	bw      *bufio.Writer
	scratch []byte
	kinds   map[Kind]uint64
	strs    map[string]uint64
	prevSeq uint64
	prevTS  int64
	err     error
}

// NewRecordSink creates a sink writing the header immediately and one
// compact record per consumed event.
func NewRecordSink(w io.Writer, meta TraceMeta) *RecordSink {
	s := &RecordSink{
		bw:    bufio.NewWriterSize(w, 1<<16),
		kinds: make(map[Kind]uint64, len(seedKinds)),
		strs:  make(map[string]uint64),
	}
	b := s.scratch[:0]
	b = append(b, TraceMagic...)
	b = binary.AppendUvarint(b, TraceVersion)
	b = appendString(b, meta.Fingerprint)
	b = binary.AppendUvarint(b, uint64(len(seedKinds)))
	for i, k := range seedKinds {
		s.kinds[k] = uint64(i)
		b = appendString(b, string(k))
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

// appendRef encodes a dictionary reference, introducing s inline when
// it is new.
func (s *RecordSink) appendRef(b []byte, v string) []byte {
	idx, ok := s.strs[v]
	if !ok {
		idx = uint64(len(s.strs))
		s.strs[v] = idx
		b = binary.AppendUvarint(b, idx)
		return appendString(b, v)
	}
	return binary.AppendUvarint(b, idx)
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
	if e.Op != "" {
		flags |= fbtOp
	}
	if e.From != "" {
		flags |= fbtFrom
	}
	if e.To != "" {
		flags |= fbtTo
	}
	if e.Cause != "" {
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
	if e.Proto != "" {
		flags |= fbtProto
	}
	if e.PendNS != 0 {
		flags |= fbtPendNS
	}
	if e.DeferNS != 0 {
		flags |= fbtDeferNS
	}

	b := s.scratch[:0]
	kindIdx, ok := s.kinds[e.Kind]
	if !ok {
		kindIdx = uint64(len(s.kinds))
		s.kinds[e.Kind] = kindIdx
		b = binary.AppendUvarint(b, kindIdx)
		b = appendString(b, string(e.Kind))
	} else {
		b = binary.AppendUvarint(b, kindIdx)
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
		b = s.appendRef(b, e.Op)
	}
	if flags&fbtFrom != 0 {
		b = s.appendRef(b, e.From)
	}
	if flags&fbtTo != 0 {
		b = s.appendRef(b, e.To)
	}
	if flags&fbtCause != 0 {
		b = s.appendRef(b, e.Cause)
	}
	if flags&fbtRetries != 0 {
		b = binary.AppendUvarint(b, zigzag(int64(e.Retries)))
	}
	if flags&fbtBytes != 0 {
		b = binary.AppendUvarint(b, zigzag(int64(e.Bytes)))
	}
	for _, ph := range [...]struct {
		bit uint64
		v   int64
	}{
		{fbtArbNS, e.ArbNS}, {fbtAddrNS, e.AddrNS}, {fbtDataNS, e.DataNS},
		{fbtIntvNS, e.IntvNS}, {fbtMemNS, e.MemNS}, {fbtRetryNS, e.RetryNS},
	} {
		if flags&ph.bit != 0 {
			b = binary.AppendUvarint(b, zigzag(ph.v))
		}
	}
	if flags&fbtTxID != 0 {
		b = binary.AppendUvarint(b, e.TxID)
	}
	if flags&fbtCauseID != 0 {
		b = binary.AppendUvarint(b, e.CauseID)
	}
	if flags&fbtProto != 0 {
		b = s.appendRef(b, e.Proto)
	}
	if flags&fbtPendNS != 0 {
		b = binary.AppendUvarint(b, zigzag(e.PendNS))
	}
	if flags&fbtDeferNS != 0 {
		b = binary.AppendUvarint(b, zigzag(e.DeferNS))
	}
	_, s.err = s.bw.Write(b)
	s.scratch = b[:0]
}

// Flush implements Sink.
func (s *RecordSink) Flush() error {
	if s.err != nil {
		return s.err
	}
	return s.bw.Flush()
}

// TraceReader decodes a .fbt stream event by event.
type TraceReader struct {
	br      *bufio.Reader
	meta    TraceMeta
	kinds   []Kind
	strs    []string
	prevSeq uint64
	prevTS  int64
	n       int64
}

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
		t.kinds = append(t.kinds, Kind(k))
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

// ref resolves a dictionary reference, accepting an inline new entry.
func (t *TraceReader) ref() (string, error) {
	idx, err := t.uvarint()
	if err != nil {
		return "", err
	}
	switch {
	case idx < uint64(len(t.strs)):
		return t.strs[idx], nil
	case idx == uint64(len(t.strs)):
		if idx >= maxTraceDict {
			return "", fmt.Errorf("string dictionary exceeds %d entries", maxTraceDict)
		}
		s, err := t.string()
		if err != nil {
			return "", err
		}
		t.strs = append(t.strs, s)
		return s, nil
	default:
		return "", fmt.Errorf("string ref %d beyond dictionary (%d entries)", idx, len(t.strs))
	}
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
	switch {
	case kindRef < uint64(len(t.kinds)):
		e.Kind = t.kinds[kindRef]
	case kindRef == uint64(len(t.kinds)):
		if kindRef >= maxTraceDict {
			return fail("kind", fmt.Errorf("kind dictionary exceeds %d entries", maxTraceDict))
		}
		k, err := t.string()
		if err != nil {
			return fail("kind", err)
		}
		t.kinds = append(t.kinds, Kind(k))
		e.Kind = Kind(k)
	default:
		return fail("kind", fmt.Errorf("ref %d beyond dictionary (%d entries)", kindRef, len(t.kinds)))
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
		dst  *int
	}{{"bus", &e.Bus}, {"proc", &e.Proc}} {
		v, err := t.uvarint()
		if err != nil {
			return fail(f.name, err)
		}
		*f.dst = int(unzigzag(v))
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
		v, err := t.uvarint()
		if err != nil {
			return fail("col", err)
		}
		e.Col = int(unzigzag(v))
	}
	for _, f := range [...]struct {
		name string
		bit  uint64
		dst  *string
	}{
		{"op", fbtOp, &e.Op}, {"from", fbtFrom, &e.From},
		{"to", fbtTo, &e.To}, {"cause", fbtCause, &e.Cause},
	} {
		if flags&f.bit == 0 {
			continue
		}
		if *f.dst, err = t.ref(); err != nil {
			return fail(f.name, err)
		}
	}
	e.CH = flags&fbtCH != 0
	e.DI = flags&fbtDI != 0
	e.SL = flags&fbtSL != 0
	if flags&fbtRetries != 0 {
		v, err := t.uvarint()
		if err != nil {
			return fail("retries", err)
		}
		e.Retries = int(unzigzag(v))
	}
	if flags&fbtBytes != 0 {
		v, err := t.uvarint()
		if err != nil {
			return fail("bytes", err)
		}
		e.Bytes = int(unzigzag(v))
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
		if e.Proto, err = t.ref(); err != nil {
			return fail("proto", err)
		}
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
