package obs

import (
	"bufio"
	"io"
)

// JSONLSink streams every event as one JSON object per line — the
// machine-readable firehose for offline analysis (jq, pandas, diffing
// two runs). Unlike the Chrome exporter it does not buffer the run:
// events are written as they drain, so it is usable on runs too large
// to hold in memory.
type JSONLSink struct {
	bw  *bufio.Writer
	err error
}

// NewJSONLSink creates a sink writing one event per line to w.
func NewJSONLSink(w io.Writer) *JSONLSink {
	return &JSONLSink{bw: bufio.NewWriter(w)}
}

// Consume implements Sink.
func (s *JSONLSink) Consume(e *Event) {
	if s.err != nil {
		return
	}
	b, err := e.MarshalJSON()
	if err != nil {
		s.err = err
		return
	}
	b = append(b, '\n')
	if _, err := s.bw.Write(b); err != nil {
		s.err = err
	}
}

// Flush implements Sink.
func (s *JSONLSink) Flush() error {
	if s.err != nil {
		return s.err
	}
	return s.bw.Flush()
}
