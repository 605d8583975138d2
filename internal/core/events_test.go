package core

import (
	"testing"
	"testing/quick"
)

// TestBusEventColumns pins the paper's column numbering (Table 2,
// notes 5–10).
func TestBusEventColumns(t *testing.T) {
	want := map[BusEvent]int{
		BusCacheRead:           5,
		BusCacheRFO:            6,
		BusPlainRead:           7,
		BusCacheBroadcastWrite: 8,
		BusPlainWrite:          9,
		BusPlainBroadcastWrite: 10,
	}
	for e, col := range want {
		if e.Column() != col {
			t.Errorf("%s.Column() = %d, want %d", e, e.Column(), col)
		}
	}
}

// TestClassifyRoundTrip: every column's defining signal triple, as
// Table 2 heads it, classifies back to that column.
func TestClassifyRoundTrip(t *testing.T) {
	triples := map[BusEvent]Signal{
		BusCacheRead:           SigCA,
		BusCacheRFO:            SigCA | SigIM,
		BusPlainRead:           0,
		BusCacheBroadcastWrite: SigCA | SigIM | SigBC,
		BusPlainWrite:          SigIM,
		BusPlainBroadcastWrite: SigIM | SigBC,
	}
	for _, e := range BusEvents {
		if got := ClassifyBusEvent(triples[e]); got != e {
			t.Errorf("ClassifyBusEvent(%s) = %s", triples[e], got)
		}
	}
}

// TestClassifyPushCombos: the two signal combinations no column names —
// a Pass push with broadcast (CA,BC) and a Flush push with broadcast
// (BC) — classify as their IM-less columns 5 and 7, so snoopers keep
// their copies on write-backs.
func TestClassifyPushCombos(t *testing.T) {
	if got := ClassifyBusEvent(SigCA | SigBC); got != BusCacheRead {
		t.Errorf("CA,BC classified as %s, want col 5", got)
	}
	if got := ClassifyBusEvent(SigBC); got != BusPlainRead {
		t.Errorf("BC classified as %s, want col 7", got)
	}
}

// TestClassifyTotal: classification is total over the master-signal
// space and ignores response bits.
func TestClassifyTotal(t *testing.T) {
	f := func(raw uint8) bool {
		sig := Signal(raw)
		got := ClassifyBusEvent(sig)
		// Classification depends only on the CA/IM/BC bits.
		return got == ClassifyBusEvent(sig&MasterSignals)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// TestLocalEventNotes pins the Table 1 footnote numbers.
func TestLocalEventNotes(t *testing.T) {
	want := map[LocalEvent]int{LocalRead: 1, LocalWrite: 2, Pass: 3, Flush: 4}
	for e, n := range want {
		if e.Note() != n {
			t.Errorf("%s.Note() = %d, want %d", e, e.Note(), n)
		}
	}
}

// TestEventStrings match the paper's column headers.
func TestEventStrings(t *testing.T) {
	if s := BusCacheRFO.String(); s != "CA,IM,~BC" {
		t.Errorf("col 6 renders %q", s)
	}
	if s := BusPlainBroadcastWrite.String(); s != "~CA,IM,BC" {
		t.Errorf("col 10 renders %q", s)
	}
	if s := LocalWrite.String(); s != "Write" {
		t.Errorf("local write renders %q", s)
	}
}

// TestSignalStringAndParse: rendering follows the paper's CA,IM,BC
// order, and each of the seven lines renders as its name in the
// paper's tables, the name the cell parser reads.
func TestSignalStringAndParse(t *testing.T) {
	s := SigBC | SigCA | SigIM | SigCH
	if got := s.String(); got != "CA,IM,BC,CH" {
		t.Errorf("signal set renders %q", got)
	}
	for sig, name := range map[Signal]string{
		SigCA: "CA", SigIM: "IM", SigBC: "BC", SigCH: "CH", SigDI: "DI", SigSL: "SL", SigBS: "BS",
	} {
		if sig.String() != name {
			t.Errorf("signal %q renders %q", name, sig.String())
		}
	}
}

// TestMasterResponsePartition: the master and response masks partition
// the signal space.
func TestMasterResponsePartition(t *testing.T) {
	if MasterSignals&ResponseSignals != 0 {
		t.Error("master and response signals overlap")
	}
	all := SigCA | SigIM | SigBC | SigCH | SigDI | SigSL | SigBS
	if MasterSignals|ResponseSignals != all {
		t.Error("master and response signals do not cover all lines")
	}
}
