package obs

import (
	"strings"
	"testing"
)

func TestWarnDroppedCleanRecorder(t *testing.T) {
	rec := New(SinkFunc(func(*Event) {}))
	rec.Emit(&Event{Kind: KindTx})
	if err := rec.Close(); err != nil {
		t.Fatal(err)
	}
	var buf strings.Builder
	if WarnDropped(&buf, "fbsim", rec) {
		t.Fatalf("clean recorder warned: %q", buf.String())
	}
	if buf.Len() != 0 {
		t.Fatalf("clean recorder wrote output: %q", buf.String())
	}
}

func TestWarnDroppedAfterClose(t *testing.T) {
	rec := New(SinkFunc(func(*Event) {}))
	if err := rec.Close(); err != nil {
		t.Fatal(err)
	}
	rec.Emit(&Event{Kind: KindTx})
	rec.Emit(&Event{Kind: KindState})
	var buf strings.Builder
	if !WarnDropped(&buf, "fbsweep", rec) {
		t.Fatal("dropped events produced no warning")
	}
	out := buf.String()
	for _, want := range []string{"fbsweep", "2 events", "truncated"} {
		if !strings.Contains(out, want) {
			t.Fatalf("warning %q missing %q", out, want)
		}
	}
}

func TestWarnDroppedNilRecorder(t *testing.T) {
	var buf strings.Builder
	if WarnDropped(&buf, "fbsim", nil) {
		t.Fatal("nil recorder warned")
	}
}
