package coherence

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"
)

// TestRenderHTMLHostileLabels feeds a protocol name chosen to break
// out of the report's <script> element and asserts the embedded payload
// keeps it inert but intact: no literal '<', '>' or '&' survives
// anywhere in the JSON, and decoding the escaped payload round-trips
// the hostile name byte for byte. (A cause is one of a closed set, so
// only the protocol name can carry hostile text.)
func TestRenderHTMLHostileLabels(t *testing.T) {
	const evilProto = `</script><script>alert('pwned')</script><!--&-->` + "\u2028\u2029"
	var a Analyzer
	feed(&a,
		state(0, 0, 0xabc0, "I", "M", "fill", evilProto, 1),
		state(50, 1, 0xabc0, "M", "I", "snoop-cache-rfo", evilProto, 2),
	)
	var html bytes.Buffer
	if err := a.Analyze(0).RenderHTML(&html); err != nil {
		t.Fatal(err)
	}
	out := html.String()

	// The shell itself contains markup; only the embedded payload must
	// be free of raw breakout characters.
	start := strings.Index(out, `type="application/json">`)
	end := strings.Index(out[start:], "</script>")
	if start < 0 || end < 0 {
		t.Fatal("report lost its data element")
	}
	payload := out[start+len(`type="application/json">`) : start+end]
	for _, banned := range []string{"<", ">", "&", " ", " "} {
		if strings.Contains(payload, banned) {
			t.Errorf("embedded payload contains raw %q", banned)
		}
	}
	if strings.Count(out, "<script") != 2 { // the data element and the renderer
		t.Errorf("hostile label injected a script element:\n%s", out)
	}

	// Escaping must not mangle the data: the hostile strings decode back
	// exactly, so a forensic reading of a dirty trace's report still
	// shows the real protocol name.
	var an Analysis
	if err := json.Unmarshal([]byte(payload), &an); err != nil {
		t.Fatalf("escaped payload no longer parses: %v", err)
	}
	p, ok := an.Protocols[evilProto]
	if !ok {
		t.Fatalf("hostile protocol name did not round-trip; have %v", keys(an.Protocols))
	}
	if _, ok := p.ByCause["fill"]; !ok {
		t.Fatalf("cause did not round-trip; have %v", keys(p.ByCause))
	}
}

func keys[V any](m map[string]*V) []string {
	var out []string
	for k := range m {
		out = append(out, k)
	}
	return out
}

func TestEscapeScriptPayloadPassThrough(t *testing.T) {
	in := []byte(`{"a":"plain text, no breakouts","n":42}`)
	if got := EscapeScriptPayload(in); !bytes.Equal(got, in) {
		t.Errorf("clean payload was altered: %s", got)
	}
	// A stray 0xE2 that is not U+2028/9 must pass through untouched.
	in2 := []byte("{\"s\":\"☃\xe2\"}")
	if got := EscapeScriptPayload(in2); !bytes.Equal(got, in2) {
		t.Errorf("non-terminator bytes altered: %q", got)
	}
}
