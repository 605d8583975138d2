package tablegen

import (
	"os"
	"strings"
	"testing"
)

// TestMarkdownSections: the generated reference carries every section
// and every artifact.
func TestMarkdownSections(t *testing.T) {
	out := Markdown()
	for _, want := range []string{
		"# Protocol reference",
		"## Cell syntax",
		"### T1 —", "### T7 —",
		"## Class membership (§4)",
		"| illinois | in class with BS extension |",
		"## Full protocol tables (as simulated)",
		"### synapse",
		"## State diagrams",
		"digraph \"MOESI\"",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("markdown lacks %q", want)
		}
	}
	if strings.Contains(out, "DIVERGES") {
		t.Error("generated reference reports a divergence from the paper")
	}
}

// TestProtocolsDocUpToDate: the committed docs/PROTOCOLS.md matches the
// implementation — regenerate with:
//
//	go run ./cmd/fbpaper tables -markdown > docs/PROTOCOLS.md
func TestProtocolsDocUpToDate(t *testing.T) {
	onDisk, err := os.ReadFile("../../docs/PROTOCOLS.md")
	if err != nil {
		t.Fatalf("docs/PROTOCOLS.md missing: %v", err)
	}
	if string(onDisk) != Markdown() {
		t.Fatal("docs/PROTOCOLS.md is stale; regenerate with: go run ./cmd/fbpaper tables -markdown > docs/PROTOCOLS.md")
	}
}
