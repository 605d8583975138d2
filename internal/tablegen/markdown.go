package tablegen

import (
	"fmt"
	"strings"

	"futurebus/internal/core"
	"futurebus/internal/protocols"
)

// Markdown renders the complete protocol reference — every regenerated
// paper table, the §4 class-membership verdicts, and each registered
// protocol's full (extended) table — as a single Markdown document.
// cmd/moesi-tables -markdown writes it to docs/PROTOCOLS.md.
func Markdown() string {
	var b strings.Builder
	b.WriteString("# Protocol reference\n\n")
	b.WriteString("Generated from the implementation by `moesi-tables -markdown`.\n")
	b.WriteString("Every table below is produced by the same code that runs in the\n")
	b.WriteString("simulator; the T1–T7 tables are diffed against the paper in CI.\n\n")

	b.WriteString("## Cell syntax\n\n")
	b.WriteString("`result-state, signals, action` — e.g. `CH:O/M,CA,IM,BC,W` asserts\n")
	b.WriteString("CA+IM+BC, issues a write, and ends in O if another cache asserted CH,\n")
	b.WriteString("M otherwise. `M,CA,IM` with no action letter is an address-only\n")
	b.WriteString("invalidate. `BS;S,CA,W` aborts the snooped transaction, pushes the\n")
	b.WriteString("line, and keeps a shareable copy. `-` marks an illegal case.\n\n")

	b.WriteString("## The paper's tables, regenerated (T1–T7)\n\n")
	for _, a := range Artifacts() {
		fmt.Fprintf(&b, "### %s — %s\n\n```\n%s```\n\n", a.ID, a.Title, a.Render())
		if diffs := a.Diff(); len(diffs) == 0 {
			b.WriteString("Matches the paper cell for cell.\n\n")
		} else {
			fmt.Fprintf(&b, "DIVERGES from the paper (%d cells).\n\n", len(diffs))
		}
	}

	b.WriteString("## Class membership (§4)\n\n")
	b.WriteString("| protocol | verdict |\n|---|---|\n")
	for _, name := range protocols.Names() {
		p, err := protocols.New(name)
		if err != nil {
			continue
		}
		rep := core.Validate(p.Table(), p.Variant())
		fmt.Fprintf(&b, "| %s | %s |\n", name, rep.Verdict)
	}
	b.WriteString("\n")

	b.WriteString("## Full protocol tables (as simulated)\n\n")
	b.WriteString("The paper's Tables 3–7 define only the events each protocol's own\n")
	b.WriteString("algorithm generates; a mixed Futurebus delivers more. These are the\n")
	b.WriteString("Extend-completed tables every board actually runs, with the paper's\n")
	b.WriteString("cells preserved verbatim (verified by the T3–T7 diffs above).\n\n")
	b.WriteString("Each table is built once per process. `protocols.New` returns the\n")
	b.WriteString("one shared, immutable (frozen) policy of a table-driven protocol to\n")
	b.WriteString("every board that names it; `random` and `round-robin` return a fresh\n")
	b.WriteString("instance per board, since their choice state is per board, over one\n")
	b.WriteString("shared frozen class table.\n\n")
	for _, name := range protocols.Names() {
		p, err := protocols.New(name)
		if err != nil {
			continue
		}
		fmt.Fprintf(&b, "### %s\n\n```\n%s```\n\n", name, p.Table().Render())
	}

	b.WriteString("## State diagrams\n\n")
	b.WriteString("GraphViz sources (`moesi-tables -dot <protocol>` regenerates any of\n")
	b.WriteString("these): solid = local events, dashed = snooped bus events, dotted =\n")
	b.WriteString("BS abort recoveries.\n\n")
	for _, name := range []string{"moesi", "berkeley", "dragon", "illinois", "write-once", "firefly"} {
		p, err := protocols.New(name)
		if err != nil {
			continue
		}
		fmt.Fprintf(&b, "### %s\n\n```dot\n%s```\n\n", name, DOT(p.Table()))
	}
	return b.String()
}
