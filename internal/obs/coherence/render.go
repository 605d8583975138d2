package coherence

import (
	"fmt"
	"io"
	"sort"
	"strings"

	"futurebus/internal/obs"
)

// Render writes a human-readable report of the analysis: per-protocol
// transition matrices, residency shares, dominant causes, fan-out
// histograms, sourcing mix, and the busiest lines' ownership chains.
func (an *Analysis) Render(w io.Writer) {
	fmt.Fprintf(w, "coherence analysis: %d events (%d state transitions), %d lines, span %s\n",
		an.Events, an.StateEvents, an.Lines, fmtNS(an.SpanNS))
	if an.TruncatedLines > 0 {
		fmt.Fprintf(w, "note: %d state events got no line: past the %d-line cap, or a bus or proc outside [0, %d) (matrices complete; chains/residency partial)\n",
			an.TruncatedLines, MaxLines, obs.MaxID)
	}
	for _, name := range an.ProtocolNames() {
		ps := an.Protocols[name]
		fmt.Fprintf(w, "\nprotocol %s: %d transitions, %d snoop invalidations, %d ownership moves\n",
			name, ps.Transitions, ps.Invalidations, ps.OwnershipMoves)
		renderMatrix(w, &ps.Matrix)
		renderResidency(w, ps, an.SpanNS)
		renderCauses(w, ps)
		renderFanout(w, "invalidation fan-out", ps.InvFanout)
		renderFanout(w, "update fan-out", ps.UpdFanout)
		if reads := ps.CacheSourced + ps.MemSourced; reads > 0 {
			fmt.Fprintf(w, "  read sourcing: %d cache-to-cache, %d memory (%.0f%% c2c)\n",
				ps.CacheSourced, ps.MemSourced, 100*float64(ps.CacheSourced)/float64(reads))
		}
	}
	if len(an.TopLines) > 0 {
		fmt.Fprintf(w, "\ntop lines by activity:\n")
		for _, l := range an.TopLines {
			fmt.Fprintf(w, "  %#010x  %5d transitions  %3d owners  %s\n",
				l.Addr, l.Events, l.Owners, renderChain(l))
		}
	}
}

func renderMatrix(w io.Writer, m *Matrix) {
	fmt.Fprintf(w, "  transition matrix (from \\ to):\n")
	fmt.Fprintf(w, "       %8s %8s %8s %8s %8s\n",
		StateLetters[0], StateLetters[1], StateLetters[2], StateLetters[3], StateLetters[4])
	for f := range m {
		fmt.Fprintf(w, "    %s  %8d %8d %8d %8d %8d\n",
			StateLetters[f], m[f][0], m[f][1], m[f][2], m[f][3], m[f][4])
	}
}

func renderResidency(w io.Writer, ps *ProtoAnalysis, span int64) {
	var total int64
	for _, v := range ps.ResidencyNS {
		total += v
	}
	if total == 0 {
		return
	}
	parts := make([]string, 0, NumStates)
	for i, v := range ps.ResidencyNS {
		if v > 0 {
			parts = append(parts, fmt.Sprintf("%s %.1f%%", StateLetters[i], 100*float64(v)/float64(total)))
		}
	}
	fmt.Fprintf(w, "  residency (copy-time share): %s\n", strings.Join(parts, "  "))
}

func renderCauses(w io.Writer, ps *ProtoAnalysis) {
	type cc struct {
		cause string
		n     int64
	}
	causes := make([]cc, 0, len(ps.ByCause))
	for cause, m := range ps.ByCause {
		causes = append(causes, cc{cause, m.Total()})
	}
	sort.Slice(causes, func(i, j int) bool {
		if causes[i].n != causes[j].n {
			return causes[i].n > causes[j].n
		}
		return causes[i].cause < causes[j].cause
	})
	if len(causes) > 6 {
		causes = causes[:6]
	}
	parts := make([]string, len(causes))
	for i, c := range causes {
		parts[i] = fmt.Sprintf("%s %d", c.cause, c.n)
	}
	fmt.Fprintf(w, "  top causes: %s\n", strings.Join(parts, ", "))
}

func renderFanout(w io.Writer, label string, h map[int]int64) {
	if len(h) == 0 {
		return
	}
	keys := make([]int, 0, len(h))
	for k := range h {
		keys = append(keys, k)
	}
	sort.Ints(keys)
	parts := make([]string, len(keys))
	for i, k := range keys {
		parts[i] = fmt.Sprintf("%d×%d", k, h[k])
	}
	fmt.Fprintf(w, "  %s: %s (mean %.2f)\n", label, strings.Join(parts, " "), FanoutMean(h))
}

func renderChain(l LineSummary) string {
	if len(l.Chain) == 0 {
		return "never owned"
	}
	parts := make([]string, 0, len(l.Chain)+1)
	for _, seg := range l.Chain {
		if seg.Proc < 0 {
			parts = append(parts, "mem")
		} else {
			parts = append(parts, fmt.Sprintf("P%d(%s)", seg.Proc, seg.State))
		}
	}
	if l.Truncated {
		parts = append(parts, "…")
	}
	return strings.Join(parts, " → ")
}

func fmtNS(ns int64) string {
	switch {
	case ns >= 1e9:
		return fmt.Sprintf("%.2fs", float64(ns)/1e9)
	case ns >= 1e6:
		return fmt.Sprintf("%.2fms", float64(ns)/1e6)
	case ns >= 1e3:
		return fmt.Sprintf("%.2fµs", float64(ns)/1e3)
	}
	return fmt.Sprintf("%dns", ns)
}
