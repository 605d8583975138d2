package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"futurebus/cmd/internal/cli"
	"futurebus/internal/core"
	"futurebus/internal/obs"
	"futurebus/internal/obs/causal"
	"futurebus/internal/obs/coherence"
	"futurebus/internal/obs/ledger"
	"futurebus/internal/obs/watch"
	"futurebus/internal/sim"
	"futurebus/internal/workload"
)

// recordTrace runs a short Archibald–Baer simulation of boards on the
// det engine and writes its event stream to path as an .fbt trace.
func recordTrace(t *testing.T, path string, boards []sim.BoardSpec) {
	t.Helper()
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	rec := obs.New(obs.NewRecordSink(f, obs.TraceMeta{Fingerprint: "fbt-test " + filepath.Base(path)}))
	sys, err := sim.New(sim.Config{Boards: boards, Obs: rec})
	if err != nil {
		t.Fatal(err)
	}
	gens := sys.Generators(func(proc int) workload.Generator {
		return workload.MustModel(workload.Model{
			Proc: proc, SharedLines: 32, PrivateLines: 80, WordsPerLine: sys.WordsPerLine(),
			PShared: 0.2, PWrite: 0.3, Locality: 0.5,
		}, 7)
	})
	eng := sim.Engine{Sys: sys, Gens: gens}
	if _, err := eng.Run(1000); err != nil {
		t.Fatal(err)
	}
	if err := rec.Close(); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
}

// traces records a clean MOESI trace and one whose first board keeps
// its copy when it should invalidate (moesi-invalidate+drop-inv).
func traces(t *testing.T) (clean, faulty string) {
	t.Helper()
	dir := t.TempDir()
	clean, faulty = filepath.Join(dir, "clean.fbt"), filepath.Join(dir, "faulty.fbt")
	recordTrace(t, clean, sim.Homogeneous("moesi", 4).Boards)
	boards := sim.Homogeneous("moesi-invalidate", 4).Boards
	boards[0].Fault = "drop-inv"
	recordTrace(t, faulty, boards)
	return clean, faulty
}

// fbt runs one command line in-process.
func fbt(args ...string) (stdout string, code int) {
	var out, errw bytes.Buffer
	code = run(args, &out, &errw)
	return out.String(), code
}

// replayed feeds the trace at path straight to the sinks.
func replayed(t *testing.T, path string, sinks ...obs.Sink) obs.TraceMeta {
	t.Helper()
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	meta, _, err := obs.ReplayTrace(f, sinks...)
	if err != nil {
		t.Fatal(err)
	}
	return meta
}

func indented(t *testing.T, v any) string {
	t.Helper()
	b, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	return string(b) + "\n"
}

// TestJSONMatchesReplay: each subcommand's -json document is the
// analyzer's own JSON from a direct replay, led by the trace identity,
// and a trace diffed against itself is clean.
func TestJSONMatchesReplay(t *testing.T) {
	clean, _ := traces(t)
	var ca causal.Analyzer
	var la coherence.Analyzer
	mon := watch.New(watch.Config{})
	meta := replayed(t, clean, &ca, &la, mon)
	can, lan := ca.Analyze(), la.Analyze(coherence.DefaultTopLines)
	lanAll := la.Analyze(-1)
	fp := meta.Fingerprint

	var jsonl bytes.Buffer
	sink := obs.NewJSONLSink(&jsonl)
	replayed(t, clean, sink)
	if err := sink.Flush(); err != nil {
		t.Fatal(err)
	}

	cases := []struct {
		args []string
		want string
	}{
		{[]string{"causal", "analyze", "-json", clean}, indented(t, struct {
			Fingerprint string `json:"fingerprint,omitempty"`
			*causal.Analysis
		}{fp, can})},
		{[]string{"lens", "analyze", "-json", clean}, indented(t, struct {
			Fingerprint string `json:"fingerprint,omitempty"`
			*coherence.Analysis
		}{fp, lan})},
		{[]string{"watch", "-json", clean}, indented(t, struct {
			Trace       string `json:"trace"`
			Fingerprint string `json:"fingerprint,omitempty"`
			*watch.Report
		}{clean, fp, mon.Report()})},
		{[]string{"causal", "diff", "-json", clean, clean}, indented(t, struct {
			OldFingerprint string `json:"old_fingerprint,omitempty"`
			NewFingerprint string `json:"new_fingerprint,omitempty"`
			ledger.GateReport
		}{fp, fp, ledger.Diff(ledger.CausalRecord(fp, can), ledger.CausalRecord(fp, can), 0)})},
		{[]string{"lens", "diff", "-json", clean, clean}, indented(t, struct {
			OldFingerprint string `json:"old_fingerprint,omitempty"`
			NewFingerprint string `json:"new_fingerprint,omitempty"`
			ledger.GateReport
		}{fp, fp, ledger.Diff(ledger.LensRecord(fp, lanAll), ledger.LensRecord(fp, lanAll), 0)})},
		{[]string{"causal", "export", clean}, jsonl.String()},
	}
	for _, tc := range cases {
		got, code := fbt(tc.args...)
		if code != cli.OK {
			t.Errorf("fbt %s: exit %d, want 0", strings.Join(tc.args, " "), code)
		}
		if got != tc.want {
			t.Errorf("fbt %s: output differs from a direct replay\ngot:\n%.400s\nwant:\n%.400s",
				strings.Join(tc.args, " "), got, tc.want)
		}
	}
	for _, sub := range []string{"causal", "lens"} {
		out, code := fbt(sub, "diff", clean, clean)
		if code != cli.OK || !strings.Contains(out, "no regressions") || strings.Contains(out, "note: configs differ") {
			t.Errorf("fbt %s diff self-diff: exit %d\n%s", sub, code, out)
		}
	}
}

// TestDiffHeader: both diffs name the two recordings with their
// fingerprints and warn when the configurations differ.
func TestDiffHeader(t *testing.T) {
	clean, faulty := traces(t)
	want := "old: " + clean + " (fbt-test clean.fbt)\nnew: " + faulty + " (fbt-test faulty.fbt)\n" +
		"note: configs differ — deltas compare different runs, not a regression test\n"
	for _, sub := range []string{"causal", "lens"} {
		if out, _ := fbt(sub, "diff", clean, faulty); !strings.HasPrefix(out, want) {
			t.Errorf("fbt %s diff header:\n%.300s\nwant prefix:\n%s", sub, out, want)
		}
	}
}

// TestDiffIsLedgerDiffOfAnalyses: the rows of each diff's -json report
// are ledger.Diff over Ingest of the two analyze -json documents, so a
// diff and an ingested analysis cannot name or compute a metric
// differently.
func TestDiffIsLedgerDiffOfAnalyses(t *testing.T) {
	clean, faulty := traces(t)
	ingest := func(sub, path string) ledger.Record {
		doc, code := fbt(sub, "analyze", "-json", path)
		if code != cli.OK {
			t.Fatalf("fbt %s analyze -json %s: exit %d", sub, path, code)
		}
		recs, err := ledger.Ingest([]byte(doc), path)
		if err != nil || len(recs) != 1 {
			t.Fatalf("Ingest(fbt %s analyze -json %s) = %d records, %v", sub, path, len(recs), err)
		}
		return recs[0]
	}
	for _, sub := range []string{"causal", "lens"} {
		for _, pair := range [][2]string{{clean, faulty}, {faulty, clean}} {
			doc, code := fbt(sub, "diff", "-json", pair[0], pair[1])
			var got ledger.GateReport
			if err := json.Unmarshal([]byte(doc), &got); err != nil {
				t.Fatalf("fbt %s diff -json: %v\n%s", sub, err, doc)
			}
			want := ledger.Diff(ingest(sub, pair[0]), ingest(sub, pair[1]), 0)
			if len(want.Rows) == 0 || !reflect.DeepEqual(got.Rows, want.Rows) {
				t.Errorf("fbt %s diff -json rows differ from ledger.Diff of the ingested analyses\ngot:  %+v\nwant: %+v",
					sub, got.Rows, want.Rows)
			}
			if wantCode := map[bool]int{false: cli.OK, true: cli.Failed}[want.Regressions > 0]; code != wantCode {
				t.Errorf("fbt %s diff: exit %d, want %d", sub, code, wantCode)
			}
		}
	}
}

// TestWatchVerdict: a clean trace exits 0; the drop-inv trace exits 1
// and names the breached invariant.
func TestWatchVerdict(t *testing.T) {
	clean, faulty := traces(t)
	if out, code := fbt("watch", clean); code != cli.OK || !strings.Contains(out, "clean") {
		t.Errorf("fbt watch clean trace: exit %d\n%s", code, out)
	}
	out, code := fbt("watch", clean, faulty)
	if code != cli.Failed || !strings.Contains(out, string(watch.InvExclusivity)) {
		t.Errorf("fbt watch faulty trace: exit %d, want %d naming %s\n%s",
			code, cli.Failed, watch.InvExclusivity, out)
	}
}

// TestHelpExits0: every top-level spelling of help prints the usage on
// stderr and exits 0, with nothing on stdout.
func TestHelpExits0(t *testing.T) {
	for _, arg := range []string{"-h", "-help", "--help", "help"} {
		var out, errw bytes.Buffer
		if code := run([]string{arg}, &out, &errw); code != cli.OK || out.Len() != 0 || !strings.Contains(errw.String(), "fbt") {
			t.Errorf("fbt %s: exit %d, stdout %q, stderr %q; want exit 0 and the usage on stderr", arg, code, out.String(), errw.String())
		}
	}
}

// TestUnknownValuesExit2: a trace whose kind, op, from, to or cause
// names no value of its field does not decode, so fbt watch and fbt
// causal analyze exit 2 and name the field.
func TestUnknownValuesExit2(t *testing.T) {
	dir := t.TempDir()
	for field, e := range map[string]obs.Event{
		"kind":  {Kind: obs.NumKinds + 1},
		"op":    {Kind: obs.KindTx, Op: obs.NumOps + 1},
		"from":  {Kind: obs.KindState, From: core.Modified + 1, To: core.Invalid},
		"to":    {Kind: obs.KindState, From: core.Invalid, To: core.Modified + 1},
		"cause": {Kind: obs.KindState, From: core.Invalid, To: core.Shared, Cause: obs.NumCauses + 1},
	} {
		var buf bytes.Buffer
		sink := obs.NewRecordSink(&buf, obs.TraceMeta{Fingerprint: "bad " + field})
		sink.Consume(&e)
		if err := sink.Flush(); err != nil {
			t.Fatal(err)
		}
		path := filepath.Join(dir, field+".fbt")
		if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		for _, args := range [][]string{{"watch", path}, {"causal", "analyze", path}} {
			var out, errw bytes.Buffer
			if code := run(args, &out, &errw); code != cli.Error || !strings.Contains(errw.String(), " "+field+": ") {
				t.Errorf("fbt %s: exit %d, stderr %q; want exit %d naming %s",
					strings.Join(args, " "), code, errw.String(), cli.Error, field)
			}
		}
	}
}

// TestBrokenInputExits2: a truncated or missing trace, and a command
// line that does not parse, exit 2 from every subcommand — never 1,
// which means "regressed" or "violated".
func TestBrokenInputExits2(t *testing.T) {
	clean, _ := traces(t)
	blob, err := os.ReadFile(clean)
	if err != nil {
		t.Fatal(err)
	}
	truncated := filepath.Join(t.TempDir(), "truncated.fbt")
	if err := os.WriteFile(truncated, blob[:len(blob)/2], 0o644); err != nil {
		t.Fatal(err)
	}
	missing := filepath.Join(t.TempDir(), "missing.fbt")
	for _, bad := range []string{truncated, missing} {
		for _, args := range [][]string{
			{"causal", "analyze", bad},
			{"causal", "analyze", "-canonical", bad},
			{"causal", "diff", clean, bad},
			{"causal", "diff", bad, clean},
			{"causal", "export", bad},
			{"lens", "analyze", bad},
			{"lens", "diff", clean, bad},
			{"watch", clean, bad},
		} {
			if _, code := fbt(args...); code != cli.Error {
				t.Errorf("fbt %s: exit %d, want %d", strings.Join(args, " "), code, cli.Error)
			}
		}
	}
	for _, args := range [][]string{
		{}, {"causal"}, {"lens", "export", clean}, {"causal", "analyze"},
		{"lens", "diff", clean}, {"watch"}, {"watch", "-bogus", clean},
	} {
		if _, code := fbt(args...); code != cli.Error {
			t.Errorf("fbt %s: exit %d, want %d", strings.Join(args, " "), code, cli.Error)
		}
	}
}
