package main

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"futurebus/internal/obs/ledger"
)

func testRecords(n int) []ledger.Record {
	recs := make([]ledger.Record, n)
	for i := range recs {
		recs[i] = ledger.Record{
			Schema: ledger.Schema,
			Kind:   ledger.KindPerf,
			Label:  "fixture/det/p4",
			Meta:   ledger.Meta{GitSHA: "abc1234"},
			Metrics: map[string]float64{
				"perf.arb_wait_ns.p99":     42000 + float64(i),
				"host.alloc_bytes_per_ref": 128,
				"host.wall_ns":             1e9,
			},
		}
	}
	return recs
}

func TestSeriesKeysGroupedByFamily(t *testing.T) {
	recs := []ledger.Record{{
		Schema: ledger.Schema,
		Kind:   ledger.KindPerf,
		Metrics: map[string]float64{
			"queue.peak_depth":         3,
			"host.wall_ns":             1,
			"perf.arb_wait_ns.p99":     2,
			"perf.arb_wait_ns.p50":     1,
			"host.alloc_bytes_per_ref": 8,
		},
	}}
	got := seriesKeys(recs)
	want := []string{
		"host.alloc_bytes_per_ref", "host.wall_ns",
		"perf.arb_wait_ns.p50", "perf.arb_wait_ns.p99",
		"queue.peak_depth",
	}
	if len(got) != len(want) {
		t.Fatalf("got %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("got %v, want %v", got, want)
		}
	}
}

func TestRenderGateMarksRegressions(t *testing.T) {
	hist := testRecords(5)
	cand := testRecords(1)[0]
	cand.Metrics["perf.arb_wait_ns.p99"] = 42000 * 1.5
	rep := ledger.Gate(hist, cand, ledger.GateOpts{})
	if rep.Verdict != "regressed" {
		t.Fatalf("verdict = %q, want regressed", rep.Verdict)
	}
	var sb strings.Builder
	rep.Render(&sb)
	out := sb.String()
	if !strings.Contains(out, "REGRESSED") {
		t.Errorf("render lacks REGRESSED marker:\n%s", out)
	}
	if !strings.Contains(out, "(advisory)") {
		t.Errorf("render lacks advisory marker for host.wall_ns:\n%s", out)
	}
	if !strings.Contains(out, "verdict: regressed") {
		t.Errorf("render lacks final verdict line:\n%s", out)
	}
}

// TestRenderHTMLEscapesHostileKeys: metric keys come from ingested
// files; a </script> smuggled into one must not escape the data
// element.
func TestRenderHTMLEscapesHostileKeys(t *testing.T) {
	recs := testRecords(3)
	recs[0].Metrics[`</script><script>alert(1)</script>`] = 1
	var sb strings.Builder
	if err := renderHTML(&sb, recs); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	if strings.Contains(out, "<script>alert(1)") {
		t.Error("hostile key survived unescaped into the HTML")
	}
	if !strings.Contains(out, `</script>`) {
		t.Error("expected \\u003c-escaped payload in the data element")
	}
	// Self-contained: no external asset loads (the SVG namespace URL is
	// an identifier, not a fetch).
	if strings.Contains(out, "src=") || strings.Contains(out, "fetch(") {
		t.Error("report references external assets")
	}
	if !strings.Contains(out, "spark") {
		t.Error("dashboard script missing sparkline renderer")
	}
}

func TestSparkbarBounds(t *testing.T) {
	if got := sparkbar(5, 0, 10); len([]rune(got)) != 24 {
		t.Errorf("sparkbar width = %d runes, want 24", len([]rune(got)))
	}
	if got := sparkbar(7, 7, 7); len([]rune(got)) != 24 {
		t.Errorf("flat-series sparkbar width = %d runes, want 24", len([]rune(got)))
	}
}

func TestFamily(t *testing.T) {
	for key, want := range map[string]string{
		"perf.arb_wait_ns.p99": "perf",
		"host.wall_ns":         "host",
		"nodots":               "nodots",
	} {
		if got := family(key); got != want {
			t.Errorf("family(%q) = %q, want %q", key, got, want)
		}
	}
}

// perfDoc is a minimal fbperf run report with the given battery,
// arbitration-wait p99 and objects allocated per reference.
func perfDoc(battery string, p99, objects float64) string {
	return fmt.Sprintf(`{"battery":%q,"engine":"det","procs":4,
	  "host":{"wall_ns":1000,"alloc_bytes_per_ref":128,"alloc_objects_per_ref":%g},
	  "sim":{"latency":{"perf.arb_wait_ns":{"count":9,"p50":1200,"p99":%g}},"arb_fairness":0.93}}`,
		battery, objects, p99)
}

// TestDiffExitCodes: fbtrend diff exits 0 clean, 1 regressed and 2 on
// an input error, and notes a diff of two differently labelled runs.
func TestDiffExitCodes(t *testing.T) {
	dir := t.TempDir()
	write := func(name, doc string) string {
		path := filepath.Join(dir, name)
		if err := os.WriteFile(path, []byte(doc), 0o644); err != nil {
			t.Fatal(err)
		}
		return path
	}
	base := write("base.json", perfDoc("ab", 42_000, 2))
	injected := write("regress.json", perfDoc("ab", 84_000, 6))
	other := write("other.json", perfDoc("migratory", 42_000, 2))
	bench := write("bench.json", `{"BenchmarkP1/moesi":{"runs":3,"ns_per_op":4464077,"allocs_per_op":230}}`)
	sweep := write("sweep.json", `{"reports":[
	  {"id":"P1","columns":["protocol","miss"],"rows":[["moesi","0.05"]]},
	  {"id":"P2","columns":["protocol","miss"],"rows":[["moesi","0.06"]]}]}`)
	cases := []struct {
		name   string
		args   []string
		code   int
		stdout []string
		stderr string
	}{
		{"self-diff", []string{base, base}, 0, []string{"verdict: ok", "no regressions"}, ""},
		{"injected regression", []string{base, injected}, 1,
			[]string{"perf.arb_wait_ns.p99", "host.alloc_objects_per_ref", "2 regression(s)"}, ""},
		{"configs differ", []string{base, other}, 0, []string{"note: configs differ", "no regressions"}, ""},
		{"different kinds", []string{base, bench}, 2, nil, "different report kinds"},
		{"multi-record sweep", []string{sweep, sweep}, 2, nil, "yields 2 records"},
		{"one argument", []string{base}, 2, nil, "fbtrend diff old.json new.json"},
	}
	for _, c := range cases {
		var stdout, stderr strings.Builder
		if code := run(append([]string{"diff"}, c.args...), &stdout, &stderr); code != c.code {
			t.Errorf("%s: exit %d, want %d\nstdout:\n%s\nstderr:\n%s", c.name, code, c.code, stdout.String(), stderr.String())
			continue
		}
		for _, want := range c.stdout {
			if !strings.Contains(stdout.String(), want) {
				t.Errorf("%s: stdout lacks %q:\n%s", c.name, want, stdout.String())
			}
		}
		if !strings.Contains(stderr.String(), c.stderr) {
			t.Errorf("%s: stderr %q lacks %q", c.name, stderr.String(), c.stderr)
		}
	}
}

// TestRunExitStatuses drives every subcommand through run: 0 clean (and
// on -h), 1 when gate or diff finds a regression, 2 on usage, input and
// I/O errors, each with one stderr line unless usage was printed.
func TestRunExitStatuses(t *testing.T) {
	dir := t.TempDir()
	write := func(name, doc string) string {
		path := filepath.Join(dir, name)
		if err := os.WriteFile(path, []byte(doc), 0o644); err != nil {
			t.Fatal(err)
		}
		return path
	}
	base := write("base.json", perfDoc("ab", 42_000, 2))
	injected := write("regress.json", perfDoc("ab", 84_000, 6))
	led := filepath.Join(dir, "ledger.jsonl")
	empty := write("empty.jsonl", "")
	html := filepath.Join(dir, "trend.html")
	for _, c := range []struct {
		args []string
		code int
	}{
		{[]string{"-h"}, 0},
		{[]string{"-help"}, 0},
		{[]string{"--help"}, 0},
		{[]string{"help"}, 0},
		{[]string{"gate", "-h"}, 0},
		{[]string{"ingest", "-ledger", led, base, base, base}, 0},
		{[]string{"list", "-ledger", led}, 0},
		{[]string{"trend", "-ledger", led, "perf.arb_wait_ns.p99"}, 0},
		{[]string{"gate", "-ledger", led}, 0},
		{[]string{"gate", "-ledger", led, "-candidate", base, "-json"}, 0},
		{[]string{"gate", "-ledger", led, "-candidate", injected}, 1},
		{[]string{"diff", base, base}, 0},
		{[]string{"diff", base, injected}, 1},
		{[]string{"report", "-ledger", led, "-html", html}, 0},
		{nil, 2},
		{[]string{"plot"}, 2},
		{[]string{"list", "-no-such-flag"}, 2},
		{[]string{"list", "-ledger", led, "extra"}, 2},
		{[]string{"ingest", "-ledger", led}, 2},
		{[]string{"ingest", "-ledger", led, filepath.Join(dir, "missing.json")}, 2},
		{[]string{"list", "-ledger", filepath.Join(dir, "missing.jsonl")}, 2},
		{[]string{"trend", "-ledger", led, "no.such.metric"}, 2},
		{[]string{"gate", "-ledger", empty}, 2},
		{[]string{"report", "-ledger", led}, 2},
		{[]string{"report", "-ledger", led, "-html", filepath.Join(dir, "no-dir", "x.html")}, 2},
	} {
		var stdout, stderr strings.Builder
		code := run(c.args, &stdout, &stderr)
		if code != c.code || strings.Contains(stderr.String(), "panic") {
			t.Errorf("fbtrend %s: exit %d, want %d\nstderr:\n%s", strings.Join(c.args, " "), code, c.code, stderr.String())
		}
	}
}
