package main

import (
	"bytes"
	"encoding/json"
	"os"
	"strings"
	"testing"
)

// benchmarkSpec is the part of BENCHMARK.json the output must honour.
type benchmarkSpec struct {
	Workloads []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

func loadSpec(t *testing.T) benchmarkSpec {
	t.Helper()
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec benchmarkSpec
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	return spec
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// tiny runs a workload for two short episodes (rounds, when traced)
// and returns the printed report and its parsed last line.
func tiny(t *testing.T, o options) (string, result) {
	t.Helper()
	o.seed, o.minEpisodes = 1986, 2
	if o.refs == 0 {
		o.refs = 300
	}
	out, err := run(o)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := out.print(&buf); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	var res result
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		t.Fatalf("last line is not the JSON result: %v\n%s", err, buf.String())
	}
	return buf.String(), res
}

func TestEveryWorkloadReportsEveryMetric(t *testing.T) {
	spec := loadSpec(t)
	if len(spec.Workloads) != len(scenarios) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the benchmark runs %d", len(spec.Workloads), len(scenarios))
	}
	for _, w := range spec.Workloads {
		sc, ok := findScenario(w.Name)
		if !ok {
			t.Fatalf("BENCHMARK.json workload %q is not a benchmark workload", w.Name)
		}
		if sc.why != w.Why {
			t.Errorf("%s: why differs between BENCHMARK.json and the benchmark", w.Name)
		}
		for _, traced := range []bool{false, true} {
			want := spec.EndToEnd
			if traced {
				want = spec.PerLayer
			}
			o := options{workload: w.Name, trace: traced, spansOut: t.TempDir() + "/spans.jsonl"}
			report, res := tiny(t, o)
			if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
				t.Fatalf("%s traced=%v: correct=%v attempted=%d failed=%d\n%s",
					w.Name, traced, res.Correct, res.Attempted, res.Failed, report)
			}
			if len(res.Metrics) != len(want) {
				t.Errorf("%s traced=%v: %d metrics printed, BENCHMARK.json lists %d", w.Name, traced, len(res.Metrics), len(want))
			}
			for _, m := range want {
				got, ok := res.Metrics[m.Name]
				if !ok || got.Unit != m.Unit {
					t.Errorf("%s traced=%v: metric %s printed as %+v (present=%v), want unit %s",
						w.Name, traced, m.Name, got, ok, m.Unit)
				}
				if !traced && got.Value == 0 {
					t.Errorf("%s: end-to-end metric %s reads 0", w.Name, m.Name)
				}
			}
		}
	}
}

// A broken protocol must show up as failed references, not as a
// faster run, on the deterministic engine and on the concurrent one,
// whose board goroutines the run's own recover cannot see.
func TestInjectedFaultCountsAsFailed(t *testing.T) {
	for _, wl := range []string{"ab-hits", "sharded-conc"} {
		report, res := tiny(t, options{workload: wl, fault: "drop-inv", refs: 3000})
		if res.Correct || res.Failed == 0 || res.Failed != res.Attempted {
			t.Fatalf("%s drop-inv: correct=%v attempted=%d failed=%d\n%s", wl, res.Correct, res.Attempted, res.Failed, report)
		}
		if !strings.Contains(report, "FAILED check ") {
			t.Errorf("%s: report does not name the failed check:\n%s", wl, report)
		}
	}
}

// The deterministic engine gives the same simulated statistics for the
// same seed, and ab-observed simulates exactly what ab-hits does. Each
// stream of a run, and each seed, gives other statistics.
func TestDeterministicDigest(t *testing.T) {
	runs := make(map[[streams]string]string)
	for _, name := range []string{"ab-hits", "ab-hits", "ab-observed"} {
		out, err := run(options{workload: name, seed: 7, minEpisodes: 2, refs: 500})
		if err != nil {
			t.Fatal(err)
		}
		if out.failed != 0 || out.digests[0] == "" || out.digests[1] == "" {
			t.Fatalf("%s: failures %v", name, out.failures)
		}
		if out.digests[0] == out.digests[1] {
			t.Errorf("%s: streams 0 and 1 gave the same simulated statistics", name)
		}
		runs[out.digests] = name
	}
	if len(runs) != 1 {
		t.Fatalf("digests differ: %v", runs)
	}
	other, err := run(options{workload: "ab-hits", seed: 8, minEpisodes: 1, refs: 500})
	if err != nil {
		t.Fatal(err)
	}
	for d := range runs {
		if other.digests[0] == d[0] {
			t.Error("another seed gave the same simulated statistics")
		}
	}
}
