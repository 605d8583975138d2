// Command simbench is the simulator's benchmark: it runs one workload
// for a fixed time, checks every run, and prints host CPU ns, allocations
// and simulated cost per reference (untraced), or the per-layer numbers
// from timing each call into the program's layers (traced). The last
// line of its output is one JSON object.
//
// Build and run it from the repository root with
//
//	bash simbench/run.sh --workload ab-hits --seed 1986 --seconds 10 --trace 0
//
// NOTES.md describes the workloads, the metrics and what the benchmark
// cannot see from outside the program.
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
)

func main() {
	names := make([]string, len(scenarios))
	for i, sc := range scenarios {
		names[i] = sc.name
	}
	wl := flag.String("workload", "", "workload to run: "+strings.Join(names, ", "))
	seed := flag.Uint64("seed", 1986, "workload seed: the same seed gives the same reference streams")
	seconds := flag.Float64("seconds", 10, "how long to keep starting episodes")
	trace := flag.Int("trace", 0, "0 = end-to-end metrics; 1 = traced run with per-layer metrics")
	out := flag.String("out", ".bench_build", "directory for the traced run's span file")
	flag.Parse()
	if *trace != 0 && *trace != 1 {
		fmt.Fprintln(os.Stderr, "simbench: -trace must be 0 or 1")
		os.Exit(2)
	}
	o := options{
		workload: *wl, seed: *seed, seconds: *seconds, minEpisodes: streams,
		trace: *trace == 1,
	}
	if o.trace {
		o.spansOut = filepath.Join(*out, fmt.Sprintf("simbench-spans-%s-seed%d.jsonl", *wl, *seed))
	}
	res, err := run(o)
	if err != nil {
		fmt.Fprintln(os.Stderr, "simbench:", err)
		os.Exit(2)
	}
	if err := res.print(os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "simbench:", err)
		os.Exit(1)
	}
}
