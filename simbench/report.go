package main

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"strings"
	"syscall"

	"futurebus/internal/bus"
	"futurebus/internal/cache"
	"futurebus/internal/obs/perf"
	"futurebus/internal/sim"
)

// metric is one reported number.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// endToEnd are the metrics of an untraced run, in report order. Each is
// a median over the run's successful episodes, except peak_rss_mb.
var endToEnd = []struct {
	name, unit string
	value      func(*outcome, []episode) float64
}{
	{"host_cpu_ns_per_ref", "ns", func(_ *outcome, eps []episode) float64 { return median(eps, hostCPUNsPerRef) }},
	{"allocs_per_ref", "1/ref", func(_ *outcome, eps []episode) float64 {
		return median(eps, func(ep episode) float64 { return perRef(float64(ep.mallocs), ep) })
	}},
	{"alloc_bytes_per_ref", "B/ref", func(_ *outcome, eps []episode) float64 {
		return median(eps, func(ep episode) float64 { return perRef(float64(ep.bytes), ep) })
	}},
	{"peak_rss_mb", "MB", func(o *outcome, _ []episode) float64 { return o.peakRSSMB }},
	{"setup_s", "s", func(_ *outcome, eps []episode) float64 {
		return median(eps, func(ep episode) float64 { return ep.setup.Seconds() })
	}},
	{"sim_ns_per_ref", "ns", func(_ *outcome, eps []episode) float64 {
		return median(eps, func(ep episode) float64 {
			return perRef(float64(ep.m.ElapsedNanos)*float64(ep.m.Procs), ep)
		})
	}},
	{"bus_trans_per_ref", "1/ref", func(_ *outcome, eps []episode) float64 {
		return median(eps, func(ep episode) float64 { return perRef(float64(ep.m.Bus.Transactions), ep) })
	}},
}

// layerView is what the per-layer metrics are computed from: the trace
// totals, and the simulated statistics summed over the traced episodes.
type layerView struct {
	o      *outcome
	t      layerTotals
	refs   float64
	boards float64
	bus    bus.Stats
	cache  cache.Stats
	memR   float64
	memW   float64
	elapse float64
	perf   *perf.Snapshot
	plain  []episode
}

func (v *layerView) mean(kind int) float64  { return ratio(float64(v.t.ns[kind]), float64(v.t.n[kind])) }
func (v *layerView) perRef(x int64) float64 { return ratio(float64(x), v.refs) }
func (v *layerView) perTx(x int64) float64  { return ratio(float64(x), float64(v.bus.Transactions)) }

func (v *layerView) consume(i int) float64 {
	return ratio(float64(v.t.consumeNs[i]), float64(v.t.consumeN[i]))
}

// selfNsPerRef is the run span minus its child spans. Under the
// concurrent engine every board goroutine lives about as long as the
// run, so the self time is each goroutine's time outside layer calls,
// waiting to be scheduled included.
func (v *layerView) selfNsPerRef() float64 {
	run := float64(v.t.ns[spanRun])
	if v.o.sc.concurrent {
		run *= v.boards
	}
	for k := spanNext; k < numSpans; k++ {
		run -= float64(v.t.ns[k])
	}
	return ratio(run, v.refs)
}

// busHostNsPerTx charges a stalled reference's time beyond a hit to the
// bus transactions it waited on.
func (v *layerView) busHostNsPerTx() float64 {
	extra := float64(v.t.ns[spanBusRef]) - float64(v.t.n[spanBusRef])*v.mean(spanHit)
	return ratio(extra, float64(v.t.tx))
}

func (v *layerView) arbWait(p99 bool) float64 {
	if v.perf == nil {
		return 0
	}
	s := v.perf.Latency[perf.MetricArbWait]
	if p99 {
		return float64(s.P99)
	}
	return float64(s.P50)
}

func (v *layerView) obsShare() float64 {
	if len(v.o.companion) == 0 {
		return 0
	}
	return ratio(median(v.plain, hostCPUNsPerRef), median(v.o.companion, hostCPUNsPerRef))
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// perLayer are the metrics of a traced run, in report order. moves
// names the end-to-end metric and workload each should move. A metric
// a workload cannot produce (obs and perf numbers without the observed
// sink set) reads 0.
var perLayer = []struct {
	name, unit, moves string
	value             func(*layerView) float64
}{
	{"workload.next_ns", "ns", "host_cpu_ns_per_ref on zipf-mix (CDF search) more than on ab-hits",
		func(v *layerView) float64 { return v.mean(spanNext) }},
	{"sim.run_wall_ns_per_ref", "ns/ref", "host_cpu_ns_per_ref; wall over CPU shows the time the run waited for a CPU or, on sharded-conc, ran on two",
		func(v *layerView) float64 { return median(v.plain, hostNsPerRef) }},
	{"sim.engine_self_ns_per_ref", "ns/ref", "host_cpu_ns_per_ref on ab-hits",
		(*layerView).selfNsPerRef},
	{"sim.deferrals_per_ref", "1/ref", "host_cpu_ns_per_ref on zipf-mix",
		func(v *layerView) float64 { return v.perRef(v.t.deferrals) }},
	{"cache.stall_ns", "ns", "host_cpu_ns_per_ref on ab-hits most, on zipf-mix least (ROADMAP 1a)",
		func(v *layerView) float64 { return v.mean(spanStall) }},
	{"cache.stall_calls_per_ref", "1/ref", "host_cpu_ns_per_ref on ab-hits most, on zipf-mix least (ROADMAP 1a)",
		func(v *layerView) float64 { return v.perRef(v.t.n[spanStall]) }},
	{"cache.probe_ns", "ns", "host_cpu_ns_per_ref on zipf-mix (UsesBusNext, one per contended access)",
		func(v *layerView) float64 { return v.mean(spanProbe) }},
	{"cache.hit_ns", "ns", "host_cpu_ns_per_ref on ab-hits",
		func(v *layerView) float64 { return v.mean(spanHit) }},
	{"cache.bus_ref_ns", "ns", "host_cpu_ns_per_ref and allocs_per_ref on zipf-mix; on sharded-conc under lock contention",
		func(v *layerView) float64 { return v.mean(spanBusRef) }},
	{"cache.miss_ratio", "ratio", "sim_ns_per_ref and bus_trans_per_ref on zipf-mix",
		func(v *layerView) float64 {
			return ratio(float64(v.cache.ReadMisses+v.cache.WriteMisses), float64(v.cache.Reads+v.cache.Writes))
		}},
	{"cache.write_upgrades_per_ref", "1/ref", "sim_ns_per_ref and bus_trans_per_ref on zipf-mix",
		func(v *layerView) float64 { return v.perRef(v.cache.WriteUpgrades) }},
	{"cache.dirty_evictions_per_ref", "1/ref", "sim_ns_per_ref and bus_trans_per_ref on zipf-mix",
		func(v *layerView) float64 { return v.perRef(v.cache.DirtyEvictions) }},
	{"cache.invalidations_per_ref", "1/ref", "sim_ns_per_ref and bus_trans_per_ref on zipf-mix",
		func(v *layerView) float64 { return v.perRef(v.cache.InvalidationsReceived) }},
	{"cache.updates_per_ref", "1/ref", "sim_ns_per_ref and bus_trans_per_ref on zipf-mix",
		func(v *layerView) float64 { return v.perRef(v.cache.UpdatesReceived) }},
	{"cache.interventions_per_ref", "1/ref", "sim_ns_per_ref and bus_trans_per_ref on zipf-mix",
		func(v *layerView) float64 { return v.perRef(v.cache.InterventionsSupplied) }},
	{"cache.transitions_per_ref", "1/ref", "sim_ns_per_ref and bus_trans_per_ref on zipf-mix",
		func(v *layerView) float64 { return v.perRef(sim.Metrics{Cache: v.cache}.TotalTransitions()) }},
	{"bus.host_ns_per_tx", "ns/tx", "host_cpu_ns_per_ref and allocs_per_ref on zipf-mix (ROADMAP 1b)",
		(*layerView).busHostNsPerTx},
	{"bus.aborts_per_tx", "1/tx", "sim_ns_per_ref on zipf-mix",
		func(v *layerView) float64 { return v.perTx(v.bus.Aborts) }},
	{"bus.nacks_per_tx", "1/tx", "sim_ns_per_ref on zipf-mix",
		func(v *layerView) float64 { return v.perTx(v.bus.Nacks) }},
	{"bus.data_tenures_per_tx", "1/tx", "sim_ns_per_ref on zipf-mix",
		func(v *layerView) float64 { return v.perTx(v.bus.DataTenures) }},
	{"bus.bytes_per_ref", "B/ref", "sim_ns_per_ref on zipf-mix",
		func(v *layerView) float64 { return v.perRef(v.bus.BytesTransferred) }},
	{"bus.util", "ratio", "sim_ns_per_ref on zipf-mix (busy ns over elapsed ns times shards)",
		func(v *layerView) float64 {
			return ratio(float64(v.bus.BusyNanos), v.elapse*float64(max(v.o.sc.shards, 1)))
		}},
	{"bus.phase.addr_ns_per_tx", "ns/tx", "sim_ns_per_ref on zipf-mix",
		func(v *layerView) float64 { return ratio(float64(v.t.phase[0]), float64(v.t.tx)) }},
	{"bus.phase.data_ns_per_tx", "ns/tx", "sim_ns_per_ref on zipf-mix",
		func(v *layerView) float64 { return ratio(float64(v.t.phase[1]), float64(v.t.tx)) }},
	{"bus.phase.intervention_ns_per_tx", "ns/tx", "sim_ns_per_ref on zipf-mix",
		func(v *layerView) float64 { return ratio(float64(v.t.phase[2]), float64(v.t.tx)) }},
	{"bus.phase.memory_ns_per_tx", "ns/tx", "sim_ns_per_ref on zipf-mix",
		func(v *layerView) float64 { return ratio(float64(v.t.phase[3]), float64(v.t.tx)) }},
	{"bus.phase.retry_ns_per_tx", "ns/tx", "sim_ns_per_ref on zipf-mix",
		func(v *layerView) float64 { return ratio(float64(v.t.phase[4]), float64(v.t.tx)) }},
	{"bus.phase.pend_ns_per_tx", "ns/tx", "sim_ns_per_ref on zipf-mix",
		func(v *layerView) float64 { return ratio(float64(v.t.phase[5]), float64(v.t.tx)) }},
	{"bus.arb_wait_p50_ns", "ns", "sim_ns_per_ref (perf sink, ab-observed only)",
		func(v *layerView) float64 { return v.arbWait(false) }},
	{"bus.arb_wait_p99_ns", "ns", "sim_ns_per_ref (perf sink, ab-observed only)",
		func(v *layerView) float64 { return v.arbWait(true) }},
	{"memory.reads_per_ref", "1/ref", "sim_ns_per_ref on zipf-mix",
		func(v *layerView) float64 { return ratio(v.memR, v.refs) }},
	{"memory.writes_per_ref", "1/ref", "sim_ns_per_ref on zipf-mix",
		func(v *layerView) float64 { return ratio(v.memW, v.refs) }},
	{"obs.events_per_ref", "1/ref", "host_cpu_ns_per_ref on ab-observed only",
		func(v *layerView) float64 { return v.perRef(v.t.consumeN[0]) }},
	{"obs.dropped", "count", "must be 0",
		func(v *layerView) float64 { return float64(v.t.dropped) }},
	{"obs.record.consume_ns_per_event", "ns", "host_cpu_ns_per_ref on ab-observed only",
		func(v *layerView) float64 { return v.consume(0) }},
	{"obs.coherence.consume_ns_per_event", "ns", "host_cpu_ns_per_ref on ab-observed only",
		func(v *layerView) float64 { return v.consume(1) }},
	{"obs.watch.consume_ns_per_event", "ns", "host_cpu_ns_per_ref on ab-observed only",
		func(v *layerView) float64 { return v.consume(2) }},
	{"obs.perf.consume_ns_per_event", "ns", "host_cpu_ns_per_ref on ab-observed only",
		func(v *layerView) float64 { return v.consume(3) }},
	{"check.verify_ms", "ms", "none: the checker runs after the timed span",
		func(v *layerView) float64 {
			return median(v.plain, func(ep episode) float64 { return float64(ep.verify.Microseconds()) / 1e3 })
		}},
	{"check.watch_violations", "count", "must be 0 (ab-observed only)",
		func(v *layerView) float64 {
			var n int64
			for _, ep := range append(append([]episode(nil), v.plain...), v.o.traced...) {
				n += ep.watchViolations
			}
			return float64(n)
		}},
	{"runtime.gc_cycles_per_mref", "1/Mref", "links allocs_per_ref to host_cpu_ns_per_ref on zipf-mix",
		func(v *layerView) float64 {
			var gc, refs float64
			for _, ep := range v.plain {
				gc, refs = gc+float64(ep.numGC), refs+float64(ep.refs)
			}
			return ratio(gc*1e6, refs)
		}},
	{"runtime.gc_pause_ms", "ms/Mref", "links allocs_per_ref to host_cpu_ns_per_ref on zipf-mix",
		func(v *layerView) float64 {
			var pause, refs float64
			for _, ep := range v.plain {
				pause, refs = pause+float64(ep.pauseNs), refs+float64(ep.refs)
			}
			return ratio(pause, refs) // ns per reference is ms per million references
		}},
	{"trace.overhead", "ratio", "unchecked: traced over untraced host_cpu_ns_per_ref",
		func(v *layerView) float64 {
			return ratio(median(v.o.traced, hostCPUNsPerRef), median(v.plain, hostCPUNsPerRef))
		}},
	{"obs.share", "ratio", "unchecked: ab-observed over ab-hits host_cpu_ns_per_ref (ab-observed only)",
		(*layerView).obsShare},
}

// succeeded returns the episodes that passed every check, or all of
// them when none did (the run is then reported incorrect anyway).
func succeeded(eps []episode) []episode {
	var ok []episode
	for _, ep := range eps {
		if ep.failed == "" {
			ok = append(ok, ep)
		}
	}
	if len(ok) == 0 {
		return eps
	}
	return ok
}

func (o *outcome) layerView() *layerView {
	v := &layerView{o: o, t: o.tr.totals, boards: float64(len(o.sc.boards)), plain: succeeded(o.plain)}
	for _, ep := range succeeded(o.traced) {
		v.refs += float64(ep.m.Refs)
		v.bus.Add(ep.m.Bus)
		v.cache.Add(ep.m.Cache)
		v.memR += float64(ep.m.Memory.Reads)
		v.memW += float64(ep.m.Memory.Writes)
		v.elapse += float64(ep.m.ElapsedNanos)
		if ep.m.Perf != nil {
			v.perf = ep.m.Perf
		}
	}
	return v
}

// metrics returns the run's reported metrics: end-to-end for an
// untraced run, per-layer for a traced one.
func (o *outcome) metrics() map[string]metric {
	out := make(map[string]metric)
	if !o.opt.trace {
		eps := succeeded(o.plain)
		for _, m := range endToEnd {
			out[m.name] = metric{m.value(o, eps), m.unit}
		}
		return out
	}
	v := o.layerView()
	for _, m := range perLayer {
		out[m.name] = metric{m.value(v), m.unit}
	}
	return out
}

// print writes the human-readable report and then, as the last line,
// the JSON result.
func (o *outcome) print(w io.Writer) error {
	sc := o.sc
	mode := "untraced: end-to-end metrics"
	if o.opt.trace {
		mode = "traced: per-layer metrics"
	}
	fmt.Fprintf(w, "simbench %s seed=%d seconds=%g (%s)\n", sc.name, o.opt.seed, o.opt.seconds, mode)
	fmt.Fprintf(w, "  why: %s\n", sc.why)
	engine := "deterministic sim.Engine"
	if sc.concurrent {
		engine = "sim.RunConcurrent"
	}
	fmt.Fprintf(w, "  %s, %d boards, closed loop (one outstanding reference per board), caches start empty each episode\n",
		engine, len(sc.boards))
	fmt.Fprintf(w, "  episodes: %d untraced, %d traced, %d ab-hits companions; %d refs attempted, %d failed\n",
		len(o.plain), len(o.traced), len(o.companion), o.attempted, o.failed)
	if !sc.concurrent {
		fmt.Fprintf(w, "  simulated-stat digest by stream: %s\n", strings.Join(o.digests[:min(len(o.plain), streams)], " "))
	}
	fmt.Fprintln(w, "  model: unvalidated (no hardware reference in the repository), so no error figure is given")

	m := o.metrics()
	if o.opt.trace {
		fmt.Fprintf(w, "  %-38s %14s %-7s  %s\n", "layer metric", "value", "unit", "should move")
		for _, d := range perLayer {
			fmt.Fprintf(w, "  %-38s %14.4f %-7s  %s\n", d.name, m[d.name].Value, d.unit, d.moves)
		}
	} else {
		for _, d := range endToEnd {
			fmt.Fprintf(w, "  %-22s %14.4f %s\n", d.name, m[d.name].Value, d.unit)
		}
		for _, f := range []struct {
			name string
			ns   func(episode) float64
		}{{"host_cpu_ns_per_ref", hostCPUNsPerRef}, {"host wall ns per ref", hostNsPerRef}} {
			host := make([]float64, len(o.plain))
			for i, ep := range o.plain {
				host[i] = f.ns(ep)
			}
			sort.Float64s(host)
			fmt.Fprintf(w, "  %s by episode, sorted: %.0f\n", f.name, host)
		}
	}
	for _, f := range o.failureSummary() {
		fmt.Fprintf(w, "  FAILED check %s\n", f)
	}

	line, err := json.Marshal(struct {
		Correct   bool              `json:"correct"`
		Attempted int64             `json:"attempted"`
		Failed    int64             `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{o.failed == 0, o.attempted, o.failed, m})
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", line)
	return err
}

// failureSummary names each distinct failed check with its count.
func (o *outcome) failureSummary() []string {
	counts := make(map[string]int)
	for _, f := range o.failures {
		counts[f]++
	}
	out := make([]string, 0, len(counts))
	for f, n := range counts {
		first, _, _ := strings.Cut(strings.TrimSpace(f), "\n")
		out = append(out, fmt.Sprintf("%s (%d episodes)", first, n))
	}
	sort.Strings(out)
	return out
}

// peakRSSMB is the process's resident-set high-water mark.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports kilobytes
}
