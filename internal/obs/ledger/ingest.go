package ledger

import (
	"encoding/json"
	"fmt"
	"math"
	"sort"
	"strconv"
	"strings"

	"futurebus/internal/obs/causal"
	"futurebus/internal/obs/coherence"
	"futurebus/internal/obs/perf"
)

// Ingest sniffs the report format in data and folds it into ledger
// records: one record per run, except fbsweep docs which yield one
// record per battery table. source is recorded on each record
// (best-effort provenance; pass "" if unknown).
//
// Supported formats:
//
//   - BENCH_*.json (scripts/bench.sh): flat benchmark → metric object
//     with an embedded _meta block;
//   - fbperf run reports (PerfReport);
//   - fbt causal analyze -json (CausalRecord);
//   - fbt lens analyze -json (LensRecord);
//   - fbsweep -json: the battery document with its report tables.
func Ingest(data []byte, source string) ([]Record, error) {
	data = []byte(strings.TrimSpace(string(data)))
	if len(data) == 0 {
		return nil, fmt.Errorf("ledger: empty report")
	}
	var top map[string]json.RawMessage
	if err := json.Unmarshal(data, &top); err != nil {
		return nil, fmt.Errorf("ledger: unrecognized report (not a JSON object): %w", err)
	}
	var recs []Record
	var err error
	switch {
	case top["reports"] != nil:
		recs, err = ingestSweep(data)
	case top["battery"] != nil && top["sim"] != nil:
		recs, err = wrap(ingestPerf(data))
	case top["by_cause"] != nil && top["path_cost_ns"] != nil:
		recs, err = wrap(ingestCausal(data))
	case top["state_events"] != nil && top["protocols"] != nil:
		recs, err = wrap(ingestLens(data))
	case hasBenchmarkKey(top): // _meta is optional (pre-provenance BENCH files lack it)
		recs, err = wrap(ingestBench(data))
	default:
		return nil, fmt.Errorf("ledger: unrecognized report format (no bench/fbperf/fbcausal/fblens/fbsweep markers)")
	}
	for i := range recs {
		recs[i].Source = source
	}
	return recs, err
}

func wrap(rec Record, err error) ([]Record, error) {
	if err != nil {
		return nil, err
	}
	return []Record{rec}, nil
}

func hasBenchmarkKey(top map[string]json.RawMessage) bool {
	for k := range top {
		if strings.HasPrefix(k, "Benchmark") {
			return true
		}
	}
	return false
}

// ingestBench folds a BENCH_*.json document: every benchmark's metric
// pairs become "bench.<name>.<unit>" keys ("runs" is bookkeeping, not
// a metric).
func ingestBench(data []byte) (Record, error) {
	var doc map[string]json.RawMessage
	if err := json.Unmarshal(data, &doc); err != nil {
		return Record{}, err
	}
	rec := newRecord(KindBench, "")
	if raw, ok := doc["_meta"]; ok {
		if err := json.Unmarshal(raw, &rec.Meta); err != nil {
			return Record{}, fmt.Errorf("ledger: bench _meta: %w", err)
		}
	}
	for name, raw := range doc {
		if !strings.HasPrefix(name, "Benchmark") {
			continue
		}
		var metrics map[string]float64
		if err := json.Unmarshal(raw, &metrics); err != nil {
			return Record{}, fmt.Errorf("ledger: bench entry %s: %w", name, err)
		}
		for unit, v := range metrics {
			if unit == "runs" {
				continue
			}
			rec.Metrics["bench."+name+"."+unit] = v
		}
	}
	if len(rec.Metrics) == 0 {
		return Record{}, fmt.Errorf("ledger: bench document carries no benchmark metrics")
	}
	return rec, nil
}

// PerfReport is the fbperf run report (fbperf run -out).
type PerfReport struct {
	Meta    Meta   `json:"_meta"`
	Battery string `json:"battery"`
	Engine  string `json:"engine"`
	Procs   int    `json:"procs"`
	Refs    int64  `json:"refs"`
	Seed    uint64 `json:"seed"`
	// Host is the run's host-cost accounting (wall clock, allocations
	// per reference, GC bill, goroutine peak).
	Host perf.HostReport `json:"host"`
	// Sim is the saturation telemetry in simulated time: latency
	// quantiles and per-shard arbitration queue stats.
	Sim *perf.Snapshot `json:"sim"`
}

func ingestPerf(data []byte) (Record, error) {
	var rep PerfReport
	if err := json.Unmarshal(data, &rep); err != nil {
		return Record{}, fmt.Errorf("ledger: fbperf report: %w", err)
	}
	if rep.Sim == nil {
		return Record{}, fmt.Errorf("ledger: fbperf report has no sim telemetry")
	}
	// The battery/engine/procs tuple separates incomparable series.
	rec := PerfRecord(fmt.Sprintf("%s/%s/p%d", rep.Battery, rep.Engine, rep.Procs), rep.Sim, &rep.Host)
	rec.Meta = rep.Meta
	return rec, nil
}

// PerfRecord flattens fbperf telemetry: the p50/p99/p999 of every
// simulated latency (perf.*_ns), the deepest arbitration queue and the
// fairness index, and, when host is non-nil (a finished run), the
// allocation and host-time costs per reference.
func PerfRecord(label string, sim *perf.Snapshot, host *perf.HostReport) Record {
	rec := newRecord(KindPerf, label)
	m := rec.Metrics
	for name, s := range sim.Latency {
		m[name+".p50"] = float64(s.P50)
		m[name+".p99"] = float64(s.P99)
		m[name+".p999"] = float64(s.P999)
	}
	m["queue.peak_depth"] = float64(sim.PeakQueueDepth())
	if sim.ArbFairness > 0 {
		m["queue.arb_fairness"] = sim.ArbFairness
	}
	if host != nil {
		m["host.alloc_bytes_per_ref"] = host.AllocBytesPerRef
		m["host.alloc_objects_per_ref"] = host.AllocObjectsPerRef
		m["host.wall_ns"] = float64(host.WallNS)
		m["host.gc_pause_total_ns"] = float64(host.GCPauseTotalNS)
		m["host.refs_per_sec"] = host.RefsPerSec
	}
	return rec
}

func ingestCausal(data []byte) (Record, error) {
	var rep struct {
		Fingerprint string `json:"fingerprint"`
		causal.Analysis
	}
	if err := json.Unmarshal(data, &rep); err != nil {
		return Record{}, fmt.Errorf("ledger: fbt causal report: %w", err)
	}
	return CausalRecord(rep.Fingerprint, &rep.Analysis), nil
}

// CausalRecord flattens an fbt causal analysis, labelled by its
// trace's config fingerprint: the run totals plus the per-cause and
// per-phase blame in nanoseconds. The critical path itself is not a
// metric.
func CausalRecord(fingerprint string, an *causal.Analysis) Record {
	rec := newRecord(KindCausal, fingerprint)
	m := rec.Metrics
	m["causal.txs"] = float64(an.Txs)
	m["causal.aborts"] = float64(an.Aborts)
	m["causal.elapsed_ns"] = float64(an.Elapsed)
	m["causal.total_cost_ns"] = float64(an.TotalCost)
	m["causal.total_wait_ns"] = float64(an.TotalWait)
	m["causal.path_cost_ns"] = float64(an.PathCost)
	for i, cause := range causal.Causes {
		m["causal.by_cause."+cause+"_ns"] = float64(an.ByCause[i])
	}
	for phase, v := range an.ByPhase {
		m["causal.by_phase."+sanitizeKey(phase)+"_ns"] = float64(v)
	}
	return rec
}

func ingestLens(data []byte) (Record, error) {
	var rep struct {
		Fingerprint string `json:"fingerprint"`
		coherence.Analysis
	}
	if err := json.Unmarshal(data, &rep); err != nil {
		return Record{}, fmt.Errorf("ledger: fbt lens report: %w", err)
	}
	rec := LensRecord(rep.Fingerprint, &rep.Analysis)
	if len(rec.Metrics) == 0 {
		return Record{}, fmt.Errorf("ledger: fbt lens report carries no protocols")
	}
	return rec, nil
}

// LensRecord flattens an fbt lens analysis, labelled by its trace's
// config fingerprint: six coherence rates per protocol (Tables 1–2's
// invalidation and ownership traffic, fan-out, and who sources a read)
// plus the protocol's transition count.
func LensRecord(fingerprint string, an *coherence.Analysis) Record {
	rec := newRecord(KindLens, fingerprint)
	for name, p := range an.Protocols {
		if p == nil {
			continue
		}
		prefix := "lens." + sanitizeKey(name) + "."
		rec.Metrics[prefix+"transitions"] = float64(p.Transitions)
		rec.Metrics[prefix+"inv_per_transition"] = ratio(p.Invalidations, p.Transitions)
		rec.Metrics[prefix+"ownership_moves_per_transition"] = ratio(p.OwnershipMoves, p.Transitions)
		rec.Metrics[prefix+"inv_fanout_mean"] = coherence.FanoutMean(p.InvFanout)
		rec.Metrics[prefix+"upd_fanout_mean"] = coherence.FanoutMean(p.UpdFanout)
		rec.Metrics[prefix+"mem_sourced_share"] = ratio(p.MemSourced, p.CacheSourced+p.MemSourced)
		rec.Metrics[prefix+"cache_sourced_share"] = ratio(p.CacheSourced, p.CacheSourced+p.MemSourced)
	}
	return rec
}

// sweepDoc mirrors the fbsweep -json document.
type sweepDoc struct {
	Meta    Meta `json:"_meta"`
	Fbsweep struct {
		Exp    string `json:"exp"`
		Refs   int    `json:"refs"`
		Seed   uint64 `json:"seed"`
		Shards int    `json:"shards"`
	} `json:"fbsweep"`
	Reports []struct {
		ID      string     `json:"id"`
		Columns []string   `json:"columns"`
		Rows    [][]string `json:"rows"`
	} `json:"reports"`
}

// ingestSweep folds an fbsweep -json battery document: one record per
// report table (label = report ID), each row keyed by its non-numeric
// cells ("sweep.<rowkey>.<column>" = numeric cell; a non-finite cell
// is neither). The P1 protocol grid and the P11 tenure×discipline grid
// both flatten this way.
func ingestSweep(data []byte) ([]Record, error) {
	var doc sweepDoc
	if err := json.Unmarshal(data, &doc); err != nil {
		return nil, fmt.Errorf("ledger: fbsweep doc: %w", err)
	}
	var recs []Record
	for _, rep := range doc.Reports {
		rec := newRecord(KindSweep, rep.ID)
		rec.Meta = doc.Meta
		for ri, row := range rep.Rows {
			var keyParts []string
			type numCell struct {
				col string
				v   float64
			}
			var nums []numCell
			for ci, cell := range row {
				col := fmt.Sprintf("col%d", ci)
				if ci < len(rep.Columns) {
					col = rep.Columns[ci]
				}
				v, err := strconv.ParseFloat(strings.TrimSpace(cell), 64)
				switch {
				case err != nil:
					keyParts = append(keyParts, sanitizeKey(cell))
				case !math.IsNaN(v) && !math.IsInf(v, 0): // "NaN" and "Inf" cells are not metrics
					nums = append(nums, numCell{sanitizeKey(col), v})
				}
			}
			rowKey := strings.Join(keyParts, "/")
			if rowKey == "" {
				rowKey = fmt.Sprintf("row%d", ri)
			}
			for _, nc := range nums {
				rec.Metrics["sweep."+rowKey+"."+nc.col] = nc.v
			}
		}
		if len(rec.Metrics) > 0 {
			recs = append(recs, rec)
		}
	}
	if len(recs) == 0 {
		return nil, fmt.Errorf("ledger: fbsweep doc carries no numeric cells")
	}
	return recs, nil
}

func ratio(num, den int64) float64 {
	if den == 0 {
		return 0
	}
	return float64(num) / float64(den)
}

// sanitizeKey folds a free-form cell or column name into the metric-key
// alphabet: "/" (a rate) becomes "_per_" as in bench.sh, and anything
// outside [A-Za-z0-9_.%+-] becomes "_".
func sanitizeKey(s string) string {
	s = strings.ReplaceAll(s, "/", "_per_")
	return strings.Map(func(r rune) rune {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r >= '0' && r <= '9':
			return r
		case r == '_' || r == '.' || r == '%' || r == '+' || r == '-':
			return r
		default:
			return '_'
		}
	}, s)
}

func newRecord(kind, label string) Record {
	return Record{
		Schema:  Schema,
		Kind:    kind,
		Label:   label,
		Metrics: make(map[string]float64),
	}
}

func sortedKeys(set map[string]bool) []string {
	keys := make([]string, 0, len(set))
	for k := range set {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
