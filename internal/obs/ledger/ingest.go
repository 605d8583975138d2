package ledger

import (
	"encoding/json"
	"fmt"
	"sort"
	"strconv"
	"strings"

	"futurebus/internal/obs"
	"futurebus/internal/obs/coherence"
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
//   - fbperf run reports: _meta, battery, sim quantiles, host costs;
//   - fbt causal analyze -json: run totals and per-cause blame;
//   - fbt lens analyze -json: per-protocol coherence rates;
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
	switch {
	case top["reports"] != nil:
		return ingestSweep(data, source)
	case top["battery"] != nil && top["sim"] != nil:
		rec, err := ingestPerf(data, source)
		return wrap(rec, err)
	case top["by_cause"] != nil && top["path_cost_ns"] != nil:
		rec, err := ingestCausal(data, source)
		return wrap(rec, err)
	case top["state_events"] != nil && top["protocols"] != nil:
		rec, err := ingestLens(data, source)
		return wrap(rec, err)
	case hasBenchmarkKey(top): // _meta is optional (pre-provenance BENCH files lack it)
		rec, err := ingestBench(data, source)
		return wrap(rec, err)
	default:
		return nil, fmt.Errorf("ledger: unrecognized report format (no bench/fbperf/fbcausal/fblens/fbsweep markers)")
	}
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
func ingestBench(data []byte, source string) (Record, error) {
	var doc map[string]json.RawMessage
	if err := json.Unmarshal(data, &doc); err != nil {
		return Record{}, err
	}
	rec := newRecord(KindBench, "", source)
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

// perfReport mirrors the fbperf run report shape (cmd/fbperf.Report)
// without importing the main package.
type perfReport struct {
	Meta    Meta   `json:"_meta"`
	Battery string `json:"battery"`
	Engine  string `json:"engine"`
	Procs   int    `json:"procs"`
	Host    struct {
		WallNS             int64   `json:"wall_ns"`
		AllocBytesPerRef   float64 `json:"alloc_bytes_per_ref"`
		AllocObjectsPerRef float64 `json:"alloc_objects_per_ref"`
		RefsPerSec         float64 `json:"refs_per_sec"`
		GCPauseTotalNS     uint64  `json:"gc_pause_total_ns"`
	} `json:"host"`
	Sim *struct {
		Latency map[string]obs.Summary `json:"latency"`
		Queue   []struct {
			Peak int64 `json:"peak"`
		} `json:"queue"`
		Nacks       int64   `json:"nacks"`
		ArbFairness float64 `json:"arb_fairness"`
	} `json:"sim"`
}

// ingestPerf folds an fbperf run report. Metric keys match the rows
// fbperf compare prints (perf.*_ns.p50/.p99/.p999, queue.peak_depth,
// host.*), so the two views of a run agree on names; the battery/
// engine/procs tuple becomes the label separating incomparable series.
func ingestPerf(data []byte, source string) (Record, error) {
	var rep perfReport
	if err := json.Unmarshal(data, &rep); err != nil {
		return Record{}, fmt.Errorf("ledger: fbperf report: %w", err)
	}
	if rep.Sim == nil {
		return Record{}, fmt.Errorf("ledger: fbperf report has no sim telemetry")
	}
	rec := newRecord(KindPerf, fmt.Sprintf("%s/%s/p%d", rep.Battery, rep.Engine, rep.Procs), source)
	rec.Meta = rep.Meta
	for name, s := range rep.Sim.Latency {
		rec.Metrics[name+".p50"] = float64(s.P50)
		rec.Metrics[name+".p99"] = float64(s.P99)
		rec.Metrics[name+".p999"] = float64(s.P999)
	}
	var peak int64
	for _, q := range rep.Sim.Queue {
		if q.Peak > peak {
			peak = q.Peak
		}
	}
	rec.Metrics["queue.peak_depth"] = float64(peak)
	if rep.Sim.ArbFairness > 0 {
		rec.Metrics["queue.arb_fairness"] = rep.Sim.ArbFairness
	}
	rec.Metrics["host.alloc_bytes_per_ref"] = rep.Host.AllocBytesPerRef
	rec.Metrics["host.alloc_objects_per_ref"] = rep.Host.AllocObjectsPerRef
	rec.Metrics["host.wall_ns"] = float64(rep.Host.WallNS)
	rec.Metrics["host.gc_pause_total_ns"] = float64(rep.Host.GCPauseTotalNS)
	rec.Metrics["host.refs_per_sec"] = rep.Host.RefsPerSec
	return rec, nil
}

// causalReport mirrors the fbt causal analyze -json shape (totals and
// blame tables; the path itself is not a metric).
type causalReport struct {
	Fingerprint string           `json:"fingerprint"`
	Txs         int64            `json:"txs"`
	ElapsedNS   int64            `json:"elapsed_ns"`
	TotalCostNS int64            `json:"total_cost_ns"`
	TotalWaitNS int64            `json:"total_wait_ns"`
	Aborts      int64            `json:"aborts"`
	ByCause     map[string]int64 `json:"by_cause"`
	ByPhase     map[string]int64 `json:"by_phase"`
	PathCostNS  int64            `json:"path_cost_ns"`
}

// ingestCausal folds an fbt causal analysis: run totals plus the
// per-cause blame vector, labelled by the trace's config fingerprint.
func ingestCausal(data []byte, source string) (Record, error) {
	var rep causalReport
	if err := json.Unmarshal(data, &rep); err != nil {
		return Record{}, fmt.Errorf("ledger: fbt causal report: %w", err)
	}
	rec := newRecord(KindCausal, rep.Fingerprint, source)
	rec.Metrics["causal.txs"] = float64(rep.Txs)
	rec.Metrics["causal.elapsed_ns"] = float64(rep.ElapsedNS)
	rec.Metrics["causal.total_cost_ns"] = float64(rep.TotalCostNS)
	rec.Metrics["causal.total_wait_ns"] = float64(rep.TotalWaitNS)
	rec.Metrics["causal.path_cost_ns"] = float64(rep.PathCostNS)
	rec.Metrics["causal.aborts"] = float64(rep.Aborts)
	for cause, v := range rep.ByCause {
		rec.Metrics["causal.by_cause."+sanitizeKey(cause)+"_ns"] = float64(v)
	}
	return rec, nil
}

// lensReport mirrors the fbt lens analyze -json shape: the fingerprint
// wrapper around a coherence.Analysis.
type lensReport struct {
	Fingerprint string `json:"fingerprint"`
	coherence.Analysis
}

// ingestLens folds an fbt lens analysis into the same six per-protocol
// rates fbt lens diff gates on (coherence.Diff), plus the raw transition
// count for context.
func ingestLens(data []byte, source string) (Record, error) {
	var rep lensReport
	if err := json.Unmarshal(data, &rep); err != nil {
		return Record{}, fmt.Errorf("ledger: fbt lens report: %w", err)
	}
	rec := newRecord(KindLens, rep.Fingerprint, source)
	for name, p := range rep.Protocols {
		prefix := "lens." + sanitizeKey(name) + "."
		rec.Metrics[prefix+"transitions"] = float64(p.Transitions)
		rec.Metrics[prefix+"inv_per_transition"] = ratio(p.Invalidations, p.Transitions)
		rec.Metrics[prefix+"ownership_moves_per_transition"] = ratio(p.OwnershipMoves, p.Transitions)
		rec.Metrics[prefix+"inv_fanout_mean"] = coherence.FanoutMean(p.InvFanout)
		rec.Metrics[prefix+"upd_fanout_mean"] = coherence.FanoutMean(p.UpdFanout)
		rec.Metrics[prefix+"mem_sourced_share"] = ratio(p.MemSourced, p.CacheSourced+p.MemSourced)
		rec.Metrics[prefix+"cache_sourced_share"] = ratio(p.CacheSourced, p.CacheSourced+p.MemSourced)
	}
	if len(rec.Metrics) == 0 {
		return Record{}, fmt.Errorf("ledger: fbt lens report carries no protocols")
	}
	return rec, nil
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
// cells ("sweep.<rowkey>.<column>" = numeric cell). The P1 protocol
// grid and the P11 tenure×discipline grid both flatten this way.
func ingestSweep(data []byte, source string) ([]Record, error) {
	var doc sweepDoc
	if err := json.Unmarshal(data, &doc); err != nil {
		return nil, fmt.Errorf("ledger: fbsweep doc: %w", err)
	}
	var recs []Record
	for _, rep := range doc.Reports {
		rec := newRecord(KindSweep, rep.ID, source)
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
				if v, err := strconv.ParseFloat(strings.TrimSpace(cell), 64); err == nil {
					nums = append(nums, numCell{sanitizeKey(col), v})
				} else {
					keyParts = append(keyParts, sanitizeKey(cell))
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

func newRecord(kind, label, source string) Record {
	return Record{
		Schema:  Schema,
		Kind:    kind,
		Label:   label,
		Source:  source,
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
