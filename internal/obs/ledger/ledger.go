// Package ledger is the longitudinal run-ledger of the regression
// observatory: an append-only JSONL file with one record per
// benchmark/telemetry run, so regression verdicts can be computed
// against the rolling statistics of many runs instead of one brittle
// baseline file.
//
// Each line is one Record: provenance (_meta, mirroring the block
// scripts/bench.sh embeds in BENCH json), a source kind naming the
// report format it was ingested from, an optional label separating
// incomparable series of the same kind (e.g. fbperf batteries), and a
// flat metric-key → value map. Flatness is the point: every report
// format the tree emits — BENCH_*.json, fbperf run reports, fbt causal
// and fbt lens analyze -json, fbsweep -json battery docs — folds into
// the same shape (see ingest.go), so one gate covers them all: Gate
// judges a run against the rolling baseline of its history, and Diff
// is the same gate over a history of one run.
//
// The file is append-only by construction (Append opens O_APPEND) and
// by contract: records are never rewritten, and the reader tolerates a
// truncated or corrupt trailing record (a crashed writer) without
// losing the history before it. Corruption anywhere else is an error —
// that is damage, not an interrupted append.
package ledger

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"os/exec"
	"runtime"
	"strings"
	"time"
)

// Schema is the ledger record schema version. Bump only when an
// existing field changes meaning; adding fields is not a bump (JSON
// readers ignore unknown keys, and old records simply lack the new
// field). TestLedgerSchemaAppendOnly pins the field names.
const Schema = 1

// Source kinds. One per report format the ingesters understand. The
// names are a stored format: fbt causal and fbt lens reports keep the
// kinds of the tools they replaced.
const (
	KindBench  = "bench"    // scripts/bench.sh BENCH_*.json
	KindPerf   = "fbperf"   // fbperf run report
	KindCausal = "fbcausal" // fbt causal analyze -json
	KindLens   = "fblens"   // fbt lens analyze -json
	KindSweep  = "fbsweep"  // fbsweep -json battery doc
)

// Meta pins the environment a run was produced in. Field names match
// the _meta object scripts/bench.sh, fbperf and fbsweep emit, so
// ingestion is a straight copy.
type Meta struct {
	GitSHA     string `json:"git_sha,omitempty"`
	Go         string `json:"go,omitempty"`
	GOMAXPROCS int    `json:"gomaxprocs,omitempty"`
	CPUs       int    `json:"cpus,omitempty"`
	DateUTC    string `json:"date_utc,omitempty"`
}

// CurrentMeta pins the environment of the running process: the _meta
// block fbperf and fbsweep write into their reports. The git SHA is
// best-effort: a run from an exported tree has none, and a missing SHA
// must not fail the run.
func CurrentMeta() Meta {
	m := Meta{
		Go:         runtime.Version(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		CPUs:       runtime.NumCPU(),
		DateUTC:    time.Now().UTC().Format(time.RFC3339),
	}
	if out, err := exec.Command("git", "rev-parse", "--short", "HEAD").Output(); err == nil {
		m.GitSHA = strings.TrimSpace(string(out))
	}
	return m
}

// Record is one ledger line: one run of one report family.
type Record struct {
	// Schema is the record's schema version (see Schema).
	Schema int `json:"schema"`
	// Kind names the source report format (Kind* constants).
	Kind string `json:"kind"`
	// Label separates incomparable series of the same kind: the fbperf
	// battery/engine/procs tuple, an fbsweep report ID, the fbt causal
	// config fingerprint. Rolling baselines only mix records with equal
	// kind AND label.
	Label string `json:"label,omitempty"`
	// Source is the file the record was ingested from (best-effort).
	Source string `json:"source,omitempty"`
	// Meta is the run's provenance.
	Meta Meta `json:"_meta"`
	// Metrics is the flat metric-key → value map. Keys follow the
	// "family.metric.unit" scheme in the OBSERVABILITY.md glossary.
	Metrics map[string]float64 `json:"metrics"`
}

// Append writes the records to the ledger file, one JSON line each,
// creating it if needed. Every record is encoded before the file is
// touched, so a record that cannot be encoded leaves no file behind.
// The file is opened O_APPEND so concurrent appenders interleave whole
// lines, never bytes.
func Append(path string, recs ...Record) error {
	var buf bytes.Buffer
	for i := range recs {
		line, err := json.Marshal(&recs[i])
		if err != nil {
			return err
		}
		buf.Write(line)
		buf.WriteByte('\n')
	}
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return err
	}
	defer f.Close()
	if _, err := f.Write(buf.Bytes()); err != nil {
		return err
	}
	return f.Close()
}

// Read loads every record from the ledger file, oldest first. A
// truncated or unparseable trailing record is tolerated (dropped = 1):
// an interrupted append must not invalidate the history before it.
// Corruption followed by further valid records is an error.
func Read(path string) (recs []Record, dropped int, err error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, 0, err
	}
	defer f.Close()
	recs, dropped, err = Decode(f)
	if err != nil {
		return nil, dropped, fmt.Errorf("%s: %w", path, err)
	}
	return recs, dropped, nil
}

// Decode reads ledger lines from r (see Read for the trailing-record
// tolerance contract).
func Decode(r io.Reader) ([]Record, int, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 16*1024*1024)
	var recs []Record
	badLine := 0 // 1-based line number of the first undecodable line
	line := 0
	for sc.Scan() {
		line++
		text := bytes.TrimSpace(sc.Bytes())
		if len(text) == 0 {
			continue
		}
		var rec Record
		if err := json.Unmarshal(text, &rec); err != nil || rec.Kind == "" {
			if badLine != 0 {
				return nil, 0, fmt.Errorf("line %d: undecodable record (and line %d after it) — ledger is damaged mid-file", badLine, line)
			}
			badLine = line
			continue
		}
		if badLine != 0 {
			return nil, 0, fmt.Errorf("line %d: undecodable record followed by valid line %d — ledger is damaged mid-file", badLine, line)
		}
		recs = append(recs, rec)
	}
	if err := sc.Err(); err != nil {
		return nil, 0, err
	}
	if badLine != 0 {
		// The bad line was the last one: an interrupted append.
		return recs, 1, nil
	}
	return recs, 0, nil
}

// Filter returns the records matching kind and label, in input order.
// An empty kind or label matches everything on that axis.
func Filter(recs []Record, kind, label string) []Record {
	var out []Record
	for _, r := range recs {
		if kind != "" && r.Kind != kind {
			continue
		}
		if label != "" && r.Label != label {
			continue
		}
		out = append(out, r)
	}
	return out
}

// Keys returns the sorted union of metric keys across the records.
func Keys(recs []Record) []string {
	set := make(map[string]bool)
	for _, r := range recs {
		for k := range r.Metrics {
			set[k] = true
		}
	}
	return sortedKeys(set)
}
