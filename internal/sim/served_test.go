package sim

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"io"
	"net/http"
	"sort"
	"strings"
	"testing"

	"futurebus/internal/obs"
	"futurebus/internal/obs/causal"
	"futurebus/internal/obs/coherence"
	"futurebus/internal/obs/obshttp"
	"futurebus/internal/obs/watch"
)

// servedZipfMix runs the zipf-mix golden case (split tenure, rr, 2
// shards) served with the full sink set of fbsim -serve -watch
// -record-out, live gauges included, and returns the server, still up
// after the run, and the run's .fbt recording.
func servedZipfMix(t *testing.T) (*obshttp.Server, []byte) {
	t.Helper()
	var gc goldenCase
	for _, c := range goldenCases() {
		if c.name == "zipf-mix" {
			gc = c
		}
	}
	svc := obshttp.NewService(0)
	svc.EnableWatch(watch.Config{})
	var fbt bytes.Buffer
	rec := obs.New(append(svc.Sinks(), obs.NewRecordSink(&fbt, obs.TraceMeta{Fingerprint: "served"}))...)
	svc.ObserveRecorder(rec)
	srv, err := svc.Serve("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })
	cfg := gc.cfg
	cfg.Obs = rec
	sys, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	sys.RegisterLiveGauges(svc.Registry, DefaultHitLatency)
	if _, err := (&Engine{Sys: sys, Gens: gc.gens(sys)}).Run(gc.refs); err != nil {
		t.Fatal(err)
	}
	if err := rec.Close(); err != nil {
		t.Fatal(err)
	}
	return srv, fbt.Bytes()
}

// httpBody GETs url and returns the response body.
func httpBody(t *testing.T, url string) []byte {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return body
}

// TestServedAnalysesMatchReplay is the differential check between the
// live and the offline analyzers: a zipf-mix run (split tenure, rr, 2
// shards) served with the full sink set of fbsim -serve -watch
// -record-out must serve the same /violations, /coherence and /causal
// documents as watch, coherence and causal replays of its own .fbt.
func TestServedAnalysesMatchReplay(t *testing.T) {
	srv, fbt := servedZipfMix(t)
	mon, coh, cau := watch.New(watch.Config{}), &coherence.Analyzer{}, &causal.Analyzer{}
	if _, _, err := obs.ReplayTrace(bytes.NewReader(fbt), mon, coh, cau); err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		path    string
		offline any
	}{
		{"/violations", mon.Report()},
		{"/coherence", coh.Analyze(0)},
		{"/causal", cau.Analyze()},
	} {
		var want bytes.Buffer
		enc := json.NewEncoder(&want)
		enc.SetIndent("", "  ")
		if err := enc.Encode(c.offline); err != nil {
			t.Fatal(err)
		}
		if got := httpBody(t, srv.URL()+c.path); !bytes.Equal(got, want.Bytes()) {
			t.Errorf("served %s differs from the replay of the recorded trace:\nserved %.300s\nreplay %.300s",
				c.path, got, want.Bytes())
		}
	}
}

// goldenServed is what the served zipf-mix run shows once it has
// finished: the /slow and /perf documents by the sha256 of their bytes,
// and /metrics as its sorted set of lines.
type goldenServed struct {
	SlowSHA256 string
	PerfSHA256 string
	Metrics    []string
}

// TestServedDocumentsGolden pins the served zipf-mix run's /slow,
// /perf and /metrics against testdata/served_zipf-mix.json, so moving
// a number from one sink to another, or changing how the registry
// reads it, cannot change what a scrape shows. /metrics is compared as
// a sorted set of lines: the order of series within a family is free,
// their values are not.
func TestServedDocumentsGolden(t *testing.T) {
	srv, _ := servedZipfMix(t)
	digest := func(path string) string {
		sum := sha256.Sum256(httpBody(t, srv.URL()+path))
		return hex.EncodeToString(sum[:])
	}
	metrics := strings.Split(strings.TrimSuffix(string(httpBody(t, srv.URL()+"/metrics")), "\n"), "\n")
	sort.Strings(metrics)
	matchGolden(t, "served documents", "served_zipf-mix.json", goldenServed{
		SlowSHA256: digest("/slow"),
		PerfSHA256: digest("/perf"),
		Metrics:    metrics,
	})
}
