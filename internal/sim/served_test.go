package sim

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"testing"

	"futurebus/internal/obs"
	"futurebus/internal/obs/causal"
	"futurebus/internal/obs/coherence"
	"futurebus/internal/obs/obshttp"
	"futurebus/internal/obs/watch"
)

// TestServedAnalysesMatchReplay is the differential check between the
// live and the offline analyzers: a zipf-mix run (split tenure, rr, 2
// shards) served with the full sink set of fbsim -serve -watch
// -record-out must serve the same /violations, /coherence and /causal
// documents as watch, coherence and causal replays of its own .fbt.
func TestServedAnalysesMatchReplay(t *testing.T) {
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
	defer srv.Close()
	cfg := gc.cfg
	cfg.Obs = rec
	sys, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := (&Engine{Sys: sys, Gens: gc.gens(sys)}).Run(gc.refs); err != nil {
		t.Fatal(err)
	}
	if err := rec.Close(); err != nil {
		t.Fatal(err)
	}

	mon, coh, cau := watch.New(watch.Config{}), &coherence.Analyzer{}, &causal.Analyzer{}
	if _, _, err := obs.ReplayTrace(bytes.NewReader(fbt.Bytes()), mon, coh, cau); err != nil {
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
		resp, err := http.Get(srv.URL() + c.path)
		if err != nil {
			t.Fatal(err)
		}
		got, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want.Bytes()) {
			t.Errorf("served %s differs from the replay of the recorded trace:\nserved %.300s\nreplay %.300s",
				c.path, got, want.Bytes())
		}
	}
}
