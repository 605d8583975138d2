package obshttp

import (
	"bufio"
	"encoding/json"
	"io"
	"net/http"
	"strings"
	"testing"
	"time"

	"futurebus/internal/core"
	"futurebus/internal/obs"
	"futurebus/internal/obs/leaktest"
)

// TestRegistryPrometheus: the text exposition has TYPE/HELP headers,
// sorted families, label rendering, collected series sorted by label
// set, and summary quantile series.
func TestRegistryPrometheus(t *testing.T) {
	reg := NewRegistry()
	reg.CounterFunc("zz_total", "", "last family", func() int64 { return 3 })
	reg.FamilyFunc("aa_total", "counter", "first family", func(add func(string, int64)) {
		add(`op="W"`, 2)
		add(`op="R"`, 1)
	})
	reg.FamilyFunc("empty_total", "counter", "never adds a series", func(func(string, int64)) {})
	reg.GaugeFunc("mid_gauge", "", "a gauge", func() float64 { return 0.5 })
	var lat obs.Histogram
	for _, v := range []int64{10, 20, 1000} {
		lat.Observe(v)
	}
	reg.Summary("lat_ns", `phase="arb"`, "a summary", func() obs.Histogram { return lat })

	var b strings.Builder
	if err := reg.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	text := b.String()
	for _, want := range []string{
		"# HELP aa_total first family\n# TYPE aa_total counter\naa_total{op=\"R\"} 1\naa_total{op=\"W\"} 2\n",
		"# TYPE mid_gauge gauge\nmid_gauge 0.5\n",
		"# TYPE zz_total counter\nzz_total 3\n",
		"# TYPE lat_ns summary\n",
		"lat_ns{phase=\"arb\",quantile=\"0.5\"}",
		"lat_ns{phase=\"arb\",quantile=\"0.99\"}",
		"lat_ns_sum{phase=\"arb\"} 1030\n",
		"lat_ns_count{phase=\"arb\"} 3\n",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("exposition missing %q in:\n%s", want, text)
		}
	}
	if strings.Index(text, "# TYPE aa_total") > strings.Index(text, "# TYPE zz_total") {
		t.Error("families not sorted by name")
	}
	if strings.Contains(text, "empty_total") {
		t.Errorf("a family without series rendered its header:\n%s", text)
	}
	// Registering a (name, labels) pair again replaces its source.
	reg.CounterFunc("zz_total", "", "last family", func() int64 { return 4 })
	b.Reset()
	if err := reg.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	if text := b.String(); !strings.Contains(text, "zz_total 4\n") || strings.Contains(text, "zz_total 3\n") {
		t.Errorf("re-registered counter not replaced:\n%s", text)
	}
}

// TestSummarySumExact: a summary's _sum is its histogram's exact sample
// sum. These seven samples total 123,456,828, and mean × count rounds
// to 1.2345682799999999e+08 in float64.
func TestSummarySumExact(t *testing.T) {
	var h obs.Histogram
	for _, v := range []int64{17636689, 17636689, 17636689, 17636689, 17636689, 17636689, 17636694} {
		h.Observe(v)
	}
	reg := NewRegistry()
	reg.Summary("x_ns", "", "seven samples", func() obs.Histogram { return h })
	var b strings.Builder
	if err := reg.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"x_ns_sum 123456828\n", "x_ns_count 7\n"} {
		if !strings.Contains(b.String(), want) {
			t.Errorf("exposition missing %q in:\n%s", want, b.String())
		}
	}
}

// TestServedFoldPhasesAndSlowest: the service's own fold observes the
// always-paid phases (arb, addr, data) on every transaction and the
// conditional ones only when they cost something, and its /slow ring
// keeps the top-K slowest transactions, slowest first, with their
// breakdown.
func TestServedFoldPhasesAndSlowest(t *testing.T) {
	tx := func(seq uint64, proc int, dur, arb, addr, data, intv, mem, retry int64) *obs.Event {
		return &obs.Event{
			Seq: seq, Kind: obs.KindTx, Proc: int32(proc), Dur: dur, Op: obs.OpRead, Col: 6,
			ArbNS: arb, AddrNS: addr, DataNS: data, IntvNS: intv, MemNS: mem, RetryNS: retry,
		}
	}
	m := newMetricsSink(NewRegistry(), 2)
	m.Consume(tx(1, 0, 645, 0, 125, 320, 0, 200, 0))
	m.Consume(tx(2, 0, 770, 50, 125, 320, 0, 200, 125))
	m.Consume(tx(3, 1, 565, 10, 125, 320, 120, 0, 0))
	m.Consume(&obs.Event{Kind: obs.KindStall, Dur: 999}) // no span

	for ph, want := range [obs.NumPhases]int64{3, 3, 3, 1, 2, 1} {
		if got := m.phases[ph].Count(); got != want {
			t.Errorf("phase %s: %d samples, want %d", obs.PhaseNames[ph], got, want)
		}
	}
	if got := m.phases[obs.PhaseArb].Summary().Max; got != 50 {
		t.Errorf("arb max = %d, want 50", got)
	}
	if m.stall.Count() != 1 {
		t.Errorf("stall samples = %d, want 1", m.stall.Count())
	}
	slow := m.slowest()
	if len(slow) != 2 || slow[0].Dur != 770 || slow[1].Dur != 645 {
		t.Errorf("slowest: %+v", slow)
	}
	if slow[0].Phases[obs.PhaseRetry] != 125 {
		t.Errorf("slow span lost its breakdown: %+v", slow[0])
	}
}

// TestEventStreamShedding: a subscriber that never drains loses frames
// without blocking the producer, and the loss is counted.
func TestEventStreamShedding(t *testing.T) {
	es := NewEventStream()
	_, _, cancel := es.Subscribe()
	defer cancel()
	total := DefaultSubscriberBuffer + 50
	for i := 0; i < total; i++ {
		es.Consume(&obs.Event{Kind: obs.KindTx, Seq: uint64(i)})
	}
	frames, shed := es.Stats()
	if frames != int64(total) {
		t.Errorf("frames = %d, want %d", frames, total)
	}
	if shed != 50 {
		t.Errorf("shed = %d, want 50", shed)
	}
	// The replay ring holds only the most recent frames.
	_, replay, cancel2 := es.Subscribe()
	defer cancel2()
	if len(replay) != DefaultReplay {
		t.Fatalf("replay depth = %d, want %d", len(replay), DefaultReplay)
	}
	var last obs.Event
	if err := json.Unmarshal(replay[len(replay)-1], &last); err != nil {
		t.Fatal(err)
	}
	if last.Seq != uint64(total-1) {
		t.Errorf("replay tail seq = %d, want %d", last.Seq, total-1)
	}
}

// TestEventStreamIdleMarshalsNothing: with nobody subscribed the stream
// marshals no frame, yet a late subscriber's replay carries the most
// recent events byte for byte as live frames would have.
func TestEventStreamIdleMarshalsNothing(t *testing.T) {
	es := NewEventStream()
	events := make([]obs.Event, DefaultReplay+10)
	for i := range events {
		events[i] = obs.Event{Kind: obs.KindState, Seq: uint64(i), Addr: uint64(i) * 32, From: core.Invalid, To: core.Shared}
		es.Consume(&events[i])
	}
	if frames, _ := es.Stats(); frames != 0 {
		t.Errorf("idle stream marshalled %d frames, want 0", frames)
	}
	_, replay, cancel := es.Subscribe()
	defer cancel()
	if len(replay) != DefaultReplay {
		t.Fatalf("replay depth = %d, want %d", len(replay), DefaultReplay)
	}
	for i, frame := range replay {
		want, err := json.Marshal(&events[len(events)-DefaultReplay+i])
		if err != nil {
			t.Fatal(err)
		}
		if string(frame) != string(want) {
			t.Fatalf("replay frame %d = %s, want %s", i, frame, want)
		}
	}
	if frames, _ := es.Stats(); frames != DefaultReplay {
		t.Errorf("frames = %d after one replay, want %d", frames, DefaultReplay)
	}
}

// TestEventStreamCancel: cancel closes the channel exactly once and a
// cancelled subscriber stops receiving.
func TestEventStreamCancel(t *testing.T) {
	es := NewEventStream()
	ch, _, cancel := es.Subscribe()
	cancel()
	cancel() // double-cancel must be safe
	if _, ok := <-ch; ok {
		t.Error("channel still open after cancel")
	}
	es.Consume(&obs.Event{Kind: obs.KindTx}) // must not panic on closed channel
}

// TestServerEndpoints: a real server on an ephemeral port serves
// /metrics, /healthz, /slow and /events, and Close leaves no
// goroutines behind (including the SSE handler we keep open).
func TestServerEndpoints(t *testing.T) {
	leaktest.Check(t)
	svc := NewService(4)
	rec := obs.New(svc.Sinks()...)
	svc.ObserveRecorder(rec)
	srv, err := svc.Serve("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	// Feed a little traffic through the recorder so every endpoint has
	// something to show.
	rec.Emit(obs.Event{Kind: obs.KindTx, Proc: 0, Op: obs.OpRead, Dur: 645,
		AddrNS: 125, DataNS: 320, MemNS: 200})
	rec.Emit(obs.Event{Kind: obs.KindTx, Proc: 1, Op: obs.OpWrite, Dur: 565, Retries: 1,
		AddrNS: 125, DataNS: 320, IntvNS: 120})
	rec.Emit(obs.Event{Kind: obs.KindState, Proc: 0, From: core.Invalid, To: core.Exclusive})
	rec.Emit(obs.Event{Kind: obs.KindAbort, Proc: 1})

	get := func(path string) string {
		resp, err := http.Get(srv.URL() + path)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("GET %s: status %d", path, resp.StatusCode)
		}
		body, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		return string(body)
	}

	if got := get("/healthz"); got != "ok\n" {
		t.Errorf("/healthz = %q", got)
	}

	metrics := get("/metrics")
	for _, want := range []string{
		"# TYPE " + MetricTransactions + " counter",
		MetricTransactions + `{op="R"} 1`,
		MetricTransactions + `{op="W"} 1`,
		MetricStateTransitions + `{from="I",to="E"} 1`,
		MetricAborts + " 1",
		"# TYPE " + MetricPhaseLatency + " summary",
		MetricPhaseLatency + `{phase="addr",quantile="0.5"}`,
		MetricPhaseLatency + `_count{phase="intervention"} 1`,
	} {
		if !strings.Contains(metrics, want) {
			t.Errorf("/metrics missing %q", want)
		}
	}

	var slow []obs.TxSpan
	if err := json.Unmarshal([]byte(get("/slow")), &slow); err != nil {
		t.Fatal(err)
	}
	if len(slow) != 2 || slow[0].Dur != 645 {
		t.Errorf("/slow = %+v", slow)
	}

	// SSE: the replay ring must deliver the already-seen events as
	// data: frames without waiting for new traffic.
	resp, err := http.Get(srv.URL() + "/events")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "text/event-stream" {
		t.Errorf("/events content-type = %q", ct)
	}
	sc := bufio.NewScanner(resp.Body)
	deadline := time.After(5 * time.Second)
	gotFrame := make(chan string, 1)
	go func() {
		for sc.Scan() {
			if line := sc.Text(); strings.HasPrefix(line, "data: ") {
				gotFrame <- strings.TrimPrefix(line, "data: ")
				return
			}
		}
	}()
	select {
	case frame := <-gotFrame:
		var e obs.Event
		if err := json.Unmarshal([]byte(frame), &e); err != nil {
			t.Fatalf("bad SSE frame %q: %v", frame, err)
		}
		if e.Kind == 0 {
			t.Errorf("SSE frame missing kind: %q", frame)
		}
	case <-deadline:
		t.Fatal("no SSE frame within deadline")
	}

	if err := rec.Close(); err != nil {
		t.Fatal(err)
	}
	if err := srv.Close(); err != nil && err != http.ErrServerClosed {
		t.Fatal(err)
	}
}
