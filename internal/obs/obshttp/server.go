package obshttp

import (
	"context"
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"strings"
	"sync"
	"syscall"
	"time"

	"futurebus/internal/obs/ledger"
)

// Server is the embedded observability endpoint of a Service. It owns
// its own mux (the global http.DefaultServeMux stays untouched so two
// servers, or a test harness, can coexist) and its own listener, so
// ":0" works and Addr() reports the bound port. The route table is
// Endpoints().
type Server struct {
	// svc holds the sinks; every handler reads them inside the View of
	// the recorder it observes.
	svc *Service

	http *http.Server
	ln   net.Listener
	done chan struct{}
	wg   sync.WaitGroup

	closeOnce sync.Once
	closeErr  error
}

// Endpoint is one route of the observability server.
type Endpoint struct {
	Path string
	Help string
}

// endpointTable is the single source of truth for the server's routes:
// newServer builds its mux from it and EndpointList renders the banner
// fbsim/fbsweep print, so the two cannot drift (TestEndpointsMatchMux
// asserts the mux serves every entry). The extra /debug/pprof/*
// subpaths hang off the /debug/pprof/ prefix and are registered
// alongside it.
var endpointTable = []struct {
	Endpoint
	handler func(*Server) http.HandlerFunc
}{
	{Endpoint{"/metrics", "Prometheus text exposition of the registry"},
		func(s *Server) http.HandlerFunc { return s.handleMetrics }},
	{Endpoint{"/healthz", `liveness ("ok\n", 200)`},
		func(s *Server) http.HandlerFunc { return s.handleHealthz }},
	{Endpoint{"/events", "SSE tail of the obs event stream (shed when slow)"},
		func(s *Server) http.HandlerFunc { return s.handleEvents }},
	{Endpoint{"/slow", "top-K slowest transactions as JSON"},
		func(s *Server) http.HandlerFunc { return s.handleSlow }},
	{Endpoint{"/causal", "critical-path analysis of the run so far as JSON"},
		func(s *Server) http.HandlerFunc { return s.handleCausal }},
	{Endpoint{"/coherence", "per-protocol MOESI transition analytics as JSON"},
		func(s *Server) http.HandlerFunc { return s.handleCoherence }},
	{Endpoint{"/violations", "runtime invariant monitor report as JSON"},
		func(s *Server) http.HandlerFunc { return s.handleViolations }},
	{Endpoint{"/perf", "saturation telemetry (queue depths, latency quantiles) as JSON"},
		func(s *Server) http.HandlerFunc { return s.handlePerf }},
	{Endpoint{"/trend", "rolling-baseline regression verdict vs the run ledger as JSON"},
		func(s *Server) http.HandlerFunc { return s.handleTrend }},
	{Endpoint{"/debug/pprof/", "Go runtime profiles"},
		func(*Server) http.HandlerFunc { return pprof.Index }},
}

// Endpoints returns the server's route table in serving order.
func Endpoints() []Endpoint {
	out := make([]Endpoint, len(endpointTable))
	for i, e := range endpointTable {
		out[i] = e.Endpoint
	}
	return out
}

// EndpointList renders the endpoint paths as one space-separated line;
// the fbsim/fbsweep -serve flag help and startup banner derive from it
// so they always advertise exactly what the mux serves.
func EndpointList() string {
	parts := make([]string, len(endpointTable))
	for i, e := range endpointTable {
		parts[i] = e.Path
	}
	return strings.Join(parts, " ")
}

// newServer builds the server over svc's registry, stream and sinks.
func newServer(svc *Service) *Server {
	s := &Server{svc: svc, done: make(chan struct{})}
	mux := http.NewServeMux()
	for _, e := range endpointTable {
		mux.HandleFunc(e.Path, e.handler(s))
	}
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	s.http = &http.Server{Handler: mux, ReadHeaderTimeout: 5 * time.Second}
	return s
}

// Listen binds addr (e.g. ":9090" or "127.0.0.1:0") and starts serving
// in a background goroutine. Call Close to stop.
func (s *Server) Listen(addr string) error {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return err
	}
	s.ln = ln
	s.wg.Add(1)
	go func() {
		defer s.wg.Done()
		// ErrServerClosed is the normal Close path; anything else is a
		// serve failure the caller cannot see, so there is nothing
		// better to do than stop (scrapes will fail loudly).
		_ = s.http.Serve(ln)
	}()
	return nil
}

// Addr returns the bound listen address (valid after Listen).
func (s *Server) Addr() string {
	if s.ln == nil {
		return ""
	}
	return s.ln.Addr().String()
}

// URL returns "http://host:port" for the bound address.
func (s *Server) URL() string {
	if s.ln == nil {
		return ""
	}
	return "http://" + s.ln.Addr().String()
}

// Linger keeps the server up for d once the run it serves has
// finished, or until the process gets SIGINT or SIGTERM, so a run
// stopped while lingering still closes its recorder and writes its
// traces and verdict.
func (s *Server) Linger(d time.Duration) {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	select {
	case <-time.After(d):
	case <-ctx.Done():
	}
}

// Close stops the listener, unblocks every /events subscriber, tears
// down open connections and waits for the serve goroutine to exit.
// Safe to call more than once.
func (s *Server) Close() error {
	s.closeOnce.Do(func() {
		close(s.done) // SSE handlers select on this and return
		s.closeErr = s.http.Close()
		s.wg.Wait()
	})
	return s.closeErr
}

// handleMetrics renders the registry, which reads the sinks inside the
// recorder's View, so the scrape covers every event emitted before it.
func (s *Server) handleMetrics(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	_ = s.svc.Registry.WritePrometheus(w)
}

func (s *Server) handleHealthz(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	fmt.Fprintln(w, "ok")
}

// serveJSON answers with the document snap builds. snap runs inside
// View, so the document covers every event emitted before the request;
// it is built per request, so the simulation never pays for it
// otherwise.
func (s *Server) serveJSON(w http.ResponseWriter, snap func() any) {
	w.Header().Set("Content-Type", "application/json")
	var doc any
	s.svc.rec.View(func() { doc = snap() })
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(doc)
}

// handleSlow serves the service fold's ring of the slowest
// transactions, slowest first, each with its phase decomposition.
func (s *Server) handleSlow(w http.ResponseWriter, _ *http.Request) {
	s.serveJSON(w, func() any { return s.svc.metrics.slowest() })
}

// handleCausal serves the causal analysis — run totals, blame tables,
// critical path.
func (s *Server) handleCausal(w http.ResponseWriter, _ *http.Request) {
	s.serveJSON(w, func() any { return s.svc.Causal.Analyze() })
}

// handleCoherence serves the per-protocol transition matrices,
// residency, ownership chains and fan-out distributions.
func (s *Server) handleCoherence(w http.ResponseWriter, _ *http.Request) {
	s.serveJSON(w, func() any { return s.svc.Coherence.Analyze(0) })
}

// handleViolations serves the runtime invariant monitor's report —
// totals, per-(invariant, protocol) counts, the latched first violation
// and the bounded violation records with their causal context. Without
// a monitor the document is empty.
func (s *Server) handleViolations(w http.ResponseWriter, _ *http.Request) {
	s.serveJSON(w, func() any {
		if s.svc.Watch == nil {
			return struct{}{}
		}
		return s.svc.Watch.Report()
	})
}

// handlePerf serves the saturation telemetry — per-shard arbitration
// queue-depth timelines plus log-bucketed latency distributions with
// quantiles.
func (s *Server) handlePerf(w http.ResponseWriter, _ *http.Request) {
	s.serveJSON(w, func() any { return s.svc.Perf.Snapshot() })
}

// handleTrend judges the live run against the rolling baseline of the
// attached run ledger (see internal/obs/ledger). Without a ledger
// attached the verdict degrades to "no-baseline" rather than 404, so
// probes can always parse the body.
func (s *Server) handleTrend(w http.ResponseWriter, _ *http.Request) {
	s.serveJSON(w, func() any {
		if s.svc.Trend == nil {
			return ledger.GateReport{Verdict: "no-baseline"}
		}
		return s.svc.Trend.Gate()
	})
}

// handleEvents streams the event tail as server-sent events: the
// replay ring first, then live frames until the client disconnects or
// the server closes. A slow client does not stall the simulation —
// frames it cannot drain are shed upstream in EventStream.
func (s *Server) handleEvents(w http.ResponseWriter, r *http.Request) {
	fl, ok := w.(http.Flusher)
	if !ok {
		http.Error(w, "streaming unsupported", http.StatusInternalServerError)
		return
	}
	w.Header().Set("Content-Type", "text/event-stream")
	w.Header().Set("Cache-Control", "no-cache")
	w.Header().Set("Connection", "keep-alive")

	ch, replay, cancel := s.svc.Stream.Subscribe()
	defer cancel()
	for _, frame := range replay {
		if writeSSE(w, frame) != nil {
			return
		}
	}
	fl.Flush()
	for {
		select {
		case frame, ok := <-ch:
			if !ok {
				return
			}
			if writeSSE(w, frame) != nil {
				return
			}
			fl.Flush()
		case <-r.Context().Done():
			return
		case <-s.done:
			return
		}
	}
}

func writeSSE(w http.ResponseWriter, frame []byte) error {
	_, err := fmt.Fprintf(w, "data: %s\n\n", frame)
	return err
}
