// Package monitor is the HTTP observability surface of a serving
// process: Prometheus metrics, a JSON job table, liveness, a live trace
// tail in Chrome trace-event form, and net/http/pprof — everything an
// operator (or the nightly smoke job) scrapes from a long-running
// gridbench -serve. The package only reads; all state lives in the
// telemetry registry and the callbacks the caller wires in, so it works
// equally for a sched.Server, a bench study mid-run, or a test fixture.
package monitor

import (
	"context"
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"net/http/pprof"
	"strconv"
	"sync/atomic"
	"time"

	"gridqr/internal/telemetry"
)

// Config wires the endpoints to their data sources. Nil fields disable
// the corresponding endpoint (it answers 404). GET /healthz is a
// liveness probe: it answers "ok" whenever the endpoint is serving.
type Config struct {
	// Registry backs GET /metrics (Prometheus text format) — required.
	Registry *telemetry.Registry
	// Jobs backs GET /jobs: any JSON-marshalable job table, typically
	// sched.Server.Jobs.
	Jobs func() any
	// Trace backs GET /trace?last=N: the last-N-spans-per-rank snapshot,
	// typically the serving world's mpi.World.TraceTail. The response is
	// a Chrome trace-event file (load in chrome://tracing or Perfetto).
	Trace func(lastN int) *telemetry.Trace
}

// Server is a running monitoring endpoint.
type Server struct {
	http *http.Server
	ln   net.Listener
}

// Handler builds the monitoring mux for cfg; exposed separately from
// Start so tests drive it with httptest and embedders mount it wherever.
func Handler(cfg Config) http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, r *http.Request) {
		if cfg.Registry == nil {
			http.NotFound(w, r)
			return
		}
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		if err := telemetry.WritePrometheus(w, cfg.Registry); err != nil {
			// Headers are gone; all we can do is drop the connection.
			panic(http.ErrAbortHandler)
		}
	})
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		fmt.Fprintln(w, "ok")
	})
	mux.HandleFunc("/jobs", func(w http.ResponseWriter, r *http.Request) {
		if cfg.Jobs == nil {
			http.NotFound(w, r)
			return
		}
		w.Header().Set("Content-Type", "application/json")
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		if err := enc.Encode(cfg.Jobs()); err != nil {
			panic(http.ErrAbortHandler)
		}
	})
	mux.HandleFunc("/trace", func(w http.ResponseWriter, r *http.Request) {
		if cfg.Trace == nil {
			http.NotFound(w, r)
			return
		}
		lastN := 0
		if q := r.URL.Query().Get("last"); q != "" {
			n, err := strconv.Atoi(q)
			if err != nil || n < 0 {
				http.Error(w, "last must be a non-negative integer", http.StatusBadRequest)
				return
			}
			lastN = n
		}
		t := cfg.Trace(lastN)
		if t == nil {
			http.Error(w, "tracing not enabled on this server", http.StatusNotFound)
			return
		}
		w.Header().Set("Content-Type", "application/json")
		if err := telemetry.WriteChromeTrace(w, t); err != nil {
			panic(http.ErrAbortHandler)
		}
	})
	// The stdlib profiler, exactly as net/http/pprof would self-register
	// on the default mux.
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	return mux
}

// Swappable is a monitoring handler whose Config can be re-pointed at a
// new data source while the listener stays up: gridbench -serve runs one
// fresh scheduler per load point, and rebinding through a Swappable
// keeps /metrics scrapeable at a stable address across the sweep.
type Swappable struct {
	h atomic.Value // http.Handler
}

// NewSwappable returns a Swappable serving the empty Config (every
// endpoint 404s) until the first Set.
func NewSwappable() *Swappable {
	s := &Swappable{}
	s.Set(Config{})
	return s
}

// Set atomically replaces the data sources behind the endpoints.
func (s *Swappable) Set(cfg Config) { s.h.Store(Handler(cfg)) }

// ServeHTTP dispatches to the most recently Set configuration.
func (s *Swappable) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	s.h.Load().(http.Handler).ServeHTTP(w, r)
}

// Start listens on addr (e.g. "127.0.0.1:9090", or ":0" for an
// ephemeral port) and serves the monitoring endpoints until Shutdown.
func Start(addr string, cfg Config) (*Server, error) {
	return StartHandler(addr, Handler(cfg))
}

// StartHandler is Start for a caller-built handler — typically a
// Swappable, or the monitoring mux mounted under extra routes.
func StartHandler(addr string, h http.Handler) (*Server, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("monitor: listen %s: %w", addr, err)
	}
	s := &Server{
		http: &http.Server{Handler: h, ReadHeaderTimeout: 5 * time.Second},
		ln:   ln,
	}
	go func() { _ = s.http.Serve(ln) }()
	return s, nil
}

// Addr returns the bound address, useful with ":0".
func (s *Server) Addr() string { return s.ln.Addr().String() }

// Shutdown stops the server, waiting for in-flight requests up to the
// context deadline.
func (s *Server) Shutdown(ctx context.Context) error { return s.http.Shutdown(ctx) }
