package obs

import (
	"context"
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"net/http/pprof"
	"sync"
	"time"
)

// Server is the embeddable observability endpoint: mount Handler() on
// any listener (the CLIs' -serve flag, or the future clusterd daemon
// unchanged). All endpoints are read-only GETs over wall-clock-side
// state; nothing here can reach the simulation.
//
//	GET /         endpoint index (text)
//	GET /metrics  Prometheus text exposition format 0.0.4
//	GET /status   StatusDoc JSON (schema clustersim/status/v1)
//	GET /events   JSONL tail of the run-event log; ?point= filters,
//	              ?follow=1 streams live events until the client leaves
//	GET /debug/pprof/...  the standard Go profiling endpoints
type Server struct {
	reg   *Registry
	sweep *Sweep
	log   *Log
	// done is closed when a graceful Shutdown begins. The ?follow=1
	// streams select on it: without this signal they would end only when
	// their client hangs up, and http.Server.Shutdown would wait out its
	// whole deadline on every attached follower.
	done chan struct{}
}

// NewServer builds a server over the given sources; any of them may be
// nil (the corresponding endpoint then serves an empty document).
func NewServer(reg *Registry, sweep *Sweep, log *Log) *Server {
	return &Server{reg: reg, sweep: sweep, log: log, done: make(chan struct{})}
}

// Handler returns the endpoint mux.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /{$}", s.handleIndex)
	mux.HandleFunc("GET /metrics", s.handleMetrics)
	mux.HandleFunc("GET /status", s.handleStatus)
	mux.HandleFunc("GET /events", s.handleEvents)
	mux.HandleFunc("GET /debug/pprof/", pprof.Index)
	mux.HandleFunc("GET /debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("GET /debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("GET /debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("GET /debug/pprof/trace", pprof.Trace)
	return mux
}

func (s *Server) handleIndex(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	fmt.Fprint(w, `clustersim live observability
  /metrics       Prometheus text exposition (0.0.4)
  /status        sweep status JSON (clustersim/status/v1)
  /events        run-event tail (JSONL; ?point=NAME, ?follow=1)
  /debug/pprof/  Go profiling endpoints
`)
}

func (s *Server) handleMetrics(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", ExpositionContentType)
	if s.reg == nil {
		return
	}
	s.reg.WritePrometheus(w)
}

func (s *Server) handleStatus(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "application/json; charset=utf-8")
	doc := s.sweep.Status()
	if doc == nil {
		doc = &StatusDoc{Schema: StatusSchemaV1, State: "idle"}
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(doc)
}

func (s *Server) handleEvents(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "application/x-ndjson; charset=utf-8")
	point := r.URL.Query().Get("point")
	follow := r.URL.Query().Get("follow") != ""
	enc := json.NewEncoder(w)
	emit := func(e Event) bool {
		if point != "" && e.Point != point {
			return true
		}
		return enc.Encode(e) == nil
	}
	// Subscribe before replaying the ring so no event falls between the
	// two; followers tolerate the (bounded) duplicate window instead.
	var live <-chan Event
	var cancel func()
	if follow {
		live, cancel = s.log.Subscribe()
		defer cancel()
	}
	lastSeq := uint64(0)
	for _, e := range s.log.Recent() {
		if !emit(e) {
			return
		}
		lastSeq = e.Seq
	}
	if !follow {
		return
	}
	fl, _ := w.(http.Flusher)
	if fl != nil {
		fl.Flush()
	}
	for {
		select {
		case <-r.Context().Done():
			return
		case <-s.done:
			// Graceful shutdown: end the stream at a record boundary so
			// the follower sees a clean EOF, not a severed connection.
			return
		case e, ok := <-live:
			if !ok {
				return
			}
			if e.Seq <= lastSeq {
				continue // ring/subscription overlap
			}
			if !emit(e) {
				return
			}
			if fl != nil {
				fl.Flush()
			}
		}
	}
}

// Running is one bound, serving listener.
type Running struct {
	srv   *http.Server
	ln    net.Listener
	drain func() // signals follow streams that shutdown has begun
}

// Addr is the bound address (resolves ":0" to the real port).
func (r *Running) Addr() string { return r.ln.Addr().String() }

// URL is the http:// form of Addr.
func (r *Running) URL() string {
	host, port, err := net.SplitHostPort(r.Addr())
	if err != nil {
		return "http://" + r.Addr()
	}
	if host == "" || host == "::" || host == "0.0.0.0" {
		host = "127.0.0.1"
	}
	return "http://" + net.JoinHostPort(host, port)
}

// Close stops serving immediately, severing in-flight responses. Use
// Shutdown for the clean path; Close remains the hard stop.
func (r *Running) Close() error {
	r.drain()
	return r.srv.Close()
}

// Shutdown stops serving gracefully: the listener closes, attached
// /events?follow=1 streams are told to end at a record boundary, and
// in-flight handlers get until the deadline to finish before the
// remaining connections are severed. Safe to call more than once.
func (r *Running) Shutdown(timeout time.Duration) error {
	r.drain()
	ctx, cancel := context.WithTimeout(context.Background(), timeout)
	defer cancel()
	return r.srv.Shutdown(ctx)
}

// Start binds addr and serves the endpoints in the background until
// Close. The returned Running reports the resolved address, so ":0"
// works for tests and port-agnostic scripts.
func (s *Server) Start(addr string) (*Running, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, err
	}
	srv := &http.Server{
		Handler: s.Handler(),
		// Write timeouts would sever ?follow streams; rely on request
		// context cancellation instead and bound only header reads.
		ReadHeaderTimeout: 5 * time.Second,
	}
	// Harness-level HTTP serving, strictly outside the simulation: the
	// engine's token discipline governs simulation goroutines only, and
	// nothing reachable from a handler mutates simulated state (obs is
	// in the simlint readonly observer set).
	go srv.Serve(ln) //simlint:allow goroutine
	var once sync.Once
	drain := func() { once.Do(func() { close(s.done) }) }
	return &Running{srv: srv, ln: ln, drain: drain}, nil
}
