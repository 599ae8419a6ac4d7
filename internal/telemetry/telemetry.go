// Package telemetry is the shared wall-clock diagnostics endpoint for
// the armsim and armnode binaries: one HTTP server exposing Prometheus
// metrics, a JSON health probe, a span-stream tail, and the standard Go
// profiles. It is strictly read-only — the callbacks the caller wires
// in are pull-based snapshots, so scraping can never feed anything back
// into a run.
//
// Endpoints:
//
//	/metrics  Prometheus text 0.0.4 from Options.Metrics
//	/healthz  JSON from Options.Health
//	/spans    tail of the Options.Spans JSONL stream (?n=lines,
//	          default 100; 400 on a malformed or negative n)
//	/debug/pprof/...  the standard Go profiles
//
// The pprof handlers register on the server's own mux, never the
// process-global default one, so embedding the server does not leak
// profiling routes into unrelated HTTP surfaces.
package telemetry

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"net/http/pprof"
	"strconv"
)

// Options wires the three data sources. Any callback may be nil: the
// endpoint then serves an empty body of the right content type (or, for
// /healthz, an empty JSON object), so partially-instrumented callers
// still get a live port.
type Options struct {
	// Metrics returns the Prometheus text exposition body. An error
	// becomes a 500 with the error text.
	Metrics func() ([]byte, error)
	// Health returns the value to JSON-encode for /healthz.
	Health func() any
	// Spans returns the full JSONL span stream; the handler tails it.
	Spans func() []byte
}

// NewHandler builds the telemetry mux without binding a listener —
// the httptest seam, and the building block Serve wraps.
func NewHandler(o Options) http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		if o.Metrics == nil {
			return
		}
		body, err := o.Metrics()
		if err != nil {
			http.Error(w, err.Error(), http.StatusInternalServerError)
			return
		}
		_, _ = w.Write(body)
	})
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		var v any = map[string]any{}
		if o.Health != nil {
			v = o.Health()
		}
		_ = json.NewEncoder(w).Encode(v)
	})
	mux.HandleFunc("/spans", func(w http.ResponseWriter, r *http.Request) {
		n := 100
		if v := r.URL.Query().Get("n"); v != "" {
			parsed, err := strconv.Atoi(v)
			if err != nil || parsed < 0 {
				http.Error(w, fmt.Sprintf("bad n %q", v), http.StatusBadRequest)
				return
			}
			n = parsed
		}
		var stream []byte
		if o.Spans != nil {
			stream = o.Spans()
		}
		w.Header().Set("Content-Type", "application/x-ndjson")
		_, _ = w.Write(tail(stream, n))
	})
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	return mux
}

// tail returns the last n lines of a newline-delimited stream (all of
// it when it has fewer). A trailing newline does not count as an empty
// final line.
func tail(stream []byte, n int) []byte {
	lines := bytes.SplitAfter(stream, []byte("\n"))
	if len(lines) > 0 && len(lines[len(lines)-1]) == 0 {
		lines = lines[:len(lines)-1]
	}
	if len(lines) > n {
		lines = lines[len(lines)-n:]
	}
	return bytes.Join(lines, nil)
}

// Server is a bound, running telemetry endpoint.
type Server struct {
	srv  *http.Server
	addr string
}

// Serve binds addr and starts answering immediately — before the first
// snapshot exists, the endpoints serve empty data rather than refusing
// connections, so scrapers can start alongside the run.
func Serve(addr string, o Options) (*Server, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, err
	}
	s := &Server{srv: &http.Server{Handler: NewHandler(o)}, addr: ln.Addr().String()}
	go func() { _ = s.srv.Serve(ln) }()
	return s, nil
}

// Addr returns the bound listen address (resolves ":0" to the real port).
func (s *Server) Addr() string { return s.addr }

// Close stops the server: the listener and every connection close at
// once, which is fine for a diagnostics endpoint. A handler still inside
// its callback finishes on its own, its reply lost; the server's
// goroutines are gone once it has (TestCloseStopsGoroutines).
func (s *Server) Close() { _ = s.srv.Close() }
