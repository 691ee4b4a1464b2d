package obs

import (
	"context"
	"errors"
	"fmt"
	"net"
	"net/http"
	"net/http/pprof"
	"time"
)

// Server exposes a Stack (and the process profiles) over HTTP; see
// MountDebug for the endpoint set. A dedicated mux is used so nothing
// leaks onto http.DefaultServeMux.
type Server struct {
	srv *http.Server
	ln  net.Listener
	st  *Stack
}

// ShutdownTimeout bounds how long Close waits for in-flight scrapes to
// finish before hard-closing connections.
const ShutdownTimeout = 5 * time.Second

// ServeWith starts an HTTP server on addr exposing st's MountDebug
// endpoints. addr may use port 0 for an ephemeral port — Addr reports
// the bound address.
func ServeWith(addr string, st *Stack) (*Server, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("obs: listening on %s: %w", addr, err)
	}
	mux := http.NewServeMux()
	MountDebug(mux, st)
	s := &Server{
		srv: &http.Server{Handler: mux, ReadHeaderTimeout: 5 * time.Second},
		ln:  ln,
		st:  st,
	}
	go s.srv.Serve(ln) //nolint — Serve always returns non-nil after Close
	return s, nil
}

// MountDebug registers the /debug endpoint set on mux, for ServeWith
// and for callers (the serving layer) that run their own http.Server:
//
//	/debug/metrics       — the registry's JSON snapshot
//	/debug/metrics.prom  — Prometheus text exposition (format 0.0.4)
//	/debug/timeseries    — the sampler's ring-buffer series as JSON
//	/debug/errors        — the error journal (counts + exemplars)
//	/debug/health        — the SLO verdict (503 while failing)
//	/debug/pprof/*       — net/http/pprof handlers
//
// A nil st mounts pprof alone; a Stack without a sampler mounts neither
// /debug/timeseries nor /debug/health.
func MountDebug(mux *http.ServeMux, st *Stack) {
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	if st == nil {
		return
	}
	reg := st.Registry()
	mux.HandleFunc("/debug/metrics", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		_ = reg.WriteJSON(w)
	})
	mux.HandleFunc("/debug/metrics.prom", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", PromContentType)
		_ = reg.WriteProm(w)
	})
	mux.HandleFunc("/debug/errors", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		_ = st.Journal.WriteJSON(w)
	})
	if st.Sampler == nil {
		return
	}
	mux.HandleFunc("/debug/timeseries", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		_ = st.Sampler.WriteJSON(w)
	})
	mux.HandleFunc("/debug/health", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		// Ready and degraded runs still answer 200 (a degraded run is
		// serving, just burning budget); failing answers 503 so load
		// balancers and liveness probes eject the process.
		if st.Health.Health() == VerdictFailing {
			w.WriteHeader(http.StatusServiceUnavailable)
		}
		_ = st.Health.WriteJSON(w)
	})
}

// Addr returns the bound listen address (useful with ":0").
func (s *Server) Addr() string {
	if s == nil {
		return ""
	}
	return s.ln.Addr().String()
}

// Close stops the server gracefully: the SLO evaluator is stopped
// first (so no late tick flips the verdict under a shutting-down
// process), then the listener closes so no new scrape can start, while
// requests already in flight (a Prometheus scrape racing CLI.Stop,
// say) get up to ShutdownTimeout to finish before connections are torn
// down. The Stack's log sink is flushed before Close returns — the
// run's last events hit disk no later than its server goes away. Safe
// on a nil receiver.
func (s *Server) Close() error {
	if s == nil {
		return nil
	}
	var sink *LineSink
	if s.st != nil {
		s.st.Health.Stop()
		sink = s.st.Sink
	}
	ctx, cancel := context.WithTimeout(context.Background(), ShutdownTimeout)
	defer cancel()
	err := s.srv.Shutdown(ctx)
	if errors.Is(err, context.DeadlineExceeded) {
		// A scrape outlived the grace period; fall back to a hard close.
		err = s.srv.Close()
	}
	if ferr := sink.Flush(); err == nil {
		err = ferr
	}
	if err != nil {
		return fmt.Errorf("obs: closing server: %w", err)
	}
	return nil
}
