package metrics

import (
	"encoding/json"
	"net"
	"net/http"
	"net/http/pprof"
	"time"
)

// Handler returns an http.Handler serving the registry in Prometheus text
// exposition format (mount at /metrics).
func Handler(r *Registry) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		_ = r.WritePrometheus(w)
	})
}

// VarsHandler returns an expvar-style handler rendering the registry
// snapshot as one JSON object (mount at /debug/vars). Histograms appear as
// {count, sum, buckets: [{le, count}...]}.
func VarsHandler(r *Registry) http.Handler {
	// le is a string because the last bucket bound is +Inf, which JSON
	// numbers cannot represent.
	type jsonBucket struct {
		LE    string `json:"le"`
		Count uint64 `json:"count"`
	}
	type jsonHist struct {
		Count   uint64       `json:"count"`
		Sum     float64      `json:"sum"`
		Buckets []jsonBucket `json:"buckets"`
	}
	return http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		snap := r.Snapshot()
		vars := make(map[string]any, len(snap.Counters)+len(snap.Gauges)+len(snap.Histograms))
		for k, v := range snap.Counters {
			vars[k] = v
		}
		for k, v := range snap.Gauges {
			vars[k] = v
		}
		for k, h := range snap.Histograms {
			jh := jsonHist{Count: h.Count, Sum: h.Sum}
			for _, b := range h.Buckets {
				jh.Buckets = append(jh.Buckets, jsonBucket{LE: formatBound(b.UpperBound), Count: b.Count})
			}
			vars[k] = jh
		}
		w.Header().Set("Content-Type", "application/json; charset=utf-8")
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		_ = enc.Encode(vars)
	})
}

// HealthHandler returns a liveness handler: 200 "ok" as long as the
// process can serve HTTP at all (mount at /healthz). Liveness is
// intentionally unconditional — a wedged pipeline should surface through
// /readyz and metrics, not by failing liveness and getting the process
// restarted mid-diagnosis.
func HealthHandler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		_, _ = w.Write([]byte("ok\n"))
	})
}

// ReadyHandler returns a readiness handler (mount at /readyz): 200 "ready"
// when ready() reports true, 503 "not ready" otherwise. ready is called per
// request and must be safe for concurrent use; nil means always ready.
func ReadyHandler(ready func() bool) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		if ready != nil && !ready() {
			w.WriteHeader(http.StatusServiceUnavailable)
			_, _ = w.Write([]byte("not ready\n"))
			return
		}
		_, _ = w.Write([]byte("ready\n"))
	})
}

// NewMux returns a mux with the full observability surface: /metrics
// (Prometheus), /debug/vars (JSON), /healthz (liveness) and /debug/pprof
// (CPU, heap, goroutine and friends, wired explicitly rather than through
// the pprof package's DefaultServeMux side effects). /readyz is left for
// the caller to mount with ReadyHandler and a real readiness probe.
func NewMux(r *Registry) *http.ServeMux {
	mux := http.NewServeMux()
	mux.Handle("/metrics", Handler(r))
	mux.Handle("/healthz", HealthHandler())
	mux.Handle("/debug/vars", VarsHandler(r))
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	return mux
}

// Server is a running observability HTTP server.
type Server struct {
	ln  net.Listener
	srv *http.Server
}

// ServeMux starts an HTTP server on addr with a caller-built mux —
// typically NewMux(r) with extra admin endpoints mounted on top (the
// analyzer's /model lifecycle endpoint rides the metrics mux this way).
func ServeMux(addr string, mux *http.ServeMux) (*Server, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, err
	}
	s := &Server{ln: ln, srv: &http.Server{Handler: mux, ReadHeaderTimeout: 10 * time.Second}}
	go func() { _ = s.srv.Serve(ln) }()
	return s, nil
}

// Addr returns the bound listen address.
func (s *Server) Addr() string { return s.ln.Addr().String() }

// Close shuts the server down immediately (observability endpoints need no
// graceful drain).
func (s *Server) Close() error { return s.srv.Close() }
