// Package introspect is the live-cluster introspection server: a small
// net/http server exposing the observability layer of a running system —
// Prometheus metrics, the ring-health sampler's verdict, a JSON ring summary,
// and the bounded trace ring — without ever touching protocol state outside
// the runtime's execution guarantee. It lives above both internal/core and
// internal/obs (core already imports obs, so the HTTP view cannot live in
// either package without a cycle) and is wired in by cmd/hybridnode's -http
// flag.
//
// Endpoints:
//
//	/metrics  Prometheus text exposition (0.0.4) of the whole registry
//	/healthz  JSON health verdict; 200 when healthy, 503 when not. The score
//	          counts violations per invariant and lists the first 32 with
//	          invariant, addr, peer and detail (core.HealthScore)
//	/ring     JSON ring/finger/s-tree summary (core.RingSummary)
//	/trace    JSONL tail of the bounded tracer (?n=, default 256)
//	/kv/<key> client-facing KV surface: GET looks the key up, PUT/POST
//	          stores the request body as its value, DELETE removes it.
//	          Requests are issued from this process's live peers
//	          round-robin and ride the full protocol path (ring routing,
//	          placement, replication), so driving /kv on a multi-process
//	          cluster benchmarks the system as a real store.
package introspect

import (
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"strconv"
	"strings"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/obs"
)

// Config wires a server to a running system. Sys and Reg are required; a nil
// Tracer serves an empty /trace and a nil Sampler makes /healthz compute a
// fresh score per request instead of reporting the last sampled one.
type Config struct {
	// Addr is the listen address ("127.0.0.1:0" picks a free port).
	Addr    string
	Sys     *core.System
	Reg     *obs.Registry
	Tracer  *obs.Tracer
	Sampler *core.HealthSampler
}

// Server is a running introspection HTTP server.
type Server struct {
	cfg Config
	ln  net.Listener
	srv *http.Server
	// kvNext round-robins /kv requests across the process's live peers.
	kvNext atomic.Uint64
}

// defaultTraceTail bounds /trace responses when no ?n= is given.
const defaultTraceTail = 256

// Start binds the listen address and serves in a background goroutine.
func Start(cfg Config) (*Server, error) {
	if cfg.Sys == nil || cfg.Reg == nil {
		return nil, fmt.Errorf("introspect: Config.Sys and Config.Reg are required")
	}
	ln, err := net.Listen("tcp", cfg.Addr)
	if err != nil {
		return nil, fmt.Errorf("introspect: listen %s: %w", cfg.Addr, err)
	}
	s := &Server{cfg: cfg, ln: ln}
	mux := http.NewServeMux()
	mux.HandleFunc("/metrics", s.handleMetrics)
	mux.HandleFunc("/healthz", s.handleHealthz)
	mux.HandleFunc("/ring", s.handleRing)
	mux.HandleFunc("/trace", s.handleTrace)
	mux.HandleFunc("/kv/", s.handleKV)
	s.srv = &http.Server{Handler: mux, ReadHeaderTimeout: 5 * time.Second}
	go s.srv.Serve(ln) //nolint:errcheck // Serve always returns on Close
	return s, nil
}

// Addr returns the bound listen address (useful with ":0").
func (s *Server) Addr() string { return s.ln.Addr().String() }

// Close stops the server and releases the port.
func (s *Server) Close() error { return s.srv.Close() }

func (s *Server) handleMetrics(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", obs.PromContentType)
	if err := s.cfg.Reg.WritePromText(w); err != nil {
		// Headers are gone; nothing useful left to do but drop the conn.
		return
	}
}

func (s *Server) handleHealthz(w http.ResponseWriter, _ *http.Request) {
	var (
		score   core.HealthScore
		sampled bool
	)
	if s.cfg.Sampler != nil {
		score, sampled = s.cfg.Sampler.Last()
	}
	if !sampled {
		// No sampler (or it has not ticked yet): compute a fresh score under
		// the execution guarantee.
		s.cfg.Sys.Runtime().Do(func() { score = s.cfg.Sys.HealthScore() })
	}
	status := http.StatusOK
	if !score.Healthy() {
		status = http.StatusServiceUnavailable
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(struct { //nolint:errcheck // best-effort response body
		Healthy bool             `json:"healthy"`
		Sampled bool             `json:"sampled"`
		Score   core.HealthScore `json:"score"`
	}{score.Healthy(), sampled, score})
}

func (s *Server) handleRing(w http.ResponseWriter, _ *http.Request) {
	var view core.RingView
	s.cfg.Sys.Runtime().Do(func() { view = s.cfg.Sys.RingSummary() })
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(view) //nolint:errcheck // best-effort response body
}

// kvMaxValueBytes bounds a PUT/POST body; the protocol models values as
// short strings, so a megabyte is already generous.
const kvMaxValueBytes = 1 << 20

// kvOrigin picks the live peer the next /kv request is issued from,
// round-robin so a benchmark load spreads across the process's peers.
func (s *Server) kvOrigin() *core.Peer {
	var peers []*core.Peer
	s.cfg.Sys.Runtime().Do(func() { peers = s.cfg.Sys.Peers() })
	if len(peers) == 0 {
		return nil
	}
	return peers[s.kvNext.Add(1)%uint64(len(peers))]
}

func (s *Server) handleKV(w http.ResponseWriter, r *http.Request) {
	key := strings.TrimPrefix(r.URL.Path, "/kv/")
	if key == "" {
		http.Error(w, "introspect: /kv/<key> requires a key", http.StatusBadRequest)
		return
	}
	origin := s.kvOrigin()
	if origin == nil {
		http.Error(w, "introspect: no live peer to issue from", http.StatusServiceUnavailable)
		return
	}
	switch r.Method {
	case http.MethodGet:
		res, err := s.cfg.Sys.LookupSync(origin, key)
		if err != nil {
			http.Error(w, err.Error(), http.StatusBadGateway)
			return
		}
		if !res.OK {
			http.Error(w, "introspect: key not found", http.StatusNotFound)
			return
		}
		w.Header().Set("Content-Type", "application/octet-stream")
		io.WriteString(w, res.Value) //nolint:errcheck // best-effort body
	case http.MethodPut, http.MethodPost:
		body, err := io.ReadAll(io.LimitReader(r.Body, kvMaxValueBytes+1))
		if err != nil {
			http.Error(w, "introspect: reading body: "+err.Error(), http.StatusBadRequest)
			return
		}
		if len(body) > kvMaxValueBytes {
			http.Error(w, "introspect: value too large", http.StatusRequestEntityTooLarge)
			return
		}
		res, err := s.cfg.Sys.StoreSync(origin, key, string(body))
		if err != nil {
			http.Error(w, err.Error(), http.StatusBadGateway)
			return
		}
		if !res.OK {
			http.Error(w, "introspect: store did not complete", http.StatusBadGateway)
			return
		}
		w.WriteHeader(http.StatusOK)
	case http.MethodDelete:
		res, err := s.cfg.Sys.DeleteSync(origin, key)
		if err != nil {
			http.Error(w, err.Error(), http.StatusBadGateway)
			return
		}
		if !res.OK {
			http.Error(w, "introspect: delete did not complete", http.StatusBadGateway)
			return
		}
		w.WriteHeader(http.StatusOK)
	default:
		http.Error(w, "introspect: method not allowed", http.StatusMethodNotAllowed)
	}
}

func (s *Server) handleTrace(w http.ResponseWriter, r *http.Request) {
	n := defaultTraceTail
	if q := r.URL.Query().Get("n"); q != "" {
		v, err := strconv.Atoi(q)
		if err != nil {
			http.Error(w, "introspect: bad ?n=", http.StatusBadRequest)
			return
		}
		n = v // n <= 0 means "all retained events"
	}
	w.Header().Set("Content-Type", "application/jsonl")
	s.cfg.Tracer.WriteJSONLTail(w, n) //nolint:errcheck // best-effort body
}
