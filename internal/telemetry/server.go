package telemetry

import (
	"context"
	"encoding/json"
	"expvar"
	"net"
	"net/http"
	"net/http/pprof"
	"sync"
	"time"
)

// SeriesPoint is one NDJSON line of the /series stream: sample Index
// of series Key on rank Rank. Index makes the stream resumable — a
// reconnecting client can discard duplicates.
type SeriesPoint struct {
	Rank  int     `json:"rank"`
	Key   string  `json:"key"`
	Index int     `json:"index"`
	Value float64 `json:"value"`
}

// Endpoints is one Hub's HTTP surface, usable standalone (Serve) or
// mounted under a prefix by a multi-tenant server — ccaserve scopes one
// per job at /jobs/:id/. The zero value is not useful; build with
// NewEndpoints.
//
//	/metrics  Prometheus text exposition of the merged obs registries
//	/healthz  JSON Health: phase, step, last checkpoint, rank liveness
//	          (503 when the run failed or a rank is down)
//	/series   NDJSON stream of StatisticsComponent samples as steps
//	          complete; ?follow=0 for a non-blocking drain
//	/trace    Chrome-trace snapshot of the live tracer shards
type Endpoints struct {
	hub *Hub
	// done, when non-nil, ends streaming handlers early: a graceful
	// Shutdown closes it so in-flight /series followers drain what they
	// have and return instead of pinning the server open.
	done <-chan struct{}
}

// NewEndpoints builds the endpoint set over hub. done may be nil (no
// early-stop signal); Serve wires its own.
func NewEndpoints(hub *Hub, done <-chan struct{}) *Endpoints {
	return &Endpoints{hub: hub, done: done}
}

// Handler returns the mux serving the four endpoints at the root.
// Mount under http.StripPrefix for scoped (per-job) exposure.
func (e *Endpoints) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/metrics", e.metrics)
	mux.HandleFunc("/healthz", e.healthz)
	mux.HandleFunc("/series", e.series)
	mux.HandleFunc("/trace", e.trace)
	return mux
}

// ReadHeaderTimeout bounds how long a client may take to send request
// headers, so a stalled connection cannot pin a server goroutine.
const ReadHeaderTimeout = 10 * time.Second

// Server is the standalone telemetry server: one Hub's Endpoints bound
// to its own listener, plus the process-wide /debug/pprof/ and
// /debug/vars. Those two describe the whole process, so they are not
// part of Endpoints, which a multi-tenant server mounts once per job.
type Server struct {
	*Endpoints
	ln   net.Listener
	srv  *http.Server
	stop chan struct{}
	once sync.Once
}

// Serve starts the telemetry server on addr (e.g. ":8080" or
// "127.0.0.1:0") and returns once the listener is bound.
func Serve(addr string, hub *Hub) (*Server, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, err
	}
	stop := make(chan struct{})
	s := &Server{Endpoints: NewEndpoints(hub, stop), ln: ln, stop: stop}
	mux := http.NewServeMux()
	mux.Handle("/", s.Handler())
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	mux.Handle("/debug/vars", expvar.Handler())
	s.srv = &http.Server{Handler: mux, ReadHeaderTimeout: ReadHeaderTimeout}
	go s.srv.Serve(ln)
	return s, nil
}

// Addr returns the bound listen address (useful with ":0").
func (s *Server) Addr() string { return s.ln.Addr().String() }

// Close stops the listener and drops open connections (streaming
// /series followers included).
func (s *Server) Close() error {
	s.once.Do(func() { close(s.stop) })
	return s.srv.Close()
}

// Shutdown stops the server gracefully: the listener closes, streaming
// followers are told to finish their current drain and hang up, and the
// call waits for in-flight requests (until ctx expires, when it gives
// up the same way http.Server.Shutdown does). Safe to call more than
// once and after Close.
func (s *Server) Shutdown(ctx context.Context) error {
	s.once.Do(func() { close(s.stop) })
	return s.srv.Shutdown(ctx)
}

func (e *Endpoints) metrics(w http.ResponseWriter, _ *http.Request) {
	g := e.hub.Group()
	if g == nil {
		http.Error(w, "telemetry: no metrics group attached", http.StatusServiceUnavailable)
		return
	}
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	g.MergedSnapshot().WritePrometheus(w)
}

func (e *Endpoints) healthz(w http.ResponseWriter, _ *http.Request) {
	h := e.hub.Health()
	code := http.StatusOK
	if h.Phase == "failed" {
		code = http.StatusServiceUnavailable
	}
	for _, r := range h.Ranks {
		if !r.Alive {
			code = http.StatusServiceUnavailable
		}
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(h)
}

func (e *Endpoints) trace(w http.ResponseWriter, _ *http.Request) {
	g := e.hub.Group()
	if g == nil {
		http.Error(w, "telemetry: no tracer attached", http.StatusServiceUnavailable)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	g.WriteTrace(w)
}

// series streams StatisticsComponent samples as NDJSON. Each
// (rank, key) pair keeps a cursor, so every sample is emitted exactly
// once per connection, in append order, as it lands — the hub's
// watch channel wakes the handler on every structured event (steps
// record samples) and a coarse ticker bounds the worst-case latency.
// The stream ends when the run reaches a terminal phase, the client
// disconnects, the server shuts down (after a final drain), or
// immediately after one drain with ?follow=0.
func (e *Endpoints) series(w http.ResponseWriter, r *http.Request) {
	follow := r.URL.Query().Get("follow") != "0"
	w.Header().Set("Content-Type", "application/x-ndjson")
	fl, _ := w.(http.Flusher)
	enc := json.NewEncoder(w)

	type cursor struct {
		rank int
		key  string
	}
	cursors := map[cursor]int{}
	emit := func() {
		for rank := 0; rank < e.hub.NumRanks(); rank++ {
			src := e.hub.Rank(rank).Series()
			if src == nil {
				continue
			}
			for _, k := range src.Keys() {
				c := cursor{rank, k}
				base := cursors[c]
				vals := src.GetSince(k, base)
				for i, v := range vals {
					enc.Encode(SeriesPoint{Rank: rank, Key: k, Index: base + i, Value: v})
				}
				cursors[c] += len(vals)
			}
		}
		if fl != nil {
			fl.Flush()
		}
	}

	watch, cancel := e.hub.Watch()
	defer cancel()
	last := ^uint64(0) // force the first scan
	for {
		if e.hub.Finished() {
			emit() // terminal phase was set after the last sample: final drain is complete
			return
		}
		select {
		case <-e.done:
			emit() // shutdown: hand the follower everything recorded so far
			return
		default:
		}
		if v := e.hub.seriesVersion(); v != last {
			last = v
			emit()
		}
		if !follow {
			return
		}
		select {
		case <-r.Context().Done():
			return
		case <-e.done:
		case <-watch:
		case <-time.After(200 * time.Millisecond):
		}
	}
}
