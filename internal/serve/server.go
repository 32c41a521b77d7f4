package serve

import (
	"context"
	"encoding/json"
	"errors"
	"net"
	"net/http"
	"sync"
	"time"

	"ccahydro/internal/telemetry"
)

// Server is the HTTP face of a Scheduler:
//
//	POST /jobs               submit a Spec (JSON body), returns Status
//	GET  /jobs               list all jobs
//	GET  /jobs/{id}          one job's status (result inlined when done)
//	POST /jobs/{id}/cancel   stop a job at its next checkpoint boundary
//	POST /arrays             submit a swept scenario Spec as a job array
//	GET  /arrays             list all job arrays
//	GET  /arrays/{id}        one array's status (per-point job statuses)
//	GET  /jobs/{id}/series   stream the job's statistics series as
//	                         NDJSON (live via its telemetry hub, or the
//	                         stored result for completed/cache-hit jobs)
//	GET  /jobs/{id}/healthz  the job's per-run telemetry health
//	GET  /healthz            scheduler capacity and population
type Server struct {
	sched *Scheduler
	ln    net.Listener
	srv   *http.Server
	stop  chan struct{}
	once  sync.Once
}

// Listen binds addr (e.g. "127.0.0.1:0") and starts serving sched.
func Listen(addr string, sched *Scheduler) (*Server, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, err
	}
	s := &Server{sched: sched, ln: ln, stop: make(chan struct{})}
	s.srv = &http.Server{Handler: s.Handler(), ReadHeaderTimeout: telemetry.ReadHeaderTimeout}
	go s.srv.Serve(ln)
	return s, nil
}

// Addr returns the bound listen address.
func (s *Server) Addr() string { return s.ln.Addr().String() }

// Handler builds the route table.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /jobs", s.submit)
	mux.HandleFunc("GET /jobs", s.list)
	mux.HandleFunc("GET /jobs/{id}", s.status)
	mux.HandleFunc("POST /jobs/{id}/cancel", s.cancel)
	mux.HandleFunc("GET /jobs/{id}/{ep}", s.jobScope)
	mux.HandleFunc("POST /arrays", s.submitArray)
	mux.HandleFunc("GET /arrays", s.listArrays)
	mux.HandleFunc("GET /arrays/{id}", s.arrayStatus)
	mux.HandleFunc("GET /healthz", s.healthz)
	return mux
}

// Close hard-stops the server, dropping open streams.
func (s *Server) Close() error {
	s.once.Do(func() { close(s.stop) })
	return s.srv.Close()
}

// Shutdown stops gracefully: the scheduler drains (running jobs stop
// at their next checkpoint boundary), streaming followers get a final
// drain, and in-flight requests finish within ctx.
func (s *Server) Shutdown(ctx context.Context) error {
	s.sched.Close()
	s.once.Do(func() { close(s.stop) })
	return s.srv.Shutdown(ctx)
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(v)
}

// maxSpecBytes bounds a POSTed Spec body; a larger one is refused with
// 413 before anything is queued.
const maxSpecBytes = 1 << 20

// decodeSpec reads a size-bounded JSON Spec body, answering 413 or 400
// itself when it cannot.
func decodeSpec(w http.ResponseWriter, r *http.Request) (Spec, bool) {
	var spec Spec
	err := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxSpecBytes)).Decode(&spec)
	if err == nil {
		return spec, true
	}
	code := http.StatusBadRequest
	if tooBig := (*http.MaxBytesError)(nil); errors.As(err, &tooBig) {
		code = http.StatusRequestEntityTooLarge
	}
	http.Error(w, "serve: bad spec: "+err.Error(), code)
	return spec, false
}

func (s *Server) submit(w http.ResponseWriter, r *http.Request) {
	spec, ok := decodeSpec(w, r)
	if !ok {
		return
	}
	j, err := s.sched.Submit(spec)
	if err != nil {
		code := http.StatusBadRequest
		if err == ErrClosed {
			code = http.StatusServiceUnavailable
		}
		http.Error(w, err.Error(), code)
		return
	}
	st, _ := s.sched.Get(j.ID, false)
	writeJSON(w, http.StatusAccepted, st)
}

func (s *Server) list(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, http.StatusOK, s.sched.Jobs())
}

func (s *Server) submitArray(w http.ResponseWriter, r *http.Request) {
	spec, ok := decodeSpec(w, r)
	if !ok {
		return
	}
	a, err := s.sched.SubmitArray(spec)
	if err != nil {
		code := http.StatusBadRequest
		if err == ErrClosed {
			code = http.StatusServiceUnavailable
		}
		http.Error(w, err.Error(), code)
		return
	}
	st, _ := s.sched.ArrayStatus(a.ID)
	writeJSON(w, http.StatusAccepted, st)
}

func (s *Server) listArrays(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, http.StatusOK, s.sched.Arrays())
}

func (s *Server) arrayStatus(w http.ResponseWriter, r *http.Request) {
	st, ok := s.sched.ArrayStatus(r.PathValue("id"))
	if !ok {
		http.Error(w, "serve: no such array", http.StatusNotFound)
		return
	}
	writeJSON(w, http.StatusOK, st)
}

func (s *Server) status(w http.ResponseWriter, r *http.Request) {
	st, ok := s.sched.Get(r.PathValue("id"), true)
	if !ok {
		http.Error(w, "serve: no such job", http.StatusNotFound)
		return
	}
	writeJSON(w, http.StatusOK, st)
}

func (s *Server) cancel(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	if err := s.sched.Cancel(id); err != nil {
		http.Error(w, err.Error(), http.StatusConflict)
		return
	}
	st, _ := s.sched.Get(id, false)
	writeJSON(w, http.StatusOK, st)
}

func (s *Server) healthz(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, http.StatusOK, s.sched.Health())
}

// jobScope forwards /jobs/{id}/{ep} to the job's telemetry endpoints
// (series, healthz, metrics, trace). A job between admissions (queued,
// preempted) or finished from cache has no live hub; /series then
// waits for the next admission (when following) or replays the stored
// result.
func (s *Server) jobScope(w http.ResponseWriter, r *http.Request) {
	id, ep := r.PathValue("id"), r.PathValue("ep")
	j, ok := s.sched.job(id)
	if !ok {
		http.Error(w, "serve: no such job", http.StatusNotFound)
		return
	}
	switch ep {
	case "series":
		s.series(w, r, j)
	case "healthz", "metrics", "trace":
		hub, _, _ := s.snapshot(j)
		if hub == nil {
			http.Error(w, "serve: job has no live run", http.StatusServiceUnavailable)
			return
		}
		r2 := r.Clone(r.Context())
		r2.URL.Path = "/" + ep
		telemetry.NewEndpoints(hub, s.stop).Handler().ServeHTTP(w, r2)
	default:
		http.Error(w, "serve: no such endpoint", http.StatusNotFound)
	}
}

// snapshot reads a job's stream-relevant fields under the lock.
func (s *Server) snapshot(j *Job) (*telemetry.Hub, *Result, bool) {
	s.sched.mu.Lock()
	defer s.sched.mu.Unlock()
	return j.hub, j.result, j.state.terminal()
}

// series streams one job's statistics. A live hub streams exactly as
// the standalone telemetry server does (the stream ends when the
// current admission finishes — on preemption a follower reconnects and
// the restored run replays the full history). Without a hub, a stored
// result is replayed as rank-0 points; a queued job in follow mode
// waits for either.
func (s *Server) series(w http.ResponseWriter, r *http.Request, j *Job) {
	follow := r.URL.Query().Get("follow") != "0"
	for {
		hub, result, terminal := s.snapshot(j)
		if hub != nil && !terminal {
			r2 := r.Clone(r.Context())
			r2.URL.Path = "/series"
			telemetry.NewEndpoints(hub, s.stop).Handler().ServeHTTP(w, r2)
			return
		}
		if result != nil {
			w.Header().Set("Content-Type", "application/x-ndjson")
			enc := json.NewEncoder(w)
			for _, k := range sortedKeys(result.Series) {
				for i, v := range result.Series[k] {
					enc.Encode(telemetry.SeriesPoint{Rank: 0, Key: k, Index: i, Value: v})
				}
			}
			return
		}
		if terminal || !follow {
			w.Header().Set("Content-Type", "application/x-ndjson")
			return // nothing recorded (failed/canceled before running)
		}
		select {
		case <-r.Context().Done():
			return
		case <-s.stop:
			return
		case <-j.Done():
		case <-time.After(50 * time.Millisecond):
		}
	}
}

func sortedKeys(m map[string][]float64) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	for i := 0; i < len(keys); i++ {
		for k := i + 1; k < len(keys); k++ {
			if keys[k] < keys[i] {
				keys[i], keys[k] = keys[k], keys[i]
			}
		}
	}
	return keys
}
