// Package server implements bosphorusd's HTTP/JSON solver service: a
// bounded job queue in front of a fixed worker pool, with per-job
// deadlines threaded through the whole solve stack as context
// cancellation, backpressure when the queue is full, an LRU cache for
// identical normalized inputs, and plain-text metrics.
package server

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"log"
	"net/http"
	"runtime"
	"runtime/debug"
	"strconv"
	"sync"
	"time"

	"repro/internal/core"
)

// maxBodyBytes caps a request body; anything larger is a client error,
// not a reason to let one request eat the heap.
const maxBodyBytes = 64 << 20

// Config sets the daemon's pool/queue shape and the base engine
// configuration shared by all jobs.
type Config struct {
	// Workers is the solve pool size. 0 = GOMAXPROCS.
	Workers int
	// QueueSize bounds the number of admitted-but-unstarted jobs; a full
	// queue turns new jobs away with 429. 0 = 64.
	QueueSize int
	// CacheSize is the LRU result-cache capacity. 0 = 128; negative
	// disables caching.
	CacheSize int
	// DefaultJobTime applies when a request carries no timeout_ms. 0 = 10s.
	DefaultJobTime time.Duration
	// MaxJobTime caps every job regardless of the requested timeout. 0 = 60s.
	MaxJobTime time.Duration
	// Engine is the base fact-learning configuration; per-request knobs
	// (max_iterations, conflict_budget, seed, workers) override it.
	Engine core.Config
	// Role selects the clustering role. RoleSolo (the default) answers
	// every job in-process. RoleCoordinator additionally parks cube-mode
	// jobs after splitting them and serves the open cubes to pull-based
	// worker nodes on /cube/next, assembling their results (and stitching
	// their proof segments) into the job's response.
	Role Role
	// CubeLeaseTTL (coordinator role) bounds how long a dispatched cube
	// may stay unanswered before the lease reaper re-queues it for another
	// worker node — the recovery path for nodes that die or go silent
	// mid-conquest. 0 = 30s.
	CubeLeaseTTL time.Duration
	// Log receives one line per job; nil silences it.
	Log *log.Logger
}

// Role is the daemon's clustering role.
type Role int

// Roles. The worker-node role is not a Server configuration — worker
// nodes are clients of a coordinator (see Node) with their own small
// health/metrics listener.
const (
	RoleSolo Role = iota
	RoleCoordinator
)

func (r Role) String() string {
	if r == RoleCoordinator {
		return "coordinator"
	}
	return "solo"
}

func (c Config) withDefaults() Config {
	if c.Workers <= 0 {
		c.Workers = runtime.GOMAXPROCS(0)
	}
	if c.QueueSize <= 0 {
		c.QueueSize = 64
	}
	if c.CacheSize == 0 {
		c.CacheSize = 128
	}
	if c.DefaultJobTime <= 0 {
		c.DefaultJobTime = 10 * time.Second
	}
	if c.MaxJobTime <= 0 {
		c.MaxJobTime = 60 * time.Second
	}
	if c.CubeLeaseTTL <= 0 {
		c.CubeLeaseTTL = 30 * time.Second
	}
	return c
}

// Server is the running service. Create with New, expose via ServeHTTP,
// stop with Shutdown.
type Server struct {
	cfg     Config
	metrics *Metrics
	cache   *lruCache
	mux     *http.ServeMux
	cubes   *cubeRegistry

	queue      chan *job
	pool       sync.WaitGroup
	stopReaper chan struct{} // closed on Shutdown (coordinator role only)

	mu       sync.RWMutex // guards draining vs. enqueue-on-closed-queue
	draining bool
}

// New builds the server and starts its worker pool.
func New(cfg Config) *Server {
	cfg = cfg.withDefaults()
	s := &Server{
		cfg:     cfg,
		metrics: NewMetrics(),
		cache:   newLRUCache(cfg.CacheSize),
		mux:     http.NewServeMux(),
		cubes:   newCubeRegistry(cfg.CubeLeaseTTL),
		queue:   make(chan *job, cfg.QueueSize),
	}
	s.mux.HandleFunc("/solve", s.handleSolve)
	s.mux.HandleFunc("/healthz", s.handleHealthz)
	s.mux.HandleFunc("/metrics", s.handleMetrics)
	if cfg.Role == RoleCoordinator {
		s.mux.HandleFunc("/cube/next", s.handleCubeNext)
		s.mux.HandleFunc("/cube/result", s.handleCubeResult)
		s.stopReaper = make(chan struct{})
		go s.cubeReaper()
	}
	for i := 0; i < cfg.Workers; i++ {
		s.pool.Add(1)
		go s.worker()
	}
	return s
}

// Metrics exposes the registry (for tests and embedding binaries).
func (s *Server) Metrics() *Metrics { return s.metrics }

func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	s.mux.ServeHTTP(w, r)
}

// Shutdown drains the service: no new jobs are admitted, queued and
// running jobs finish (bounded by their own deadlines), and the worker
// pool exits. It returns early with ctx.Err() if ctx expires first.
func (s *Server) Shutdown(ctx context.Context) error {
	s.mu.Lock()
	already := s.draining
	s.draining = true
	if !already {
		close(s.queue)
		if s.stopReaper != nil {
			close(s.stopReaper)
		}
	}
	s.mu.Unlock()

	done := make(chan struct{})
	go func() {
		s.pool.Wait()
		close(done)
	}()
	select {
	case <-done:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// worker owns one pool slot: pull a job, run it under the job's context,
// publish the response, repeat until the queue closes. A job that panics,
// or answers SAT with a model that fails its input, fails alone: its
// request gets an error, nothing is cached, and the worker goes on to the
// next job. So does an UNSAT answer whose requested proof does not check;
// one whose check the job's deadline cuts short is CANCELED. A completed
// answer is cached as the body a hit sends.
func (s *Server) worker() {
	defer s.pool.Done()
	for jb := range s.queue {
		s.metrics.QueueDepth.Add(-1)
		s.metrics.ObserveQueueWait(time.Since(jb.admitted))
		start := time.Now()
		resp, err := s.runJob(jb)
		switch {
		case err != nil:
			s.metrics.JobsFailed.Add(1)
		case resp.Status == "CANCELED":
			s.metrics.JobsCanceled.Add(1)
		default:
			s.metrics.JobsCompleted.Add(1)
			if s.cache.enabled() {
				s.cache.Put(jb.key, hitBody(resp))
			}
		}
		s.metrics.ObserveLatency(time.Since(start))
		if err != nil {
			s.logf("job mode=%s key=%.12s failed elapsed=%s: %v", jb.req.Mode, jb.key, time.Since(start), err)
		} else {
			s.logf("job mode=%s status=%s elapsed=%s", jb.req.Mode, resp.Status, time.Since(start))
		}
		jb.resp, jb.err = resp, err
		close(jb.done)
	}
}

// runJob builds the job's input and the conversions its mode needs, runs
// it, and checks a SAT answer's model, or a proof=true UNSAT answer's
// proof, on the input. A panic anywhere in those steps becomes an error
// that carries the panic value and stack.
func (s *Server) runJob(jb *job) (resp *Response, err error) {
	defer func() {
		if p := recover(); p != nil {
			resp, err = nil, fmt.Errorf("panic: %v\n%s", p, debug.Stack())
		}
	}()
	if err := jb.prepare(); err != nil {
		return nil, err
	}
	if jb.kind == kindCube && s.cfg.Role == RoleCoordinator {
		resp = s.runCubeCoordinator(jb)
	} else {
		resp = jb.run(s.cfg.Engine, s.metrics)
	}
	return jb.checkAnswer(resp)
}

// hitBody encodes the answer a cache hit sends: resp marked cached, in the
// bytes writeJSON writes.
func hitBody(resp *Response) []byte {
	hit := *resp // shallow copy; responses are never mutated
	hit.Cached = true
	var b bytes.Buffer
	_ = json.NewEncoder(&b).Encode(&hit) // a Response holds nothing encoding/json rejects
	return b.Bytes()
}

func (s *Server) handleSolve(w http.ResponseWriter, r *http.Request) {
	start := time.Now()
	if r.Method != http.MethodPost {
		http.Error(w, "POST only", http.StatusMethodNotAllowed)
		return
	}
	req, err := readRequest(w, r)
	if err != nil {
		s.metrics.JobsFailed.Add(1)
		http.Error(w, "bad request body: "+err.Error(), http.StatusBadRequest)
		return
	}
	// Fold the server's routing default into the request before parsing
	// so the cache key reflects the effective flag, not just the client's.
	req.Route = req.Route || s.cfg.Engine.Route
	jb, err := parseJob(req)
	if err != nil {
		s.metrics.JobsFailed.Add(1)
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}

	if body, ok := s.cache.Get(jb.key); ok {
		s.metrics.CacheHits.Add(1)
		h := w.Header()
		h.Set("Content-Type", "application/json")
		h.Set("Content-Length", strconv.Itoa(len(body)))
		w.WriteHeader(http.StatusOK)
		_, _ = w.Write(body) // a failed write is the client's loss; the answer stays cached
		s.metrics.ObserveHit(time.Since(start))
		return
	}

	// Per-job deadline: request override, server default, hard cap — and
	// tied to the client connection, so a disconnect cancels the solve.
	effTimeout := s.cfg.DefaultJobTime
	if req.TimeoutMS > 0 {
		effTimeout = time.Duration(req.TimeoutMS) * time.Millisecond
	}
	if effTimeout > s.cfg.MaxJobTime {
		effTimeout = s.cfg.MaxJobTime
	}
	ctx, cancel := context.WithTimeout(r.Context(), effTimeout)
	defer cancel()
	jb.ctx = ctx
	jb.done = make(chan struct{})

	// Admit or reject. The read lock keeps Shutdown's close(queue) from
	// racing the send; a full queue answers immediately with backpressure.
	s.mu.RLock()
	if s.draining {
		s.mu.RUnlock()
		http.Error(w, "draining", http.StatusServiceUnavailable)
		return
	}
	jb.admitted = time.Now()
	select {
	case s.queue <- jb:
		s.mu.RUnlock()
		s.metrics.JobsAccepted.Add(1)
		s.metrics.QueueDepth.Add(1)
	default:
		s.mu.RUnlock()
		s.metrics.JobsRejected.Add(1)
		w.Header().Set("Retry-After", "1")
		http.Error(w, "queue full", http.StatusTooManyRequests)
		return
	}

	<-jb.done
	if jb.err != nil {
		http.Error(w, "internal error: the job failed", http.StatusInternalServerError)
		return
	}
	writeJSON(w, http.StatusOK, jb.resp)
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	s.mu.RLock()
	draining := s.draining
	s.mu.RUnlock()
	if draining {
		http.Error(w, "draining", http.StatusServiceUnavailable)
		return
	}
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	fmt.Fprintf(w, "ok role=%s\n", s.cfg.Role)
}

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	fmt.Fprint(w, s.metrics.Render())
}

func (s *Server) logf(format string, args ...any) {
	if s.cfg.Log != nil {
		s.cfg.Log.Printf(format, args...)
	}
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	_ = json.NewEncoder(w).Encode(v)
}
