package server

import (
	"encoding/json"
	"fmt"
	"net/http"
	"sync"
	"time"

	"repro/internal/cnf"
	"repro/internal/cube"
	"repro/internal/sat"
)

// This file is the coordinator side of distributed cube-and-conquer: a
// coordinator-role server splits a cube-mode job in-process, parks the
// job, and serves the open cubes as pull tasks to worker nodes
// (internal/server/node.go) over two endpoints:
//
//	GET  /cube/next    next open cube as a CubeTask, or 204 when idle
//	POST /cube/result  a worker node's CubeResult for one cube
//
// Worker nodes are stateless: each task carries the full canonical
// DIMACS formula and the cube as assumptions, and is solved on a fresh
// solver. That makes every returned proof segment self-contained (RUP
// against the input alone), so the coordinator can hand segments to
// cube.StitchProof in arrival order, whatever the interleaving was. A
// SAT or outright-UNSAT result finishes the job early; tasks already
// dispatched for a finished job are simply ignored when their results
// arrive, and queued ones are dropped lazily on pop. A task answered
// UNKNOWN (node deadline, malformed transfer) is re-queued — the job's
// own deadline bounds the retries.

// CubeTask is one open cube, shipped to a worker node.
type CubeTask struct {
	// JobID names the coordinator-side job instance (not the cache key:
	// two identical submissions in flight get distinct IDs).
	JobID string `json:"job_id"`
	// Cube is the index of this cube in the job's open-cube list.
	Cube int `json:"cube"`
	// Formula is the full input, canonical DIMACS.
	Formula string `json:"formula"`
	// Assumptions is the cube prefix as DIMACS literals.
	Assumptions []int `json:"assumptions"`
	// WithProof asks the node for a DRAT segment on UNSAT.
	WithProof bool `json:"with_proof"`
	// TimeoutMS is the remaining job budget at dispatch time.
	TimeoutMS int64 `json:"timeout_ms,omitempty"`
}

// CubeResult is a worker node's answer for one task.
type CubeResult struct {
	JobID  string `json:"job_id"`
	Cube   int    `json:"cube"`
	Status string `json:"status"` // SAT | UNSAT | UNKNOWN
	// Model is the satisfying assignment on SAT.
	Model []bool `json:"model,omitempty"`
	// Failed is the failed-assumption subset (DIMACS) on cube-level UNSAT.
	Failed []int `json:"failed,omitempty"`
	// Outright marks a refutation independent of the cube (the segment
	// ends in the empty clause).
	Outright bool `json:"outright,omitempty"`
	// Proof is the node's self-contained DRAT segment (with_proof only).
	Proof string `json:"proof,omitempty"`
}

// distOutcome is the coordinator's record of one cube's settled result
// plus its dispatch lease. leasedAt is the last dispatch time: zero means
// the cube is queued (or settled), non-zero means some node holds it. A
// lease older than the registry's TTL is presumed lost — the node died or
// went silent — and the reaper puts the cube back in line. Duplicate
// dispatch is safe: record() settles each cube exactly once.
type distOutcome struct {
	settled  bool
	failed   []cnf.Lit
	leasedAt time.Time
}

// distJob is one parked cube-mode job awaiting remote conquest. All
// fields past the channel are guarded by the registry mutex until
// finished flips; after that only the coordinator goroutine (released by
// the done close, which orders the accesses) reads them.
type distJob struct {
	id        string
	tree      *cube.Tree
	form      *cnf.Formula // checks the models nodes send
	formText  string
	withProof bool
	deadline  time.Time // the job's context deadline, shipped with tasks

	outcomes  []distOutcome
	segments  [][]byte
	remaining int
	finished  bool
	status    sat.Status
	model     []bool
	done      chan struct{}
}

// cubeRegistry is the coordinator's job table plus the FIFO dispatch
// queue of (job, cube) refs. Refs to finished jobs are dropped on pop.
type cubeRegistry struct {
	mu   sync.Mutex
	seq  int64
	jobs map[string]*distJob
	fifo []taskRef

	// leaseTTL bounds how long a dispatched cube may stay unanswered
	// before the reaper re-queues it; now is injectable for tests.
	leaseTTL time.Duration
	now      func() time.Time
}

type taskRef struct {
	id   string
	cube int
}

func newCubeRegistry(leaseTTL time.Duration) *cubeRegistry {
	return &cubeRegistry{
		jobs:     make(map[string]*distJob),
		leaseTTL: leaseTTL,
		now:      time.Now,
	}
}

// register parks a job and queues every open cube for dispatch.
func (r *cubeRegistry) register(dj *distJob, keyHint string) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.seq++
	hint := keyHint
	if len(hint) > 12 {
		hint = hint[:12]
	}
	dj.id = fmt.Sprintf("%s-%d", hint, r.seq)
	r.jobs[dj.id] = dj
	for i := range dj.tree.Open {
		r.fifo = append(r.fifo, taskRef{id: dj.id, cube: i})
	}
}

func (r *cubeRegistry) unregister(id string) {
	r.mu.Lock()
	delete(r.jobs, id)
	r.mu.Unlock()
}

// finishLocked settles a job's verdict and releases its coordinator.
// Callers hold r.mu.
func (dj *distJob) finishLocked(st sat.Status, model []bool) {
	if dj.finished {
		return
	}
	dj.finished = true
	dj.status = st
	dj.model = model
	close(dj.done)
}

// next pops the first ref whose job is still live and builds its task.
func (r *cubeRegistry) next() (CubeTask, bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	for len(r.fifo) > 0 {
		ref := r.fifo[0]
		r.fifo = r.fifo[1:]
		dj := r.jobs[ref.id]
		if dj == nil || dj.finished || dj.outcomes[ref.cube].settled {
			continue
		}
		dj.outcomes[ref.cube].leasedAt = r.now()
		assumps := dj.tree.Open[ref.cube]
		t := CubeTask{
			JobID:     dj.id,
			Cube:      ref.cube,
			Formula:   dj.formText,
			WithProof: dj.withProof,
		}
		if !dj.deadline.IsZero() {
			if left := time.Until(dj.deadline).Milliseconds(); left > 0 {
				t.TimeoutMS = left
			} else {
				t.TimeoutMS = 1
			}
		}
		for _, l := range assumps {
			t.Assumptions = append(t.Assumptions, l.Dimacs())
		}
		return t, true
	}
	return CubeTask{}, false
}

// record folds one node result into its job. The bool reports whether
// the result was used (false: unknown/finished job or duplicate cube).
func (r *cubeRegistry) record(res CubeResult) (requeued, used bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	dj := r.jobs[res.JobID]
	if dj == nil || dj.finished {
		return false, false
	}
	if res.Cube < 0 || res.Cube >= len(dj.outcomes) || dj.outcomes[res.Cube].settled {
		return false, false
	}
	switch {
	case res.Status == "SAT" && modelSatisfies(dj.form, res.Model):
		dj.outcomes[res.Cube].settled = true
		dj.finishLocked(sat.Sat, res.Model)
	case res.Status == "UNSAT":
		// Validate before mutating: a result with a malformed literal must
		// not settle the cube half-way.
		failed := make([]cnf.Lit, 0, len(res.Failed))
		for _, d := range res.Failed {
			l, err := cnf.LitFromDimacs(d)
			if err != nil {
				return false, false
			}
			failed = append(failed, l)
		}
		o := &dj.outcomes[res.Cube]
		o.settled = true
		o.failed = failed
		if dj.withProof && res.Proof != "" {
			dj.segments = append(dj.segments, []byte(res.Proof))
		}
		dj.remaining--
		if res.Outright || dj.remaining == 0 {
			dj.finishLocked(sat.Unsat, nil)
		}
	default:
		// The node gave up (its deadline, a transfer problem) or sent a
		// model that fails the formula: put the cube back in line. The
		// job's own deadline bounds this.
		dj.outcomes[res.Cube].leasedAt = time.Time{}
		r.fifo = append(r.fifo, taskRef{id: dj.id, cube: res.Cube})
		return true, true
	}
	return false, true
}

// reap re-queues every unsettled cube whose dispatch lease has been out
// longer than the TTL — its node died or went silent mid-conquest — and
// returns how many it put back. A late answer from the presumed-dead
// node is still accepted (record dedups on settled), and if the node was
// merely slow the cube is conquered twice, which is wasted work but
// never a wrong answer.
func (r *cubeRegistry) reap() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	cutoff := r.now().Add(-r.leaseTTL)
	n := 0
	for _, dj := range r.jobs {
		if dj.finished {
			continue
		}
		for i := range dj.outcomes {
			o := &dj.outcomes[i]
			if o.settled || o.leasedAt.IsZero() || o.leasedAt.After(cutoff) {
				continue
			}
			o.leasedAt = time.Time{}
			r.fifo = append(r.fifo, taskRef{id: dj.id, cube: i})
			n++
		}
	}
	return n
}

// cubeReaper is the coordinator's lease-recovery loop: every quarter-TTL
// it re-queues cubes whose worker node has gone silent past the TTL, so
// a dead node stalls its cubes for at most ~1.25 lease periods instead
// of pinning them until the job deadline. Runs until Shutdown.
func (s *Server) cubeReaper() {
	tick := time.NewTicker(s.cfg.CubeLeaseTTL / 4)
	defer tick.Stop()
	for {
		select {
		case <-s.stopReaper:
			return
		case <-tick.C:
			if n := s.cubes.reap(); n > 0 {
				s.metrics.CubesReaped.Add(int64(n))
				s.logf("cube reaper: re-queued %d expired lease(s)", n)
			}
		}
	}
}

// runCubeCoordinator executes a cube job in coordinator role: split
// locally, then wait for worker nodes to conquer the open cubes.
func (s *Server) runCubeCoordinator(jb *job) *Response {
	start := time.Now()
	opts := jb.cubeOptions(s.cfg.Engine)
	tree := cube.Split(jb.form, opts)
	resp := &Response{Cubes: len(tree.Open)}
	if tree.Status == sat.Unsat {
		// Refuted by the splitter's propagation alone — no conquest needed.
		resp.Status = sat.Unsat.String()
		if jb.req.Proof {
			resp.Proof = string(cube.StitchProof(tree, nil, nil))
		}
		resp.ElapsedMS = time.Since(start).Milliseconds()
		return resp
	}

	dj := &distJob{
		tree:      tree,
		form:      jb.form,
		formText:  jb.formText,
		withProof: jb.req.Proof,
		outcomes:  make([]distOutcome, len(tree.Open)),
		remaining: len(tree.Open),
		done:      make(chan struct{}),
	}
	if d, ok := jb.ctx.Deadline(); ok {
		dj.deadline = d
	}
	s.cubes.register(dj, jb.key)
	s.metrics.CubeJobsActive.Add(1)
	defer func() {
		s.cubes.unregister(dj.id)
		s.metrics.CubeJobsActive.Add(-1)
	}()

	select {
	case <-dj.done:
	case <-jb.ctx.Done():
		// Settle the job under the lock so in-flight results and queued
		// refs are dropped from here on.
		s.cubes.mu.Lock()
		dj.finishLocked(sat.Unknown, nil)
		s.cubes.mu.Unlock()
		resp.Status = "CANCELED"
		resp.ElapsedMS = time.Since(start).Milliseconds()
		return resp
	}

	resp.Status = dj.status.String()
	resp.ElapsedMS = time.Since(start).Milliseconds()
	switch dj.status {
	case sat.Sat:
		resp.Solution = dj.model
	case sat.Unsat:
		if dj.withProof {
			failed := make([][]cnf.Lit, len(dj.outcomes))
			for i := range dj.outcomes {
				failed[i] = dj.outcomes[i].failed
			}
			resp.Proof = string(cube.StitchProof(tree, dj.segments, failed))
		}
	}
	return resp
}

// handleCubeNext serves the dispatch queue to pulling worker nodes.
func (s *Server) handleCubeNext(w http.ResponseWriter, r *http.Request) {
	task, ok := s.cubes.next()
	if !ok {
		w.WriteHeader(http.StatusNoContent)
		return
	}
	s.metrics.CubesDispatched.Add(1)
	writeJSON(w, http.StatusOK, &task)
}

// handleCubeResult accepts one node result. Results for finished or
// unknown jobs are acknowledged and dropped — with pull-based dispatch
// and early SAT short-circuit they are expected, not errors.
func (s *Server) handleCubeResult(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		http.Error(w, "POST only", http.StatusMethodNotAllowed)
		return
	}
	var res CubeResult
	r.Body = http.MaxBytesReader(w, r.Body, maxBodyBytes)
	if err := json.NewDecoder(r.Body).Decode(&res); err != nil {
		http.Error(w, "bad result body: "+err.Error(), http.StatusBadRequest)
		return
	}
	requeued, used := s.cubes.record(res)
	s.metrics.CubeResults.Add(1)
	if requeued {
		s.metrics.CubesRequeued.Add(1)
	}
	writeJSON(w, http.StatusOK, map[string]bool{"used": used})
}
