package server

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"log"
	"net/http"
	"strings"
	"time"

	"repro/internal/cnf"
	"repro/internal/cube"
	"repro/internal/sat"
)

// NodeConfig shapes a cube worker node.
type NodeConfig struct {
	// Coordinator is the coordinator's base URL (http://host:port).
	Coordinator string
	// Poll is the idle sleep between empty /cube/next pulls. 0 = 100ms.
	Poll time.Duration
	// Solver configures the per-task solver. Zero value takes the MiniSat
	// profile defaults.
	Solver sat.Options
	// Log receives one line per settled task; nil silences it.
	Log *log.Logger
}

// Node is a pull-based cube worker: it long-polls the coordinator for
// CubeTasks, solves each on a fresh solver (stateless by design — the
// resulting proof segments are self-contained, so the coordinator can
// stitch them in any arrival order), and posts CubeResults back. It also
// serves /healthz and /metrics for its own observability.
type Node struct {
	cfg     NodeConfig
	metrics *Metrics
	client  *http.Client
	mux     *http.ServeMux
}

// NewNode builds a worker node for the given coordinator.
func NewNode(cfg NodeConfig) *Node {
	if cfg.Poll <= 0 {
		cfg.Poll = 100 * time.Millisecond
	}
	if cfg.Solver == (sat.Options{}) {
		cfg.Solver = sat.DefaultOptions(sat.ProfileMiniSat)
	}
	n := &Node{
		cfg:     cfg,
		metrics: NewMetrics(),
		client:  &http.Client{},
		mux:     http.NewServeMux(),
	}
	n.mux.HandleFunc("/healthz", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		fmt.Fprintln(w, "ok role=worker")
	})
	n.mux.HandleFunc("/metrics", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		fmt.Fprint(w, n.metrics.Render())
	})
	return n
}

// Metrics exposes the node's registry (NodeCubesSolved et al.).
func (n *Node) Metrics() *Metrics { return n.metrics }

// ServeHTTP serves the node's health/metrics endpoints.
func (n *Node) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	n.mux.ServeHTTP(w, r)
}

// Run pulls and solves tasks until ctx is cancelled. Transport errors
// (coordinator restarting, network blips) degrade to the idle poll pace
// rather than failing the node.
func (n *Node) Run(ctx context.Context) error {
	for {
		if err := ctx.Err(); err != nil {
			return err
		}
		task, ok := n.next(ctx)
		if !ok {
			n.sleep(ctx)
			continue
		}
		res := n.solve(ctx, task)
		n.report(ctx, res)
	}
}

func (n *Node) sleep(ctx context.Context) {
	t := time.NewTimer(n.cfg.Poll)
	defer t.Stop()
	select {
	case <-ctx.Done():
	case <-t.C:
	}
}

// next pulls one task; ok is false when the queue is empty or the pull
// failed.
func (n *Node) next(ctx context.Context) (CubeTask, bool) {
	var task CubeTask
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, n.cfg.Coordinator+"/cube/next", nil)
	if err != nil {
		return task, false
	}
	resp, err := n.client.Do(req)
	if err != nil {
		return task, false
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return task, false
	}
	if err := json.NewDecoder(resp.Body).Decode(&task); err != nil {
		return task, false
	}
	return task, true
}

// solve runs one task on a fresh solver.
func (n *Node) solve(ctx context.Context, task CubeTask) CubeResult {
	res := CubeResult{JobID: task.JobID, Cube: task.Cube, Status: "UNKNOWN"}
	f, err := cnf.ReadDimacs(strings.NewReader(task.Formula))
	if err != nil {
		n.logf("task %s/%d: bad formula: %v", task.JobID, task.Cube, err)
		return res
	}
	assumps := make([]cnf.Lit, 0, len(task.Assumptions))
	for _, d := range task.Assumptions {
		l, err := cnf.LitFromDimacs(d)
		if err != nil {
			n.logf("task %s/%d: bad assumption %d", task.JobID, task.Cube, d)
			return res
		}
		assumps = append(assumps, l)
	}

	s := sat.New(n.cfg.Solver)
	var seg bytes.Buffer
	var sw cube.SegmentWriter
	if task.WithProof {
		// Before AddFormula, so an insertion-time contradiction logs its
		// empty clause into the segment.
		sw = cube.NewSegmentWriter(&seg)
		s.SetProof(sw)
	}
	ok := s.AddFormula(f)
	if task.TimeoutMS > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, time.Duration(task.TimeoutMS)*time.Millisecond)
		defer cancel()
	}
	s.SetInterrupt(ctx)

	st := sat.Unsat
	if ok {
		st = s.SolveAssuming(assumps, -1)
	}
	switch st {
	case sat.Sat:
		res.Status = "SAT"
		res.Model = s.Model()
	case sat.Unsat:
		res.Status = "UNSAT"
		res.Outright = !s.Okay()
		for _, l := range s.FailedAssumptions() {
			res.Failed = append(res.Failed, l.Dimacs())
		}
		if task.WithProof {
			sw.Flush()
			res.Proof = seg.String()
		}
	}
	if res.Status != "UNKNOWN" {
		n.metrics.NodeCubesSolved.Add(1)
	}
	n.logf("task %s/%d: %s", task.JobID, task.Cube, res.Status)
	return res
}

// report posts the result back; failures are logged and dropped (the
// coordinator's job deadline handles the loss).
func (n *Node) report(ctx context.Context, res CubeResult) {
	body, err := json.Marshal(res)
	if err != nil {
		return
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost,
		n.cfg.Coordinator+"/cube/result", bytes.NewReader(body))
	if err != nil {
		return
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := n.client.Do(req)
	if err != nil {
		n.logf("report %s/%d failed: %v", res.JobID, res.Cube, err)
		return
	}
	resp.Body.Close()
}

func (n *Node) logf(format string, args ...any) {
	if n.cfg.Log != nil {
		n.cfg.Log.Printf(format, args...)
	}
}
