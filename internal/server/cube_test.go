package server

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"strings"
	"testing"
	"time"

	"repro/internal/cnf"
	"repro/internal/cube"
	"repro/internal/proof"
	"repro/internal/satgen"
)

func dimacsOf(t *testing.T, f *cnf.Formula) string {
	t.Helper()
	var sb strings.Builder
	if err := cnf.WriteDimacs(&sb, f); err != nil {
		t.Fatal(err)
	}
	return sb.String()
}

// Solo role: cube mode splits and conquers in-process, and the proof
// verifies against the input.
func TestCubeModeSolo(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 2})
	f := satgen.Pigeonhole(5, 4).Formula
	resp, out := postJob(t, ts.URL, Request{
		Format: "dimacs", Input: dimacsOf(t, f),
		Mode: "cube", Workers: 2, MaxCubes: 8, Proof: true,
		TimeoutMS: 30000,
	})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d, want 200", resp.StatusCode)
	}
	if out.Status != "UNSAT" {
		t.Fatalf("Status = %q, want UNSAT", out.Status)
	}
	if out.Cubes < 2 {
		t.Fatalf("Cubes = %d, want a real split", out.Cubes)
	}
	cr, err := proof.Check(f, strings.NewReader(out.Proof))
	if err != nil || !cr.Verified {
		t.Fatalf("solo cube proof rejected: %v (verified=%v)", err, cr != nil && cr.Verified)
	}
}

func TestCubeModeSoloSat(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 2})
	f := satgen.Pigeonhole(4, 4).Formula
	_, out := postJob(t, ts.URL, Request{
		Format: "dimacs", Input: dimacsOf(t, f),
		Mode: "cube", Workers: 2, MaxCubes: 8, TimeoutMS: 30000,
	})
	if out.Status != "SAT" {
		t.Fatalf("Status = %q, want SAT", out.Status)
	}
	if !f.Eval(func(v cnf.Var) bool { return out.Solution[v] }) {
		t.Fatal("returned model does not satisfy the formula")
	}
}

// Coordinator + worker nodes, fully in-process: the coordinator splits,
// two pulling nodes conquer, the stitched proof checks, and a
// resubmission is served from the coordinator's cache.
func TestCubeCoordinatorWithNodes(t *testing.T) {
	srv, ts := newTestServer(t, Config{Workers: 2, Role: RoleCoordinator})

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	for i := 0; i < 2; i++ {
		node := NewNode(NodeConfig{Coordinator: ts.URL, Poll: 5 * time.Millisecond})
		go node.Run(ctx)
	}

	f := satgen.Pigeonhole(5, 4).Formula
	req := Request{
		Format: "dimacs", Input: dimacsOf(t, f),
		Mode: "cube", MaxCubes: 8, Proof: true, TimeoutMS: 30000,
	}
	_, out := postJob(t, ts.URL, req)
	if out.Status != "UNSAT" {
		t.Fatalf("Status = %q, want UNSAT", out.Status)
	}
	cr, err := proof.Check(f, strings.NewReader(out.Proof))
	if err != nil || !cr.Verified {
		t.Fatalf("stitched distributed proof rejected: %v (verified=%v)", err, cr != nil && cr.Verified)
	}
	if got := srv.Metrics().CubesDispatched.Load(); got < 2 {
		t.Fatalf("CubesDispatched = %d, want the fan-out", got)
	}
	if got := srv.Metrics().CubeResults.Load(); got == 0 {
		t.Fatal("no cube results recorded")
	}

	// Identical resubmission: cache hit on the normalized-formula key.
	_, again := postJob(t, ts.URL, req)
	if !again.Cached {
		t.Fatal("resubmission not served from cache")
	}
	if again.Status != "UNSAT" || again.Proof != out.Proof {
		t.Fatal("cached response differs from the original")
	}
}

// A SAT instance short-circuits the distributed job: the first SAT cube
// settles it, and the model verifies.
func TestCubeCoordinatorSatShortCircuit(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1, Role: RoleCoordinator})
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	node := NewNode(NodeConfig{Coordinator: ts.URL, Poll: 5 * time.Millisecond})
	go node.Run(ctx)

	f := satgen.Pigeonhole(4, 4).Formula
	_, out := postJob(t, ts.URL, Request{
		Format: "dimacs", Input: dimacsOf(t, f),
		Mode: "cube", MaxCubes: 8, TimeoutMS: 30000,
	})
	if out.Status != "SAT" {
		t.Fatalf("Status = %q, want SAT", out.Status)
	}
	if !f.Eval(func(v cnf.Var) bool { return out.Solution[v] }) {
		t.Fatal("distributed model does not satisfy the formula")
	}
}

// A coordinator with no worker nodes cannot finish a cube job: its
// deadline cancels it, and the queue entries die with it.
func TestCubeCoordinatorTimesOutWithoutNodes(t *testing.T) {
	srv, ts := newTestServer(t, Config{Workers: 1, Role: RoleCoordinator})
	f := satgen.Pigeonhole(5, 4).Formula
	_, out := postJob(t, ts.URL, Request{
		Format: "dimacs", Input: dimacsOf(t, f),
		Mode: "cube", MaxCubes: 4, TimeoutMS: 300,
	})
	if out.Status != "CANCELED" {
		t.Fatalf("Status = %q, want CANCELED", out.Status)
	}
	// The parked job is gone; stale refs are dropped on the next pull.
	if task, ok := srv.cubes.next(); ok {
		t.Fatalf("stale task served after cancellation: %+v", task)
	}
	if got := srv.Metrics().CubeJobsActive.Load(); got != 0 {
		t.Fatalf("CubeJobsActive = %d after cancellation, want 0", got)
	}
}

// A task's TimeoutMS bounds the node's solve: on a formula far too hard
// for the budget the node answers UNKNOWN soon after it, with the node's
// own context still live.
func TestNodeTaskTimeoutAnswersUnknown(t *testing.T) {
	n := NewNode(NodeConfig{Coordinator: "http://127.0.0.1:1"})
	task := CubeTask{
		JobID:     "j",
		Formula:   dimacsOf(t, satgen.Pigeonhole(12, 11).Formula),
		TimeoutMS: 100,
	}
	start := time.Now()
	res := n.solve(context.Background(), task)
	if res.Status != "UNKNOWN" {
		t.Fatalf("Status = %q, want UNKNOWN", res.Status)
	}
	if d := time.Since(start); d > 3*time.Second {
		t.Fatalf("node took %v on a 100 ms task", d)
	}
}

// Solo-role servers do not expose the coordination endpoints.
func TestCubeEndpointsSoloRole(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1})
	resp, err := http.Get(ts.URL + "/cube/next")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("/cube/next on solo role = %d, want 404", resp.StatusCode)
	}
}

// An UNKNOWN node result re-queues the cube for another pull.
func TestCubeUnknownResultRequeues(t *testing.T) {
	reg := newCubeRegistry(30 * time.Second)
	f := satgen.Pigeonhole(5, 4).Formula
	dj := &distJob{
		formText:  dimacsOf(t, f),
		withProof: false,
		done:      make(chan struct{}),
	}
	tree := splitForTest(t, f)
	dj.tree = tree
	dj.outcomes = make([]distOutcome, len(tree.Open))
	dj.remaining = len(tree.Open)
	reg.register(dj, "deadbeefdeadbeef")

	task, ok := reg.next()
	if !ok {
		t.Fatal("no task from a registered job")
	}
	if requeued, used := reg.record(CubeResult{JobID: task.JobID, Cube: task.Cube, Status: "UNKNOWN"}); !requeued || !used {
		t.Fatalf("UNKNOWN result: requeued=%v used=%v, want true/true", requeued, used)
	}
	// Drain the queue; the re-queued cube must come around again.
	seen := map[int]int{}
	for {
		tk, ok := reg.next()
		if !ok {
			break
		}
		seen[tk.Cube]++
	}
	if seen[task.Cube] == 0 {
		t.Fatalf("cube %d never re-dispatched after UNKNOWN", task.Cube)
	}
	// Duplicate and unknown-job results are ignored, not errors.
	if _, used := reg.record(CubeResult{JobID: "nope", Cube: 0, Status: "UNSAT"}); used {
		t.Fatal("result for unknown job was used")
	}
}

// A cube leased to a node that dies (never answers) is re-queued once
// its lease expires, and only then; settled cubes and fresh leases are
// left alone. Driven by an injected clock — no wall-clock sleeps.
func TestCubeLeaseReaperRedispatches(t *testing.T) {
	reg := newCubeRegistry(10 * time.Second)
	clock := time.Unix(1000, 0)
	reg.now = func() time.Time { return clock }

	f := satgen.Pigeonhole(5, 4).Formula
	tree := splitForTest(t, f)
	dj := &distJob{
		formText:  dimacsOf(t, f),
		tree:      tree,
		outcomes:  make([]distOutcome, len(tree.Open)),
		remaining: len(tree.Open),
		done:      make(chan struct{}),
	}
	reg.register(dj, "deadbeefdeadbeef")

	// Lease two cubes: one to the "dead" node, one we settle promptly.
	lost, ok := reg.next()
	if !ok {
		t.Fatal("no task from a registered job")
	}
	settled, ok := reg.next()
	if !ok {
		t.Fatal("no second task")
	}
	if _, used := reg.record(CubeResult{JobID: settled.JobID, Cube: settled.Cube, Status: "UNSAT", Failed: settled.Assumptions}); !used {
		t.Fatal("prompt UNSAT result not used")
	}

	// Inside the TTL nothing is reaped.
	clock = clock.Add(9 * time.Second)
	if n := reg.reap(); n != 0 {
		t.Fatalf("reap inside TTL = %d, want 0", n)
	}

	// Past the TTL only the lost cube comes back; the settled one stays
	// settled and the still-queued ones are untouched (never leased).
	clock = clock.Add(2 * time.Second)
	if n := reg.reap(); n != 1 {
		t.Fatalf("reap past TTL = %d, want exactly the lost cube", n)
	}
	if n := reg.reap(); n != 0 {
		t.Fatalf("second reap = %d, want 0 (lease cleared on requeue)", n)
	}

	// Drain the queue: the lost cube must be dispatchable again.
	seen := map[int]int{}
	for {
		tk, ok := reg.next()
		if !ok {
			break
		}
		seen[tk.Cube]++
	}
	if seen[lost.Cube] == 0 {
		t.Fatalf("cube %d never re-dispatched after its lease expired", lost.Cube)
	}
	if seen[settled.Cube] != 0 {
		t.Fatalf("settled cube %d re-dispatched", settled.Cube)
	}

	// The original node answering late is deduped, not an error.
	if _, used := reg.record(CubeResult{JobID: settled.JobID, Cube: settled.Cube, Status: "UNSAT", Failed: settled.Assumptions}); used {
		t.Fatal("duplicate settle of an already-settled cube was used")
	}

	// Re-leased and expired again: reaped again (leases re-stamp on dispatch).
	clock = clock.Add(11 * time.Second)
	if n := reg.reap(); n == 0 {
		t.Fatal("re-leased cubes never reaped after second expiry")
	}
}

func splitForTest(t *testing.T, f *cnf.Formula) *cube.Tree {
	t.Helper()
	opts := cube.DefaultOptions()
	opts.MaxCubes = 4
	tree := cube.Split(f, opts)
	if len(tree.Open) == 0 {
		t.Fatal("splitter produced no open cubes")
	}
	return tree
}

// A worker node's SAT model is evaluated on the job's formula before it
// settles anything. Here a node posts an all-false "model" for the UNSAT
// PHP(5,4): the cube goes back in line, a real node then refutes every
// cube, and neither the answer nor the resent request's is SAT.
func TestCubeCoordinatorRejectsFalseModel(t *testing.T) {
	srv, ts := newTestServer(t, Config{Workers: 1, Role: RoleCoordinator})
	f := satgen.Pigeonhole(5, 4).Formula
	req := Request{Format: "dimacs", Input: dimacsOf(t, f), Mode: "cube", MaxCubes: 8, TimeoutMS: 30000}
	answers := make(chan *Response, 1)
	go func() {
		_, out := postJob(t, ts.URL, req)
		answers <- out
	}()

	var task CubeTask
	for deadline := time.Now().Add(10 * time.Second); ; time.Sleep(5 * time.Millisecond) {
		var ok bool
		if task, ok = srv.cubes.next(); ok {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("the cube job never offered a task")
		}
	}
	body, err := json.Marshal(CubeResult{JobID: task.JobID, Cube: task.Cube, Status: "SAT", Model: make([]bool, f.NumVars)})
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(ts.URL+"/cube/result", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if got := srv.Metrics().CubesRequeued.Load(); got != 1 {
		t.Fatalf("CubesRequeued = %d after a false model, want 1", got)
	}

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	go NewNode(NodeConfig{Coordinator: ts.URL, Poll: 5 * time.Millisecond}).Run(ctx)
	out := <-answers
	if out == nil || out.Status != "UNSAT" {
		t.Fatalf("answer %+v, want UNSAT", out)
	}
	_, again := postJob(t, ts.URL, req)
	if again == nil || !again.Cached || again.Status != "UNSAT" {
		t.Fatalf("resent request answered %+v, want the cached UNSAT", again)
	}
}
