package server

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"log"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/anf"
	"repro/internal/cnf"
	"repro/internal/core"
	"repro/internal/sat"
	"repro/internal/satgen"
)

// easyANF is the worked example from the paper: processing it learns
// facts and simplifies the system in well under a millisecond.
const easyANF = "x1*x2 + x1 + x2\nx1*x3 + x2\nx1 + x3\n"

// hardDimacs returns PHP(n+1, n) as DIMACS text — UNSAT, and
// exponentially hard for a CDCL solver, so a job over it with a huge
// conflict budget only ends by cancellation.
func hardDimacs(t *testing.T, holes int) string {
	t.Helper()
	var sb strings.Builder
	if err := cnf.WriteDimacs(&sb, satgen.Pigeonhole(holes+1, holes).Formula); err != nil {
		t.Fatal(err)
	}
	return sb.String()
}

func newTestServer(t *testing.T, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	if cfg.Engine.MaxIterations == 0 {
		cfg.Engine = core.DefaultConfig()
	}
	s := New(cfg)
	ts := httptest.NewServer(s)
	t.Cleanup(func() {
		ts.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		_ = s.Shutdown(ctx)
	})
	return s, ts
}

func postJob(t *testing.T, url string, req Request) (*http.Response, *Response) {
	t.Helper()
	body, _ := json.Marshal(req)
	resp, err := http.Post(url+"/solve", "application/json", strings.NewReader(string(body)))
	if err != nil {
		t.Fatalf("POST /solve: %v", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return resp, nil
	}
	var out Response
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatalf("decode response: %v", err)
	}
	return resp, &out
}

func TestSolveANFJob(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 2})
	resp, out := postJob(t, ts.URL, Request{Format: "anf", Input: easyANF, Mode: "solve"})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d, want 200", resp.StatusCode)
	}
	if out.Status != "SAT" && out.Status != "PROCESSED" {
		t.Fatalf("Status = %q", out.Status)
	}
	total := 0
	for _, n := range out.Facts {
		total += n
	}
	if total == 0 {
		t.Fatal("no facts learnt on the paper example")
	}
	if out.ANF == "" {
		t.Fatal("no simplified ANF returned")
	}
}

func TestSolveDimacsPortfolio(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 2})
	resp, out := postJob(t, ts.URL, Request{
		Format: "dimacs", Input: hardDimacs(t, 4), Mode: "portfolio", TimeoutMS: 20000,
	})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d, want 200", resp.StatusCode)
	}
	if out.Status != "UNSAT" {
		t.Fatalf("PHP(5,4) portfolio Status = %q, want UNSAT", out.Status)
	}
	if out.Winner == "" {
		t.Fatal("no winner reported")
	}
}

func TestConcurrentJobsComplete(t *testing.T) {
	s, ts := newTestServer(t, Config{Workers: 4, QueueSize: 32})
	const n = 16
	var wg sync.WaitGroup
	errs := make(chan error, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			// Distinct seeds dodge the cache so every job really runs.
			_, out := postJob(t, ts.URL, Request{Format: "anf", Input: easyANF, Seed: int64(i + 1)})
			if out == nil {
				errs <- fmt.Errorf("job %d rejected", i)
			} else if out.Status == "CANCELED" {
				errs <- fmt.Errorf("job %d canceled", i)
			}
		}(i)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	if got := s.Metrics().JobsCompleted.Load(); got != n {
		t.Errorf("JobsCompleted = %d, want %d", got, n)
	}
	if got := s.Metrics().QueueDepth.Load(); got != 0 {
		t.Errorf("QueueDepth = %d after drain of work, want 0", got)
	}
}

// TestCanceledJobFreesWorker is the core acceptance check: a job over an
// exponentially hard instance with an effectively unlimited conflict
// budget gets a short deadline, and the single worker must be free for
// the next job within 2 seconds of the deadline.
func TestCanceledJobFreesWorker(t *testing.T) {
	s, ts := newTestServer(t, Config{Workers: 1, QueueSize: 4})
	hard := hardDimacs(t, 9)

	start := time.Now()
	_, out := postJob(t, ts.URL, Request{
		Format: "dimacs", Input: hard, Mode: "solve",
		ConflictBudget: 1 << 40, TimeoutMS: 300,
	})
	if out == nil {
		t.Fatal("hard job rejected")
	}
	if out.Status != "CANCELED" {
		t.Fatalf("hard job Status = %q, want CANCELED", out.Status)
	}
	if wall := time.Since(start); wall > 2*time.Second+300*time.Millisecond {
		t.Fatalf("canceled job held its worker for %s", wall)
	}

	// The freed worker must pick up a fresh job promptly.
	start = time.Now()
	_, out = postJob(t, ts.URL, Request{Format: "anf", Input: easyANF})
	if out == nil || time.Since(start) > 2*time.Second {
		t.Fatalf("worker not freed: follow-up job took %s (resp %+v)", time.Since(start), out)
	}
	if got := s.Metrics().JobsCanceled.Load(); got != 1 {
		t.Errorf("JobsCanceled = %d, want 1", got)
	}
}

func TestQueueFullBackpressure(t *testing.T) {
	s, ts := newTestServer(t, Config{Workers: 1, QueueSize: 1})
	hard := hardDimacs(t, 9)
	slow := func(seed int64) Request {
		return Request{
			Format: "dimacs", Input: hard, Mode: "solve",
			ConflictBudget: 1 << 40, TimeoutMS: 3000, Seed: seed,
		}
	}

	// Occupy the worker, then the one queue slot, then overflow.
	var wg sync.WaitGroup
	for i := int64(1); i <= 2; i++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			postJob(t, ts.URL, slow(seed))
		}(i)
	}
	// Wait until both jobs are admitted (one running, one queued).
	deadline := time.Now().Add(5 * time.Second)
	for s.Metrics().JobsAccepted.Load() < 2 && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
	}
	if s.Metrics().JobsAccepted.Load() < 2 {
		t.Fatal("setup jobs never admitted")
	}
	// Give the worker a moment to pull the first job off the queue, so
	// the queue slot is held by the second.
	for s.Metrics().QueueDepth.Load() > 1 && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
	}

	resp, _ := postJob(t, ts.URL, slow(3))
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("overflow job status = %d, want 429", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Error("429 response missing Retry-After header")
	}
	if got := s.Metrics().JobsRejected.Load(); got != 1 {
		t.Errorf("JobsRejected = %d, want 1", got)
	}
	wg.Wait()
}

func TestCacheHit(t *testing.T) {
	s, ts := newTestServer(t, Config{Workers: 1})
	req := Request{Format: "anf", Input: easyANF}
	_, first := postJob(t, ts.URL, req)
	if first == nil || first.Cached {
		t.Fatalf("first job: %+v", first)
	}
	// Same problem, different whitespace: normalization must map both to
	// the same cache key.
	req.Input = "x1*x2  +  x1 + x2\n\nx1*x3 + x2\nx1 + x3\n"
	_, second := postJob(t, ts.URL, req)
	if second == nil || !second.Cached {
		t.Fatalf("second job not served from cache: %+v", second)
	}
	if second.Status != first.Status {
		t.Errorf("cached Status = %q, first = %q", second.Status, first.Status)
	}
	if got := s.Metrics().CacheHits.Load(); got != 1 {
		t.Errorf("CacheHits = %d, want 1", got)
	}
}

// Process and solve results do not depend on the learner fan-out, and
// portfolio ignores workers, so a request that differs only in workers is
// served from the cache with the same answer. Cube runs, whose pool size
// changes the run, keep workers in the key.
func TestCacheKeyIgnoresEngineWorkers(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1})
	req := Request{Format: "anf", Input: easyANF, Mode: "process"}
	_, first := postJob(t, ts.URL, req)
	if first == nil || first.Cached {
		t.Fatalf("first job: %+v", first)
	}
	req.Workers = 2
	_, second := postJob(t, ts.URL, req)
	if second == nil || !second.Cached {
		t.Fatalf("workers=2 job not served from cache: %+v", second)
	}
	if second.Status != first.Status || second.ANF != first.ANF || !reflect.DeepEqual(second.Facts, first.Facts) {
		t.Errorf("cached answer differs: %+v vs %+v", second, first)
	}
	for _, mode := range []string{"process", "solve", "portfolio", "cube"} {
		one, err := parseJob(Request{Format: "anf", Input: easyANF, Mode: mode, Workers: 1})
		if err != nil {
			t.Fatal(err)
		}
		four, err := parseJob(Request{Format: "anf", Input: easyANF, Mode: mode, Workers: 4})
		if err != nil {
			t.Fatal(err)
		}
		if split := one.key != four.key; split != (mode == "cube") {
			t.Errorf("mode %s: workers splits the cache key = %v", mode, split)
		}
	}
}

// A panic in a solve stays inside its job: the request gets a 500, the
// job counts as failed, nothing is cached, and the worker goes on to serve
// the next request. The technique panics on systems over more than three
// variables, so the paper's five-variable example trips it and easyANF
// does not. With three learners at once the panic is raised on a learner
// goroutine and must be re-raised on the worker's.
func TestJobPanicContained(t *testing.T) {
	boom := core.TechniqueFunc{TechName: "boom", Fn: func(_ context.Context, sys *anf.System, _ *rand.Rand) []anf.Poly {
		if sys.NumVars() > 4 {
			panic("boom")
		}
		return nil
	}}
	const paperANF = "x1*x2 + x3 + x4 + 1\nx1*x2*x3 + x1 + x3 + 1\nx1*x3 + x3*x4*x5 + x3\nx2*x3 + x3*x5 + 1\nx2*x3 + x5 + 1\n"
	for _, workers := range []int{1, 3} {
		engine := core.DefaultConfig()
		engine.Workers = workers
		engine.ExtraTechniques = []core.Technique{boom}
		s, ts := newTestServer(t, Config{Workers: workers, Engine: engine})
		for i := 0; i < 2; i++ {
			resp, _ := postJob(t, ts.URL, Request{Format: "anf", Input: paperANF, Mode: "solve"})
			if resp.StatusCode != http.StatusInternalServerError {
				t.Fatalf("workers=%d: panicking job %d answered %d, want 500", workers, i, resp.StatusCode)
			}
		}
		resp, out := postJob(t, ts.URL, Request{Format: "anf", Input: easyANF, Mode: "solve"})
		if resp.StatusCode != http.StatusOK || out == nil || out.Cached {
			t.Fatalf("workers=%d: next job answered %d (%+v), want a fresh 200", workers, resp.StatusCode, out)
		}
		m := s.Metrics()
		if failed, done := m.JobsFailed.Load(), m.JobsCompleted.Load(); failed != 2 || done != 1 {
			t.Errorf("workers=%d: failed=%d completed=%d, want 2 and 1", workers, failed, done)
		}
		if hits, cached := m.CacheHits.Load(), s.cache.Len(); hits != 0 || cached != 1 {
			t.Errorf("workers=%d: cache hits=%d entries=%d, want 0 and 1 (the good job only)", workers, hits, cached)
		}
	}
}

func TestMetricsCountersMatchJobs(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 2})
	const n = 5
	for i := 0; i < n; i++ {
		postJob(t, ts.URL, Request{Format: "anf", Input: easyANF, Seed: int64(i + 1)})
	}
	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	raw, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	text := string(raw)
	for _, want := range []string{
		fmt.Sprintf("bosphorusd_jobs_accepted_total %d", n),
		fmt.Sprintf("bosphorusd_jobs_completed_total %d", n),
		"bosphorusd_jobs_rejected_total 0",
		"bosphorusd_queue_depth 0",
		fmt.Sprintf("bosphorusd_solve_seconds_count %d", n),
	} {
		if !strings.Contains(text, want) {
			t.Errorf("metrics missing %q:\n%s", want, text)
		}
	}
	if !strings.Contains(text, `bosphorusd_facts_learnt_total{technique="propagation"}`) {
		t.Errorf("metrics missing per-technique facts:\n%s", text)
	}
}

func TestBadRequests(t *testing.T) {
	s, ts := newTestServer(t, Config{Workers: 1})
	cases := []struct{ name, body string }{
		{"not json", "{"},
		{"empty input", `{"format":"anf","input":""}`},
		{"bad format", `{"format":"smtlib","input":"x1\n"}`},
		{"bad mode", `{"format":"anf","input":"x1\n","mode":"quantum"}`},
		{"bad anf", `{"format":"anf","input":"x1*y2\n"}`},
		{"bad dimacs", `{"format":"dimacs","input":"p cnf 3\n"}`},
	}
	for _, tc := range cases {
		resp, err := http.Post(ts.URL+"/solve", "application/json", strings.NewReader(tc.body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%s: status = %d, want 400", tc.name, resp.StatusCode)
		}
	}
	if got := s.Metrics().JobsFailed.Load(); got != int64(len(cases)) {
		t.Errorf("JobsFailed = %d, want %d", got, len(cases))
	}
}

func TestHealthzAndDrain(t *testing.T) {
	s, ts := newTestServer(t, Config{Workers: 1})
	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz = %d, want 200", resp.StatusCode)
	}

	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := s.Shutdown(ctx); err != nil {
		t.Fatalf("Shutdown: %v", err)
	}
	if err := s.Shutdown(ctx); err != nil {
		t.Fatalf("second Shutdown: %v", err)
	}

	resp, err = http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Errorf("healthz while draining = %d, want 503", resp.StatusCode)
	}
	post, _ := postJob(t, ts.URL, Request{Format: "anf", Input: easyANF})
	if post.StatusCode != http.StatusServiceUnavailable {
		t.Errorf("solve while draining = %d, want 503", post.StatusCode)
	}
}

func TestLRUCacheEviction(t *testing.T) {
	c := newLRUCache(2)
	c.Put("a", []byte("A"))
	c.Put("b", []byte("B"))
	if _, ok := c.Get("a"); !ok {
		t.Fatal("a evicted early")
	}
	c.Put("c", []byte("C")) // evicts b (a was just touched)
	if _, ok := c.Get("b"); ok {
		t.Error("b not evicted")
	}
	if _, ok := c.Get("a"); !ok {
		t.Error("a evicted")
	}
	if _, ok := c.Get("c"); !ok {
		t.Error("c missing")
	}
	if c.Len() != 2 {
		t.Errorf("Len = %d, want 2", c.Len())
	}
	var nilCache *lruCache
	nilCache.Put("x", nil)
	if _, ok := nilCache.Get("x"); ok {
		t.Error("nil cache returned a hit")
	}
}

func TestMetricsRenderShape(t *testing.T) {
	m := NewMetrics()
	m.JobsAccepted.Add(3)
	m.AddFacts("xl", 2)
	m.AddFacts("sat", 5)
	m.AddFacts("xl", 1)
	m.ObserveLatency(7 * time.Millisecond)
	m.ObserveLatency(90 * time.Second) // +Inf bucket
	text := m.Render()
	for _, want := range []string{
		"bosphorusd_jobs_accepted_total 3",
		`bosphorusd_facts_learnt_total{technique="xl"} 3`,
		`bosphorusd_facts_learnt_total{technique="sat"} 5`,
		`bosphorusd_solve_seconds_bucket{le="0.01"} 1`,
		`bosphorusd_solve_seconds_bucket{le="+Inf"} 2`,
		"bosphorusd_solve_seconds_count 2",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("Render missing %q:\n%s", want, text)
		}
	}
}

// verify=true jobs must return the re-derivation tally, credit the proof
// counters in /metrics, and key the cache separately from unverified runs
// of the same input.
func TestVerifyJob(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 2})
	resp, out := postJob(t, ts.URL, Request{Format: "anf", Input: easyANF, Mode: "solve", Verify: true})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d, want 200", resp.StatusCode)
	}
	if out.Verification == nil {
		t.Fatal("no verification tally on a verify=true job")
	}
	if !out.Verification.OK || out.Verification.Failed != 0 || out.Verification.Unverified != 0 {
		t.Fatalf("verification not clean: %+v", out.Verification)
	}
	if out.Verification.Facts == 0 || out.Verification.Verified != out.Verification.Facts {
		t.Fatalf("tally inconsistent: %+v", out.Verification)
	}

	// Same input without verify must not hit the verified run's cache
	// entry (the tally would silently vanish otherwise).
	_, plain := postJob(t, ts.URL, Request{Format: "anf", Input: easyANF, Mode: "solve"})
	if plain.Cached {
		t.Fatal("verify and non-verify runs share a cache key")
	}
	if plain.Verification != nil {
		t.Fatal("verification tally on a non-verify job")
	}

	mresp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer mresp.Body.Close()
	var sb strings.Builder
	if _, err := io.Copy(&sb, mresp.Body); err != nil {
		t.Fatal(err)
	}
	body := sb.String()
	if !strings.Contains(body, "bosphorusd_proof_verified_total") {
		t.Fatalf("metrics missing proof_verified counter:\n%s", body)
	}
	if strings.Contains(body, "bosphorusd_proof_verified_total 0\n") {
		t.Fatal("proof_verified counter not credited")
	}
	if !strings.Contains(body, "bosphorusd_proof_failed_total 0") {
		t.Fatal("proof_failed counter should be zero")
	}
}

// verify is meaningless for portfolio jobs (no fact ledger) and must be
// rejected up front.
func TestVerifyPortfolioRejected(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1})
	resp, _ := postJob(t, ts.URL, Request{
		Format: "dimacs", Input: "p cnf 1 1\n1 0\n", Mode: "portfolio", Verify: true,
	})
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("status = %d, want 400", resp.StatusCode)
	}
}

// checkModel evaluates a SAT model on the client's input as parsed, for
// each input form: the unique model passes, and flipping any one bit of
// it fails.
func TestCheckModelFlippedBit(t *testing.T) {
	for _, tc := range []struct{ format, input string }{
		{"anf", "x0 + 1\nx1\nx0*x2 + 1\n"},
		{"dimacs", "p cnf 3 3\n1 0\n-2 0\n1 3 0\n-1 3 0\n"},
	} {
		for _, mode := range []string{"solve", "portfolio"} {
			jb, err := parseJob(Request{Format: tc.format, Input: tc.input, Mode: mode})
			if err != nil {
				t.Fatal(err)
			}
			if err := jb.prepare(); err != nil {
				t.Fatal(err)
			}
			model := []bool{true, false, true}
			if err := jb.checkModel(model); err != nil {
				t.Fatalf("%s %s: the model is rejected: %v", tc.format, mode, err)
			}
			for i := range model {
				flipped := append([]bool(nil), model...)
				flipped[i] = !flipped[i]
				if jb.checkModel(flipped) == nil {
					t.Errorf("%s %s: model %v with bit %d flipped passes", tc.format, mode, flipped, i)
				}
			}
		}
	}
}

// A SAT answer whose model fails the input takes the path of a contained
// panic: HTTP 500, a failed job, a log line with the key prefix, nothing
// cached. The false model is planted where a node's result settles a
// coordinator job, past the check record makes.
func TestFalseModelFailsJob(t *testing.T) {
	var logs bytes.Buffer
	var logMu sync.Mutex
	srv, ts := newTestServer(t, Config{Workers: 1, Role: RoleCoordinator, Log: log.New(lockedWriter{&logMu, &logs}, "", 0)})
	f := satgen.Pigeonhole(4, 4).Formula
	req := Request{Format: "dimacs", Input: dimacsOf(t, f), Mode: "cube", MaxCubes: 8, TimeoutMS: 30000}
	codes := make(chan int, 1)
	go func() {
		resp, _ := postJob(t, ts.URL, req)
		codes <- resp.StatusCode
	}()
	for deadline := time.Now().Add(10 * time.Second); ; time.Sleep(5 * time.Millisecond) {
		srv.cubes.mu.Lock()
		for _, dj := range srv.cubes.jobs {
			dj.finishLocked(sat.Sat, make([]bool, f.NumVars))
		}
		planted := len(srv.cubes.jobs) > 0
		srv.cubes.mu.Unlock()
		if planted {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("the cube job was never parked")
		}
	}
	if code := <-codes; code != http.StatusInternalServerError {
		t.Fatalf("a false SAT model answered %d, want 500", code)
	}
	jb, err := parseJob(req)
	if err != nil {
		t.Fatal(err)
	}
	if failed, cached := srv.Metrics().JobsFailed.Load(), srv.cache.Len(); failed != 1 || cached != 0 {
		t.Errorf("failed=%d cached=%d, want 1 and 0", failed, cached)
	}
	logMu.Lock()
	defer logMu.Unlock()
	if want := "key=" + jb.key[:12] + " failed"; !strings.Contains(logs.String(), want) {
		t.Errorf("log %q lacks %q", logs.String(), want)
	}
}

// The proof check reads under the job's context: once the deadline has
// passed, the check stops and the UNSAT answer becomes CANCELED, which
// the worker counts as canceled and does not cache.
func TestProofCheckStopsAtDeadline(t *testing.T) {
	square := "p cnf 2 4\n1 2 0\n-1 2 0\n1 -2 0\n-1 -2 0\n"
	jb, err := parseJob(Request{Format: "dimacs", Input: square, Mode: "cube", Proof: true})
	if err != nil {
		t.Fatal(err)
	}
	if err := jb.prepare(); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	jb.ctx = ctx
	answer := &Response{Status: "UNSAT", Cubes: 2, Proof: "2 0\n0\n", ElapsedMS: 7}
	if got, err := jb.checkAnswer(answer); err != nil || got != answer {
		t.Fatalf("before the deadline: %+v, %v; want the UNSAT answer", got, err)
	}
	cancel()
	got, err := jb.checkAnswer(answer)
	if err != nil {
		t.Fatal(err)
	}
	if want := (Response{Status: "CANCELED", Cubes: 2, ElapsedMS: 7}); !reflect.DeepEqual(*got, want) {
		t.Fatalf("after the deadline: %+v, want %+v", *got, want)
	}
}

// A proof=true UNSAT answer's proof is checked before it is cached or
// sent. Here every cube of the satisfiable PHP(4,4) is answered by hand
// with the segment "0": the stitched proof fails the input, so the job
// takes the path of a false model instead of answering UNSAT.
func TestUncheckedProofFailsJob(t *testing.T) {
	var logs bytes.Buffer
	var logMu sync.Mutex
	srv, ts := newTestServer(t, Config{Workers: 1, Role: RoleCoordinator, Log: log.New(lockedWriter{&logMu, &logs}, "", 0)})
	f := satgen.Pigeonhole(4, 4).Formula
	req := Request{Format: "dimacs", Input: dimacsOf(t, f), Mode: "cube", MaxCubes: 8, Proof: true, TimeoutMS: 30000}
	codes := make(chan int, 1)
	go func() {
		resp, _ := postJob(t, ts.URL, req)
		codes <- resp.StatusCode
	}()
	code := 0
	for deadline := time.Now().Add(10 * time.Second); code == 0; {
		select {
		case code = <-codes:
			continue
		default:
		}
		if task, ok := srv.cubes.next(); ok {
			srv.cubes.record(CubeResult{JobID: task.JobID, Cube: task.Cube, Status: "UNSAT", Proof: "0\n"})
			continue
		}
		if time.Now().After(deadline) {
			t.Fatal("the cube job never answered")
		}
		time.Sleep(5 * time.Millisecond)
	}
	if code != http.StatusInternalServerError {
		t.Fatalf("an UNSAT answer with a false proof answered %d, want 500", code)
	}
	jb, err := parseJob(req)
	if err != nil {
		t.Fatal(err)
	}
	if failed, cached := srv.Metrics().JobsFailed.Load(), srv.cache.Len(); failed != 1 || cached != 0 {
		t.Errorf("failed=%d cached=%d, want 1 and 0", failed, cached)
	}
	logMu.Lock()
	defer logMu.Unlock()
	if want := "key=" + jb.key[:12] + " failed"; !strings.Contains(logs.String(), want) {
		t.Errorf("log %q lacks %q", logs.String(), want)
	}
}

// lockedWriter serializes writes to w.
type lockedWriter struct {
	mu *sync.Mutex
	w  io.Writer
}

func (l lockedWriter) Write(p []byte) (int, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.w.Write(p)
}

// A cache hit sends the bytes writeJSON writes for the cached copy of the
// first answer, with its length, for every mode and input form.
func TestHitBodyMatchesWriteJSON(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 2})
	php := hardDimacs(t, 3)
	for _, req := range []Request{
		{Format: "anf", Input: easyANF},
		{Format: "anf", Input: easyANF, Mode: "solve", Verify: true},
		{Format: "dimacs", Input: "p cnf 3 2\n1 -2 0\n2 3 0\n", Mode: "solve"},
		{Format: "dimacs", Input: php, Mode: "portfolio"},
		{Format: "dimacs", Input: php, Mode: "cube", MaxCubes: 4, Proof: true},
	} {
		body, err := json.Marshal(req)
		if err != nil {
			t.Fatal(err)
		}
		post := func() (*http.Response, []byte) {
			resp, err := http.Post(ts.URL+"/solve", "application/json", bytes.NewReader(body))
			if err != nil {
				t.Fatal(err)
			}
			defer resp.Body.Close()
			raw, err := io.ReadAll(resp.Body)
			if err != nil {
				t.Fatal(err)
			}
			return resp, raw
		}
		_, first := post()
		var cached Response
		if err := json.Unmarshal(first, &cached); err != nil {
			t.Fatalf("%+v: %v: %s", req, err, first)
		}
		cached.Cached = true
		rec := httptest.NewRecorder()
		writeJSON(rec, http.StatusOK, &cached)
		resp, hit := post()
		if !bytes.Equal(hit, rec.Body.Bytes()) {
			t.Errorf("%+v: hit body\n%s\nwant\n%s", req, hit, rec.Body.Bytes())
		}
		if ct, cl := resp.Header.Get("Content-Type"), resp.Header.Get("Content-Length"); ct != "application/json" || cl != strconv.Itoa(len(hit)) {
			t.Errorf("%+v: Content-Type %q, Content-Length %q for %d bytes", req, ct, cl, len(hit))
		}
	}
	golden := "{\"status\":\"SAT\",\"solution\":[true,false],\"facts\":{\"sat\":1,\"xl\":2},\"anf\":\"x1 \\u003c\\u003e\\n\",\"elapsed_ms\":3,\"cached\":true,\"routed_via\":\"2sat\"}\n"
	if got := string(hitBody(&Response{Status: "SAT", Solution: []bool{true, false}, Facts: map[string]int{"xl": 2, "sat": 1}, ANF: "x1 <>\n", ElapsedMS: 3, RoutedVia: "2sat"})); got != golden {
		t.Errorf("hitBody = %q, want %q", got, golden)
	}
}
