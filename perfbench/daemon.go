package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/anf"
	"repro/internal/ciphers/simon"
	"repro/internal/cnf"
	"repro/internal/core"
	"repro/internal/satgen"
	"repro/internal/server"
)

// daemon-mix traffic shape. Every original is a distinct solve request,
// so it misses the result cache; every repeat is sent after its original
// answered, so it hits. Originals stay below bosphorusd's default cache
// capacity (128), so no entry is evicted and the hit count is exact.
//
// The cache bounds one pass of the traffic to about 10 s on the reference
// host. A longer run sends the same traffic again, once per further
// daemonPassSecs, each pass to a fresh daemon with an empty cache, so
// every pass does the same work.
//
// Latency classes and their share of a pass at full size (400
// requests): DIMACS hits ≈14 %, ANF hits ≈56 %, DIMACS misses 6 %, Simon
// misses 24 %. Both DIMACS classes are faster than the Simon misses and
// the ANF hits far faster, so the ANF hits span at least the 20th to the
// 70th percentile and the Simon misses the top 24 %: the median lands
// inside the ANF hits and the tail (p98 at two passes, 800 requests)
// inside the Simon misses, each well away from a class boundary.
const (
	daemonClients   = 2  // closed-loop connections, = nproc on the reference host
	daemonANF       = 96 // Simon-[8,8] originals at full size
	daemonDIMACS    = 24 // small satgen CNF originals at full size
	daemonRepeats   = 280
	daemonPassSecs  = 10 // --seconds per full-size pass
	daemonRepeatGap = 8  // minimum slots between an original and a repeat of it
)

// request is one distinct original with its pre-encoded bodies. Only text
// is held during the run, so the in-process daemon's collections do not
// mark the benchmark's inputs; answers are checked against a parse of
// input afterwards.
type request struct {
	name   string
	format string
	input  string
	truth  satgen.Status
	bodies [4][]byte // indexed by variant
}

type daemonRun struct {
	reqs   []*request
	sched  []slot
	passes int
	warm   []*request // one original per format, sent before each pass
	srv    *server.Server
	ts     *httptest.Server
	client *http.Client
	// phases counts the traced run's XL and ElimLin calls, by metric
	// prefix. The map is filled before the server starts and only read
	// after; the counters are shared by both solve workers.
	phases map[string]*phaseCounters
}

type phaseCounters struct{ calls, ns, facts atomic.Int64 }

// dimacsOriginals is the DIMACS cycle: small instances the engine settles
// in milliseconds, with the status the generator knows.
var dimacsOriginals = []func(rng *rand.Rand) *satgen.Instance{
	func(rng *rand.Rand) *satgen.Instance { return satgen.LFSRReach(10, 8, false, rng) },
	func(rng *rand.Rand) *satgen.Instance { return relabel(satgen.Pigeonhole(6, 5), rng) },
	func(rng *rand.Rand) *satgen.Instance { return satgen.ParityChain(24, 28, 3, true, rng) },
	func(rng *rand.Rand) *satgen.Instance { return satgen.LFSRReach(10, 8, true, rng) },
}

func newANFRequest(name string, sys *anf.System) (*request, error) {
	var text bytes.Buffer
	if err := anf.WriteSystem(&text, sys); err != nil {
		return nil, err
	}
	r := &request{name: name, format: "anf", input: text.String(), truth: satgen.StatusSat}
	return r, r.encode("# repeated request\n")
}

func newDIMACSRequest(name string, inst *satgen.Instance) (*request, error) {
	var text bytes.Buffer
	if err := cnf.WriteDimacs(&text, inst.Formula); err != nil {
		return nil, err
	}
	r := &request{name: name, format: "dimacs", input: text.String(), truth: inst.Status}
	return r, r.encode("c repeated request\n")
}

// encode builds the request bodies: the original (also resent byte for
// byte), a whitespace variant and a comment variant. The daemon
// canonicalizes all three to one cache key.
func (r *request) encode(comment string) error {
	input := r.input
	inputs := [4]string{
		variantOriginal:   input,
		variantExact:      input,
		variantWhitespace: "\n  \n" + strings.ReplaceAll(input, "\n", "\n\n"),
		variantComment:    comment + input,
	}
	for v, in := range inputs {
		body, err := json.Marshal(server.Request{Format: r.format, Input: in, Mode: "solve"})
		if err != nil {
			return err
		}
		r.bodies[v] = body
	}
	return nil
}

// daemonSize scales one pass of the traffic down for runs shorter than
// daemonPassSecs; from there on a pass is the full size the cache allows,
// and a run makes one pass per daemonPassSecs.
func daemonSize(seconds int) (nANF, nDIMACS, nRep, passes int) {
	scale := func(n int) int {
		if seconds >= daemonPassSecs {
			return n
		}
		return max(1, n*seconds/daemonPassSecs)
	}
	return scale(daemonANF), scale(daemonDIMACS), scale(daemonRepeats), max(1, seconds/daemonPassSecs)
}

func setupDaemon(seed int64, seconds int, traced bool) (runner, error) {
	nANF, nDIMACS, nRep, passes := daemonSize(seconds)
	d := &daemonRun{passes: passes}
	// Originals 0..n-1 are the measured traffic; the last two are the
	// warm-up pair, one per format.
	for i := 0; i <= nANF; i++ {
		inst := simon.GenerateInstance(simon.Params{NPlaintexts: 8, Rounds: 8}, subRNG(seed, i))
		r, err := newANFRequest(fmt.Sprintf("simon-8-8-%03d", i), inst.Sys)
		if err != nil {
			return nil, err
		}
		d.reqs = append(d.reqs, r)
	}
	warmANF := d.reqs[nANF]
	d.reqs = d.reqs[:nANF]
	var warmDIMACS *request
	for i := 0; i <= nDIMACS; i++ {
		inst := dimacsOriginals[i%len(dimacsOriginals)](subRNG(seed, 10_000+i))
		r, err := newDIMACSRequest(fmt.Sprintf("%s-%03d", inst.Name, i), inst)
		if err != nil {
			return nil, err
		}
		if i == nDIMACS {
			warmDIMACS = r
		} else {
			d.reqs = append(d.reqs, r)
		}
	}
	d.sched = schedule(len(d.reqs), nRep, daemonRepeatGap, rand.New(rand.NewSource(seed)))
	d.warm = []*request{warmANF, warmDIMACS}
	if err := d.start(traced); err != nil {
		return nil, err
	}
	return d, nil
}

// start builds an in-process bosphorusd with its defaults (the engine
// configuration its flags default to, server.Config zero values for pool,
// queue, cache and deadlines) behind a real HTTP listener, and warms it
// up. For a traced run the engine's XL and ElimLin go through counting
// wrappers at the loop's plug point, the same rewiring the batch trace
// uses; they run on both solve workers at once, so they cannot time one
// job's phases.
func (d *daemonRun) start(traced bool) error {
	engine := core.DefaultConfig()
	if traced {
		d.instrument(&engine)
	}
	d.srv = server.New(server.Config{Engine: engine})
	d.ts = httptest.NewServer(d.srv)
	d.client = &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: daemonClients}}

	// Warm-up: each client opens its keep-alive connection with one
	// original, then sends the other client's original as a hit.
	warm := d.warm
	errs := make([]error, len(warm))
	var wg sync.WaitGroup
	for k := range warm {
		wg.Add(1)
		go func(k int) {
			defer wg.Done()
			if _, err := d.post(warm[k].bodies[variantOriginal]); err != nil {
				errs[k] = err
			}
		}(k)
	}
	wg.Wait()
	for k := range warm {
		if errs[k] != nil {
			d.close()
			return fmt.Errorf("warm-up %s: %w", warm[k].name, errs[k])
		}
		resp, err := d.post(warm[1-k].bodies[variantComment])
		if err != nil || !resp.Cached {
			d.close()
			return fmt.Errorf("warm-up repeat of %s: not a cache hit (%v)", warm[1-k].name, err)
		}
	}
	// The warm-up requests went through the wrappers too.
	for _, c := range d.phases {
		c.calls.Store(0)
		c.ns.Store(0)
		c.facts.Store(0)
	}
	return nil
}

// instrument counts and times XL and ElimLin through the plug point.
func (d *daemonRun) instrument(engine *core.Config) {
	d.phases = map[string]*phaseCounters{"core.xl": {}, "core.elimlin": {}}
	plugPhases(engine, func(prefix string, call func() []anf.Poly) []anf.Poly {
		c := d.phases[prefix]
		t0 := time.Now()
		facts := call()
		c.ns.Add(time.Since(t0).Nanoseconds())
		c.calls.Add(1)
		c.facts.Add(int64(len(facts)))
		return facts
	})
}

type wireResponse struct {
	Status     string `json:"status"`
	Solution   []bool `json:"solution"`
	Iterations int    `json:"iterations"`
	ElapsedMS  int64  `json:"elapsed_ms"`
	Cached     bool   `json:"cached"`
}

// post sends one body and decodes the answer; any status but 200 is an
// error carrying the code.
func (d *daemonRun) post(body []byte) (*wireResponse, error) {
	resp, err := d.client.Post(d.ts.URL+"/solve", "application/json", bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("HTTP %d: %s", resp.StatusCode, strings.TrimSpace(string(raw)))
	}
	var out wireResponse
	if err := json.Unmarshal(raw, &out); err != nil {
		return nil, err
	}
	return &out, nil
}

func (d *daemonRun) close() {
	if d.ts != nil {
		d.ts.Close()
	}
	if d.srv != nil {
		_ = d.srv.Shutdown(context.Background()) // the queue is empty: every request was answered
	}
	if d.client != nil {
		d.client.CloseIdleConnections()
	}
	d.ts, d.srv, d.client = nil, nil, nil
}

// answer is one request's outcome in schedule order.
type answer struct {
	seconds float64
	resp    *wireResponse
	err     error
}

func (d *daemonRun) run(traced bool) (*report, error) {
	rep := &report{}
	n := len(d.sched)
	answers := make([]answer, d.passes*n)
	totals := map[string][3]int64{} // traced: calls, ns and facts per phase, over all passes
	for pass := 0; pass < d.passes; pass++ {
		if pass > 0 {
			// A fresh daemon with an empty cache, set up untimed like
			// the first.
			d.close()
			runtime.GC()
			if err := d.start(traced); err != nil {
				return nil, err
			}
		}
		start := time.Now()
		drive(d.sched, daemonClients, func(i int) {
			s := d.sched[i]
			t0 := time.Now()
			resp, err := d.post(d.reqs[s.orig].bodies[s.variant])
			answers[pass*n+i] = answer{seconds: time.Since(t0).Seconds(), resp: resp, err: err}
		})
		rep.timedS += time.Since(start).Seconds()
		for prefix, c := range d.phases {
			t := totals[prefix]
			t[0] += c.calls.Load()
			t[1] += c.ns.Load()
			t[2] += c.facts.Load()
			totals[prefix] = t
		}
	}

	parsed := map[*request]input{}
	h := sha256.New()
	var hitMS, missMS, overheadMS []float64
	var runMS, missIters float64
	hits, rejected, failedReq := 0, 0, 0
	for i, a := range answers {
		s := d.sched[i%n]
		r := d.reqs[s.orig]
		in, seen := parsed[r]
		if !seen {
			var err error
			if in, err = r.parse(); err != nil {
				return nil, err
			}
			parsed[r] = in
		}
		ok, wrong, why := checkAnswer(r, in, a)
		rep.jobs = append(rep.jobs, jobOutcome{seconds: a.seconds, solved: ok})
		if !ok {
			rep.failed++
			rep.notes = append(rep.notes, fmt.Sprintf("FAILED request %d (%s): %s", i, r.name, why))
		}
		if wrong {
			rep.wrong++
		}
		if a.err != nil {
			fmt.Fprintf(h, "%d|error\n", i)
			if strings.HasPrefix(a.err.Error(), "HTTP 429") {
				rejected++
			} else {
				failedReq++
			}
			continue
		}
		fmt.Fprintf(h, "%d|%s|%s|cached=%t|sol=%s\n", i, r.name, a.resp.Status, a.resp.Cached, boolsKey(a.resp.Solution))
		if a.resp.Cached {
			hits++
			hitMS = append(hitMS, a.seconds*1000)
			continue
		}
		missMS = append(missMS, a.seconds*1000)
		overheadMS = append(overheadMS, a.seconds*1000-float64(a.resp.ElapsedMS))
		runMS += float64(a.resp.ElapsedMS)
		missIters += float64(a.resp.Iterations)
	}
	rep.digest = fmt.Sprintf("%x", h.Sum(nil))[:16]
	rep.notes = append(rep.notes, fmt.Sprintf("requests %d hits %d misses %d rejected %d failed %d",
		len(answers), hits, len(missMS), rejected, failedReq))

	if traced {
		tr := newTracer()
		tr.add("server.hit.ms.p50", median(hitMS))
		tr.add("server.miss.ms.p50", median(missMS))
		tr.add("server.overhead.ms.p50", median(overheadMS))
		tr.add("server.run.ms", runMS)
		tr.add("server.cache_hits", float64(hits))
		tr.add("server.rejected", float64(rejected))
		tr.add("server.failed", float64(failedReq))
		for prefix, t := range totals {
			tr.add(prefix+".calls", float64(t[0]))
			tr.add(prefix+".ms", float64(t[1])/1e6)
			tr.add(prefix+".facts", float64(t[2]))
		}
		// Every loop iteration starts with one XL call, so XL calls beyond
		// the misses' summed iterations were made on behalf of hits.
		tr.add("server.hit.engine_calls", tr.vals["core.xl.calls"]-missIters)
		tr.add("core.iterations", missIters)
		// The readers' cost, paid once per request by the daemon's
		// parseJob: parse every body the run sent.
		for i := range answers {
			s := d.sched[i%n]
			r := d.reqs[s.orig]
			var req server.Request
			if err := json.Unmarshal(r.bodies[s.variant], &req); err != nil {
				return nil, err
			}
			t0 := time.Now()
			if r.format == "anf" {
				_, err := anf.ReadSystem(strings.NewReader(req.Input))
				tr.add("anf.parse.ms", msSince(t0))
				if err != nil {
					return nil, err
				}
			} else {
				_, err := cnf.ReadDimacs(strings.NewReader(req.Input))
				tr.add("cnf.parse.ms", msSince(t0))
				if err != nil {
					return nil, err
				}
			}
		}
		tr.add("trace.par2_s", par2(rep.jobs))
		rep.metrics = tr.metrics()
	}
	return rep, nil
}

func (r *request) parse() (input, error) {
	j := engineJob{Name: r.name, Text: []byte(r.input), CNF: r.format == "dimacs"}
	return j.parse()
}

// checkAnswer applies the solved rule to one daemon answer: SAT models
// must satisfy the generated input, UNSAT must match the generator's
// ground truth, and an error, a 429, CANCELED or PROCESSED is a failure.
func checkAnswer(r *request, in input, a answer) (ok, wrong bool, why string) {
	if a.err != nil {
		return false, false, a.err.Error()
	}
	switch a.resp.Status {
	case "SAT":
		sol := a.resp.Solution
		var good bool
		if in.sys != nil {
			good = core.VerifySolution(in.sys, sol)
		} else {
			good = in.form.Eval(func(x cnf.Var) bool { return int(x) < len(sol) && sol[x] })
		}
		if !good || r.truth == satgen.StatusUnsat {
			return false, true, "SAT with a model that fails the input"
		}
		return true, false, ""
	case "UNSAT":
		if r.truth != satgen.StatusUnsat {
			return false, r.truth == satgen.StatusSat, "UNSAT without ground truth to back it"
		}
		return true, false, ""
	default:
		return false, false, "status " + a.resp.Status
	}
}
