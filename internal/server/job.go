package server

import (
	"context"
	"fmt"
	"io"
	"strings"
	"time"

	"repro/internal/anf"
	"repro/internal/cnf"
	"repro/internal/conv"
	"repro/internal/core"
	"repro/internal/cube"
	"repro/internal/portfolio"
	"repro/internal/proof"
	"repro/internal/sat"
)

// Request is the JSON body of POST /solve.
type Request struct {
	// Format of Input: "anf" (one polynomial per line) or "dimacs".
	Format string `json:"format"`
	// Input is the problem text.
	Input string `json:"input"`
	// Mode selects the work: "process" runs the fact-learning loop to its
	// fixed point, "solve" keeps going until a verdict, "portfolio" races
	// the parallel solver portfolio on the (CNF form of the) input, and
	// "cube" runs cube-and-conquer — split in-process, conquered either by
	// the local worker pool (solo role) or by pull-based worker nodes
	// (coordinator role). Default: "process".
	Mode string `json:"mode,omitempty"`
	// TimeoutMS bounds the job's wall-clock time; 0 takes the server
	// default, and the server's MaxJobTime caps it either way.
	TimeoutMS int `json:"timeout_ms,omitempty"`
	// MaxIterations / ConflictBudget / Seed / Workers override the engine
	// defaults when positive.
	MaxIterations  int   `json:"max_iterations,omitempty"`
	ConflictBudget int64 `json:"conflict_budget,omitempty"`
	Seed           int64 `json:"seed,omitempty"`
	Workers        int   `json:"workers,omitempty"`
	// Verify tracks the provenance of every learnt fact and independently
	// re-derives each one against the input after the run; the response
	// carries the per-verdict tally. Engine modes only.
	Verify bool `json:"verify,omitempty"`
	// MaxCubes caps the cube tree's open-leaf count (cube mode only;
	// 0 takes the cube solver's default).
	MaxCubes int `json:"max_cubes,omitempty"`
	// Proof asks a cube-mode UNSAT job for its stitched DRAT refutation in
	// Response.Proof. The server checks the proof against the input before
	// it answers, within the job's deadline; without Proof, an UNSAT from
	// the cube workers is trusted.
	Proof bool `json:"proof,omitempty"`
	// Route classifies the converted CNF at each SAT step and sends
	// tractable fragments (2SAT/Horn/XOR) to the polynomial solvers before
	// CDCL. Engine modes only; the server's -route default ORs in.
	Route bool `json:"route,omitempty"`
}

// Verification is the fact re-derivation tally for verify=true jobs.
type Verification struct {
	// Facts checked (inputs are trusted axioms and not counted).
	Facts int `json:"facts"`
	// Verified = witness replays + SAT entailments + input matches.
	Verified int `json:"verified"`
	// Failed facts are provably wrong; Unverified ones exhausted the
	// refutation budget. Both leave OK false.
	Failed     int  `json:"failed"`
	Unverified int  `json:"unverified"`
	OK         bool `json:"ok"`
}

// Response is the JSON answer for a solved/processed job.
type Response struct {
	// Status is SAT, UNSAT, PROCESSED, or CANCELED.
	Status string `json:"status"`
	// Solution holds the satisfying assignment (x1, x2, ... order) on SAT.
	Solution []bool `json:"solution,omitempty"`
	// Winner names the portfolio worker that produced the verdict.
	Winner string `json:"winner,omitempty"`
	// Facts counts the learnt facts per technique.
	Facts map[string]int `json:"facts,omitempty"`
	// Iterations of the fact-learning loop.
	Iterations int `json:"iterations,omitempty"`
	// ANF is the processed system (learnt facts applied) for engine modes.
	ANF string `json:"anf,omitempty"`
	// ElapsedMS is the solve's wall-clock time; a cache hit repeats the
	// time of the solve that produced the answer.
	ElapsedMS int64 `json:"elapsed_ms"`
	// Cached is true when the answer came from the result cache.
	Cached bool `json:"cached,omitempty"`
	// Verification is present on verify=true jobs.
	Verification *Verification `json:"verification,omitempty"`
	// Cubes is the number of open cubes the splitter produced (cube mode).
	Cubes int `json:"cubes,omitempty"`
	// Proof is the stitched DRAT refutation of a proof=true UNSAT cube job,
	// checkable against the canonicalized DIMACS input.
	Proof string `json:"proof,omitempty"`
	// RoutedVia names the tractable fragment that decided a routed job
	// ("2sat", "horn", "antihorn", "xor"); empty when CDCL did the work.
	RoutedVia string `json:"routed_via,omitempty"`
}

// jobKind is the validated mode.
type jobKind int

const (
	kindProcess jobKind = iota
	kindSolve
	kindPortfolio
	kindCube
)

// job is one unit of queued work: the request, validated and keyed, plus
// its cancellation scope. parseJob sets the kind, the input's format and
// the key; prepare, on a miss, builds the input (sys for ANF, form for
// DIMACS), the other form and formText where the mode needs them. done is
// closed by the worker after resp/err are set.
type job struct {
	kind     jobKind
	format   byte // tagANF or tagDIMACS: the form the client sent
	req      Request
	sys      *anf.System  // engine modes
	form     *cnf.Formula // portfolio/cube modes
	formText string       // canonical DIMACS, kept for cube-task dispatch
	key      string       // cache key over normalized input + config

	ctx      context.Context
	admitted time.Time // when the job entered the queue
	resp     *Response
	err      error
	done     chan struct{}
}

// parseJob validates a request and computes its cache key from one scan
// of the input, and does nothing more: a cache hit pays only for this.
// ctx/done are filled in by the caller, and prepare runs on a miss.
func parseJob(req Request) (*job, error) {
	jb := &job{req: req}
	switch strings.ToLower(req.Mode) {
	case "", "process":
		jb.kind = kindProcess
	case "solve":
		jb.kind = kindSolve
	case "portfolio":
		jb.kind = kindPortfolio
	case "cube":
		jb.kind = kindCube
	default:
		return nil, fmt.Errorf("unknown mode %q (want process, solve, portfolio, or cube)", req.Mode)
	}
	if strings.TrimSpace(req.Input) == "" {
		return nil, fmt.Errorf("empty input")
	}
	if req.Verify && (jb.kind == kindPortfolio || jb.kind == kindCube) {
		return nil, fmt.Errorf("verify is only supported in process/solve modes (portfolio/cube runs produce no fact ledger)")
	}
	if req.Proof && jb.kind != kindCube {
		return nil, fmt.Errorf("proof is only supported in cube mode")
	}
	switch strings.ToLower(req.Format) {
	case "anf":
		jb.format = tagANF
	case "dimacs", "cnf":
		jb.format = tagDIMACS
	default:
		return nil, fmt.Errorf("unknown format %q (want anf or dimacs)", req.Format)
	}
	key, err := jb.cacheKey()
	if err != nil {
		return nil, err
	}
	jb.key = key
	return jb, nil
}

// prepare builds what only a run needs, once the cache has missed: the
// input, read from its text, the CNF of an ANF portfolio or cube job, the
// ANF of a DIMACS process or solve job, and a cube job's canonical DIMACS
// text.
func (jb *job) prepare() error {
	var err error
	in := strings.NewReader(jb.req.Input)
	if jb.format == tagANF {
		jb.sys, err = anf.ReadSystem(in)
	} else {
		jb.form, err = cnf.ReadDimacs(in)
	}
	if err != nil {
		// parseJob's scan of the same text passed, and the readers are
		// that scan plus a builder.
		return fmt.Errorf("reading an input its scan accepted: %w", err)
	}
	cnfMode := jb.kind == kindPortfolio || jb.kind == kindCube
	switch {
	case cnfMode && jb.form == nil:
		jb.form, _ = conv.ANFToCNF(jb.sys, conv.DefaultOptions())
	case !cnfMode && jb.sys == nil:
		jb.sys = conv.CNFToANF(jb.form, conv.DefaultOptions())
	}
	if jb.kind == kindCube {
		// Cube tasks ship the formula to worker nodes as canonical DIMACS;
		// serializing once here means every dispatched task (and the proof
		// the client later checks) refers to the same normalized text.
		var ft strings.Builder
		_ = cnf.WriteDimacs(&ft, jb.form) // a strings.Builder does not fail
		jb.formText = ft.String()
	}
	return nil
}

// checkModel evaluates a SAT answer's model on the client's input as
// parsed: the ANF system or the DIMACS formula, whichever the request
// sent. Variables past the end of the model read as false.
func (jb *job) checkModel(model []bool) error {
	if jb.format == tagANF {
		if !core.VerifySolution(jb.sys, model) {
			return fmt.Errorf("the SAT model fails the ANF input")
		}
	} else if !modelSatisfies(jb.form, model) {
		return fmt.Errorf("the SAT model fails the DIMACS input")
	}
	return nil
}

// checkAnswer checks resp on the job's input: a SAT answer's model, or a
// proof=true UNSAT answer's proof. The job's deadline bounds the proof
// check too: a check it cuts short answers CANCELED, which is not cached.
func (jb *job) checkAnswer(resp *Response) (*Response, error) {
	switch {
	case resp.Status == "SAT":
		if err := jb.checkModel(resp.Solution); err != nil {
			return nil, err
		}
	case resp.Status == "UNSAT" && jb.req.Proof:
		if err := jb.checkProof(resp.Proof); err != nil {
			if jb.ctx.Err() == nil {
				return nil, err
			}
			return &Response{Status: "CANCELED", Cubes: resp.Cubes, ElapsedMS: resp.ElapsedMS}, nil
		}
	}
	return resp, nil
}

// checkProof checks the DRAT refutation of a proof=true UNSAT answer
// against the job's CNF: the DIMACS input as parsed, or the ANF input's
// conversion, the formula cube mode solves. The check stops at the job's
// deadline.
func (jb *job) checkProof(drat string) error {
	res, err := proof.Check(jb.form, ctxReader{jb.ctx, strings.NewReader(drat)})
	switch {
	case err != nil:
		return fmt.Errorf("the UNSAT proof fails the input: %w", err)
	case !res.Verified:
		return fmt.Errorf("the UNSAT proof does not refute the input")
	}
	return nil
}

// ctxReader reads r until ctx is done, then fails every read with ctx's
// error, so a streaming reader stops at a deadline.
type ctxReader struct {
	ctx context.Context
	r   io.Reader
}

func (cr ctxReader) Read(p []byte) (int, error) {
	if err := cr.ctx.Err(); err != nil {
		return 0, err
	}
	return cr.r.Read(p)
}

// modelSatisfies reports whether model satisfies f; variables past the
// end of the model read as false.
func modelSatisfies(f *cnf.Formula, model []bool) bool {
	return f.Eval(func(v cnf.Var) bool { return int(v) < len(model) && model[v] })
}

// run executes the job under its context and fills resp. Engine config
// starts from the server's base config; per-request knobs override it.
func (jb *job) run(base core.Config, metrics *Metrics) *Response {
	start := time.Now()
	if jb.kind == kindCube {
		return jb.runCube(base)
	}
	if jb.kind == kindPortfolio {
		res := portfolio.Solve(jb.ctx, jb.form, nil)
		resp := &Response{
			Status:    res.Status.String(),
			Winner:    res.Winner,
			ElapsedMS: time.Since(start).Milliseconds(),
		}
		if res.Status == sat.Sat {
			resp.Solution = res.Model
		}
		if res.Status == sat.Unknown {
			resp.Status = statusFor(jb.ctx, "PROCESSED")
		}
		return resp
	}

	cfg := base
	cfg.Context = jb.ctx
	cfg.StopOnSolution = jb.kind == kindSolve
	if jb.req.MaxIterations > 0 {
		cfg.MaxIterations = jb.req.MaxIterations
	}
	if jb.req.ConflictBudget > 0 {
		cfg.ConflictBudget = jb.req.ConflictBudget
	}
	if jb.req.Seed != 0 {
		cfg.Seed = jb.req.Seed
	}
	if jb.req.Workers > 0 {
		cfg.Workers = jb.req.Workers
	}
	cfg.Provenance = jb.req.Verify
	cfg.Route = jb.req.Route
	res := core.Process(jb.sys, cfg)
	if cfg.Route && res.RouteNs > 0 {
		metrics.ObserveRoute(res.RoutedVia, res.RouteNs)
	}

	facts := map[string]int{
		"xl":          res.XL.NewFacts,
		"elimlin":     res.ElimLin.NewFacts,
		"sat":         res.SAT.NewFacts,
		"groebner":    res.Groebner.NewFacts,
		"extra":       res.Extra.NewFacts,
		"propagation": res.PropagationFacts,
	}
	for t, n := range facts {
		metrics.AddFacts(t, n)
	}
	var anfOut strings.Builder
	_ = anf.WriteSystem(&anfOut, res.OutputANF())
	resp := &Response{
		Status:     res.Status.String(),
		Facts:      facts,
		Iterations: res.Iterations,
		ANF:        anfOut.String(),
		ElapsedMS:  time.Since(start).Milliseconds(),
	}
	resp.RoutedVia = res.RoutedVia
	if res.Status == core.SolvedSAT {
		resp.Solution = res.Solution
	}
	if jb.req.Verify && res.Provenance != nil {
		report := proof.VerifyFacts(jb.sys, res.Provenance, proof.VerifyOptions{
			Seed:    cfg.Seed,
			Context: jb.ctx,
		})
		resp.Verification = &Verification{
			Facts:      len(report.Verdicts),
			Verified:   report.Verified,
			Failed:     report.Failed,
			Unverified: report.Unverified,
			OK:         report.AllVerified(),
		}
		metrics.ProofVerified.Add(int64(report.Verified))
		metrics.ProofFailed.Add(int64(report.Failed + report.Unverified))
	}
	if res.Interrupted {
		resp.Status = statusFor(jb.ctx, resp.Status)
	}
	return resp
}

// cubeOptions builds the cube solver configuration from the server's base
// engine config with the request's overrides applied. ForceSplit is
// always on: a client asking for cube mode asked for the split, even with
// one worker (where it stays deterministic by the cube package's
// contract).
func (jb *job) cubeOptions(base core.Config) cube.Options {
	opts := cube.DefaultOptions()
	opts.SolverOptions = sat.DefaultOptions(base.Profile)
	if base.Seed != 0 {
		opts.SolverOptions.RandomSeed = base.Seed
	}
	if jb.req.Seed != 0 {
		opts.SolverOptions.RandomSeed = jb.req.Seed
	}
	if jb.req.Workers > 0 {
		opts.Workers = jb.req.Workers
	}
	if jb.req.MaxCubes > 0 {
		opts.MaxCubes = jb.req.MaxCubes
	}
	opts.ForceSplit = true
	opts.WithProof = jb.req.Proof
	return opts
}

// runCube is the solo-role cube path: split and conquer in-process on the
// cube package's worker pool.
func (jb *job) runCube(base core.Config) *Response {
	start := time.Now()
	res := cube.Solve(jb.ctx, jb.form, jb.cubeOptions(base))
	resp := &Response{
		Status:    res.Status.String(),
		Cubes:     res.Cubes,
		ElapsedMS: time.Since(start).Milliseconds(),
	}
	switch res.Status {
	case sat.Sat:
		resp.Solution = res.Model
	case sat.Unsat:
		resp.Proof = string(res.Proof)
	default:
		resp.Status = statusFor(jb.ctx, "UNKNOWN")
	}
	return resp
}

// statusFor maps a context-cancelled run to the CANCELED wire status,
// keeping the engine's own verdict otherwise.
func statusFor(ctx context.Context, fallback string) string {
	if ctx != nil && ctx.Err() != nil {
		return "CANCELED"
	}
	return fallback
}
