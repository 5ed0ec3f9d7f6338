package core

import (
	"context"
	"fmt"
	"io"
	"time"

	"repro/internal/anf"
	"repro/internal/cnf"
	"repro/internal/conv"
	"repro/internal/proof"
	"repro/internal/sat"
)

// Config drives the Bosphorus workflow (§III-A), defaults matching §IV.
type Config struct {
	// XL parameters (M is shared by ElimLin subsampling).
	M      int
	DeltaM int
	XLDeg  int

	// Conv holds the ANF↔CNF conversion parameters (K, L, L′).
	Conv conv.Options

	// Conflict budget schedule: start at ConflictBudget, grow by
	// ConflictBudgetStep up to ConflictBudgetMax whenever the SAT step
	// produces no new facts.
	ConflictBudget     int64
	ConflictBudgetStep int64
	ConflictBudgetMax  int64

	// Profile selects the internal SAT solver.
	Profile sat.Profile
	// Preprocess enables simp preprocessing inside the SAT step.
	Preprocess bool
	// HarvestMonomials is the §III-C ablation: also read facts off
	// monomial auxiliary variables.
	HarvestMonomials bool

	// MaxIterations caps the fact-learning loop (0 = until fixed point).
	MaxIterations int
	// TimeBudget caps wall-clock time for the whole loop (0 = none),
	// checked before each learner and SAT step starts; the paper gives
	// Bosphorus at most 1000 s of the 5000 s total.
	TimeBudget time.Duration

	// Context, when non-nil, cancels the run: Process polls it at every
	// technique boundary and threads it into each technique, the SAT step,
	// and user-supplied Techniques, so cancellation (a job deadline, a
	// client disconnect) stops the whole stack promptly rather than waiting
	// for budgets to run out. The facts learnt before cancellation are kept
	// and the Result reports Interrupted. A nil Context never cancels.
	Context context.Context

	// StopOnSolution exits the loop when the SAT step finds a satisfying
	// assignment (the paper's default behaviour in the experiments).
	StopOnSolution bool

	// DisableXL / DisableElimLin / DisableSAT switch off individual
	// techniques (ablation support).
	DisableXL      bool
	DisableElimLin bool
	DisableSAT     bool

	// EnableGroebner adds a budgeted Buchberger phase to the loop — the
	// §V extension of running Gröbner-basis computation iteratively
	// alongside the other techniques.
	EnableGroebner bool
	// ExtraTechniques are user-supplied fact learners (§V's plug point),
	// merged after ElimLin each iteration.
	ExtraTechniques []Technique
	// Route puts the tractable-fragment router in front of every SAT
	// step: after ANF propagation/ElimLin simplify the system, the
	// converted CNF residue is re-classified and — when it is pure 2SAT,
	// Horn, anti-Horn, or XOR — decided by the polynomial solvers in
	// internal/route instead of CDCL. Verdict provenance is preserved
	// (routed UNSAT certificates check, routed SAT models verify). Off by
	// default: routing can change which facts a non-terminal SAT step
	// harvests, so seed-equivalence golden runs keep it disabled.
	Route bool
	// NoNativeXor turns off the SAT solver's native parity-clause kind and
	// falls back to the CNF cut / Gauss-only routing: the differential
	// baseline that tests and benchmarks compare native parity against.
	// Native parity is on by default.
	NoNativeXor bool
	// EnableProbing adds failed-literal probing (a lookahead-style
	// component, also named in §V) to the SAT step.
	EnableProbing bool
	// ProbeMax bounds probing per SAT step (0 = all variables).
	ProbeMax int

	// Workers sets how many fact learners run at once; 0 and 1 both run
	// them one after another, and each learner eliminates on one
	// goroutine. Every iteration runs its enabled learners (XL, ElimLin,
	// ExtraTechniques, Gröbner) against the iteration-start system, each
	// with its own RNG derived from Seed, the iteration and its place in
	// that order, and merges their fact batches in that order before the
	// SAT step. A learner thus sees the facts of the ones before it from
	// the next iteration on, and the Result is bit-identical for every
	// Workers value.
	Workers int

	// Seed drives all randomized choices; fixed seed = reproducible run.
	Seed int64

	// Provenance records every learnt fact into a proof.Ledger with the
	// technique, iteration, and — for the propagation and linear-algebra
	// paths — an exact algebraic witness, available as Result.Provenance
	// and independently checkable with proof.VerifyFacts. The learnt facts
	// are identical with tracking on or off (the tracked elimination kernel
	// produces the same unique RREF); only the run time differs.
	Provenance bool
	// EmitProof attaches a DRAT writer to every SAT step; when a step
	// refutes its formula the proof and the exact CNF it refutes are kept
	// as Result.Certificate, checkable with proof.Check (or cmd/proofcheck).
	EmitProof bool
	// ProofBinary selects the compact binary proof encoding.
	ProofBinary bool

	// Log, when non-nil, receives progress lines.
	Log io.Writer
}

// DefaultConfig returns the paper's §IV configuration with M scaled for
// single-machine runs.
func DefaultConfig() Config {
	return Config{
		M:                  20,
		DeltaM:             4,
		XLDeg:              1,
		Conv:               conv.DefaultOptions(),
		ConflictBudget:     10000,
		ConflictBudgetStep: 10000,
		ConflictBudgetMax:  100000,
		Profile:            sat.ProfileCMS,
		MaxIterations:      16,
		StopOnSolution:     true,
		Seed:               1,
	}
}

// Status is the overall verdict of a Process run.
type Status int

const (
	// Processed means the loop reached a fixed point (or budget) without a
	// verdict; the simplified ANF/CNF carry the learnt facts.
	Processed Status = iota
	// SolvedSAT means a satisfying assignment was found.
	SolvedSAT
	// SolvedUNSAT means the contradiction 1 = 0 was derived.
	SolvedUNSAT
)

func (s Status) String() string {
	switch s {
	case SolvedSAT:
		return "SAT"
	case SolvedUNSAT:
		return "UNSAT"
	default:
		return "PROCESSED"
	}
}

// PhaseStats counts the facts contributed by one technique.
type PhaseStats struct {
	Runs     int
	NewFacts int
}

// Result is the outcome of Process.
type Result struct {
	Status Status
	// Solution is a satisfying assignment over the original ANF variables
	// when Status is SolvedSAT.
	Solution []bool
	// System is the processed master ANF (learnt facts applied).
	System *anf.System
	// State carries the final variable values/equivalences.
	State *VarState
	// Iterations of the XL–ElimLin–SAT loop executed.
	Iterations int
	// Stats per phase, plus propagation-assignment counts. Extra
	// aggregates all user-supplied techniques.
	XL, ElimLin, SAT, Groebner, Extra PhaseStats
	PropagationFacts                  int
	Elapsed                           time.Duration
	// Interrupted is true when the run was cut short by Config.Context
	// cancellation; the facts learnt before the cut are still applied.
	Interrupted bool
	// Provenance is the fact ledger when Config.Provenance was set: inputs
	// first, then one record per learnt fact/rewrite/binding.
	Provenance *proof.Ledger
	// Certificate is the DRAT proof of the refuting SAT step when
	// Config.EmitProof was set and that step proved UNSAT.
	Certificate *proof.Certificate
	// RoutedVia names the tractable fragment that decided the final SAT
	// step when Config.Route was on and the router matched ("2sat",
	// "horn", "antihorn", "xor"); empty when CDCL did the solving.
	RoutedVia string
	// RouteNs is the total time the router spent across all SAT steps
	// (classification plus fragment solving), 0 when routing was off.
	RouteNs int64
}

// Process runs the Bosphorus fact-learning loop on a copy of the input
// system until fixed point, verdict, or budget exhaustion.
func Process(input *anf.System, cfg Config) *Result {
	//lint:ignore determinism timing only: start feeds Result.Elapsed and the TimeBudget deadline, never fact ordering
	start := time.Now()
	logf := func(format string, args ...interface{}) {
		if cfg.Log != nil {
			fmt.Fprintf(cfg.Log, format+"\n", args...)
		}
	}
	if cfg.M <= 0 {
		cfg.M = 20
	}
	if cfg.ConflictBudget <= 0 {
		cfg.ConflictBudget = 10000
	}
	if cfg.Conv.CutLen == 0 {
		cfg.Conv = conv.DefaultOptions()
	}
	ctx := cfg.Context
	if ctx == nil {
		ctx = context.Background()
	}

	sys := input.Clone()
	prop := NewPropagator(sys)
	res := &Result{System: sys, State: prop.State}
	if cfg.Provenance {
		prop.prov = newProvTracker(sys)
		res.Provenance = prop.prov.ledger
	}
	finish := func(st Status) *Result {
		res.Status = st
		res.Interrupted = ctx.Err() != nil
		res.Elapsed = time.Since(start)
		return res
	}

	// Initial ANF propagation on the input (§III-A).
	n, ok := prop.Propagate()
	res.PropagationFacts += n
	if !ok {
		return finish(SolvedUNSAT)
	}

	budget := cfg.ConflictBudget
	maxIters := cfg.MaxIterations
	if maxIters <= 0 {
		maxIters = 1 << 30
	}
	deadline := time.Time{}
	if cfg.TimeBudget > 0 {
		deadline = start.Add(cfg.TimeBudget)
	}
	expired := func() bool {
		if ctx.Err() != nil {
			return true
		}
		//lint:ignore determinism TimeBudget is an explicitly opted-in wall-clock cutoff; reproducible runs use ConflictBudget/MaxIterations instead
		return !deadline.IsZero() && time.Now().After(deadline)
	}

	for iter := 0; iter < maxIters; iter++ {
		res.Iterations = iter + 1
		newThisIter, ok := runSnapshotPhase(ctx, prop, cfg, res, iter, expired, logf)
		if !ok {
			return finish(SolvedUNSAT)
		}

		if !cfg.DisableSAT && !expired() {
			out := outputSystem(sys, prop.State)
			step := RunSATStep(out, SATStepConfig{
				ConflictBudget:   budget,
				Profile:          cfg.Profile,
				Conv:             cfg.Conv,
				Preprocess:       cfg.Preprocess,
				HarvestMonomials: cfg.HarvestMonomials,
				Probe:            cfg.EnableProbing,
				ProbeMax:         cfg.ProbeMax,
				Route:            cfg.Route,
				NoNativeXor:      cfg.NoNativeXor,
				Seed:             cfg.Seed + int64(iter) + 1,
				Context:          ctx,
				CaptureProof:     cfg.EmitProof,
				ProofBinary:      cfg.ProofBinary,
			})
			res.SAT.Runs++
			res.RouteNs += step.RouteNs
			if step.RoutedVia != "" {
				res.RoutedVia = step.RoutedVia
			}
			if step.Certificate != nil {
				step.Certificate.Iteration = iter
				res.Certificate = step.Certificate
			}
			if step.Status == sat.Sat && cfg.StopOnSolution {
				res.Solution = completeSolution(input, prop.State, step.Model)
				return finish(SolvedSAT)
			}
			added, ok := prop.merge(step.Facts, &witnessLog{notes: step.Notes, note: "sat harvest"}, proof.TechSAT, iter, nil)
			res.SAT.NewFacts += added
			newThisIter += added
			logf("iter %d: SAT step (%v, %d conflicts) learnt %d facts (%d new)",
				iter, step.Status, step.Conflicts, len(step.Facts), added)
			if !ok {
				return finish(SolvedUNSAT)
			}
			if added == 0 && budget < cfg.ConflictBudgetMax {
				budget += cfg.ConflictBudgetStep
				if budget > cfg.ConflictBudgetMax {
					budget = cfg.ConflictBudgetMax
				}
			}
		}

		if sys.HasContradiction() {
			return finish(SolvedUNSAT)
		}
		if newThisIter == 0 || expired() {
			break
		}
	}
	return finish(Processed)
}

// Summary renders a one-paragraph human-readable report of the run.
func (r *Result) Summary() string {
	return fmt.Sprintf(
		"%v after %d iteration(s) in %v — facts: xl=%d elimlin=%d sat=%d groebner=%d extra=%d propagation=%d; %s",
		r.Status, r.Iterations, r.Elapsed.Round(time.Millisecond),
		r.XL.NewFacts, r.ElimLin.NewFacts, r.SAT.NewFacts,
		r.Groebner.NewFacts, r.Extra.NewFacts, r.PropagationFacts, r.State)
}

// outputSystem builds the ANF that represents the current knowledge: the
// simplified master equations plus the determined values and equivalences
// as polynomials (the paper's §III-C treatment of determined variables and
// equivalences in the conversion).
func outputSystem(sys *anf.System, st *VarState) *anf.System {
	out := anf.NewSystem()
	out.SetNumVars(sys.NumVars())
	for _, p := range sys.Polys() {
		out.Add(p)
	}
	for _, f := range st.FactPolys() {
		out.Add(f)
	}
	return out
}

// OutputANF returns the processed ANF including value/equivalence facts —
// what the tool writes as its ANF output.
func (r *Result) OutputANF() *anf.System {
	return outputSystem(r.System, r.State)
}

// OutputCNF converts the processed ANF to CNF — what the tool writes as
// its CNF output.
func (r *Result) OutputCNF(opts conv.Options) (*cnf.Formula, *conv.VarMap) {
	return conv.ANFToCNF(r.OutputANF(), opts)
}

// completeSolution lifts a CNF model to the original ANF variables, using
// determined values and equivalences for variables the CNF no longer
// mentions.
func completeSolution(input *anf.System, st *VarState, model []bool) []bool {
	n := input.NumVars()
	if st.NumVars() > n {
		n = st.NumVars()
	}
	out := make([]bool, n)
	for v := 0; v < n; v++ {
		if b, ok := st.Value(anf.Var(v)); ok {
			out[v] = b
			continue
		}
		r := st.Find(anf.Var(v))
		if int(r.V) < len(model) {
			out[v] = model[r.V] != r.Neg
		}
	}
	return out
}

// VerifySolution checks a solution against a system.
func VerifySolution(sys *anf.System, sol []bool) bool {
	return sys.Eval(func(v anf.Var) bool {
		if int(v) < len(sol) {
			return sol[v]
		}
		return false
	})
}
