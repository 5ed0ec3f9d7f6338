// Package bosphorus is the public API of this reproduction of
// "BOSPHORUS: Bridging ANF and CNF Solvers" (Choo, Soos, Chai, Meel —
// DATE 2019): a reasoning framework that iteratively applies eXtended
// Linearization, ElimLin and conflict-bounded CDCL SAT solving, with ANF
// propagation after every step, to learn facts that augment a Boolean
// polynomial system (ANF) or a CNF formula.
//
// The facade wraps the implementation packages:
//
//	internal/anf       Boolean polynomials (the PolyBoRi role)
//	internal/gf2       GF(2) linear algebra, sparse and dense (the M4RI role)
//	internal/sat       CDCL solver with XOR/GJE support (the CryptoMiniSat role)
//	internal/minimize  Quine–McCluskey logic minimization (the ESPRESSO role)
//	internal/conv      ANF ↔ CNF conversion
//	internal/core      the fact-learning loop itself
//	internal/cube      cube-and-conquer splitting and conquering
//	internal/share     learnt-clause exchange between portfolio workers
//
// Quick start:
//
//	sys, _ := bosphorus.ParseANF(strings.NewReader("x1*x2 + x3 + 1\nx1 + x3\n"))
//	res := bosphorus.Solve(sys, bosphorus.DefaultOptions())
//	if res.Status == bosphorus.SAT { fmt.Println(res.Solution) }
package bosphorus

import (
	"context"
	"io"
	"time"

	"repro/internal/anf"
	"repro/internal/cnf"
	"repro/internal/conv"
	"repro/internal/core"
	"repro/internal/cube"
	"repro/internal/proof"
	"repro/internal/sat"
)

// System is an ANF polynomial system (re-exported).
type System = anf.System

// Formula is a CNF formula (re-exported).
type Formula = cnf.Formula

// ParseANF reads a polynomial system: one polynomial equation per line
// ("x1*x2 + x3 + 1"), '#' comments.
func ParseANF(r io.Reader) (*System, error) { return anf.ReadSystem(r) }

// WriteANF writes a system in the same format.
func WriteANF(w io.Writer, sys *System) error { return anf.WriteSystem(w, sys) }

// ParseDimacs reads a DIMACS CNF (with CryptoMiniSat "x" XOR-clause
// support).
func ParseDimacs(r io.Reader) (*Formula, error) { return cnf.ReadDimacs(r) }

// WriteDimacs writes DIMACS.
func WriteDimacs(w io.Writer, f *Formula) error { return cnf.WriteDimacs(w, f) }

// SolverProfile selects the internal SAT solver personality.
type SolverProfile = sat.Profile

// Solver profiles, mirroring the paper's evaluation matrix.
const (
	MiniSat       = sat.ProfileMiniSat
	Lingeling     = sat.ProfileLingeling
	CryptoMiniSat = sat.ProfileCMS
)

// Options configures the fact-learning loop; zero values take the paper's
// defaults (§IV) scaled to a single machine.
type Options struct {
	// M is the XL/ElimLin subsample exponent (linearized cells ≈ 2^M).
	M int
	// DeltaM is the XL expansion allowance.
	DeltaM int
	// XLDeg is the XL multiplier degree D.
	XLDeg int
	// KarnaughK, CutLen, ClauseCutLen are the conversion parameters K, L, L′.
	KarnaughK, CutLen, ClauseCutLen int
	// ConflictBudget is the SAT step's starting conflict budget C.
	ConflictBudget int64
	// Profile picks the internal solver.
	Profile SolverProfile
	// MaxIterations caps the loop; 0 means run to the fixed point.
	MaxIterations int
	// TimeBudget caps wall-clock time (0 = none).
	TimeBudget time.Duration
	// Context, when non-nil, cancels the run cooperatively: the loop,
	// every technique, and the SAT solver's conflict loop all poll it, so
	// cancellation returns within a bounded number of conflicts. The
	// partial Result carries the facts learnt so far and Interrupted set.
	Context context.Context
	// Seed fixes all randomness for reproducible runs.
	Seed int64
	// Workers sets how many fact learners run at once; 0 and 1 run them
	// one after another. Each iteration's learners read the
	// iteration-start system and their facts merge in a fixed order, so
	// the result is identical for every value.
	Workers int
	// Log receives progress lines when non-nil.
	Log io.Writer

	// EnableGroebner adds the budgeted Buchberger phase (§V) to the loop.
	EnableGroebner bool
	// EnableProbing adds failed-literal probing to the SAT step (§V's
	// lookahead-style component).
	EnableProbing bool
	// Route puts the tractable-fragment router in front of the SAT step:
	// when the CNF residue (after ANF propagation/ElimLin) is pure 2SAT,
	// Horn, anti-Horn, or XOR, it is decided by a polynomial solver
	// instead of CDCL. Result.RoutedVia names the fragment that answered.
	Route bool
	// ExtraTechniques are user-supplied fact learners plugged into the
	// workflow (§V: "it is relatively easy to include new solving
	// techniques by plugging them as components").
	ExtraTechniques []Technique

	// Provenance records every learnt fact's derivation (technique,
	// iteration, algebraic witness) into Result.Provenance, ready for
	// VerifyFacts. Tracking never changes which facts are learnt.
	Provenance bool
	// EmitProof captures a DRAT proof from the SAT step; when the run ends
	// UNSAT via the solver, Result.Certificate carries the checkable proof.
	EmitProof bool
	// ProofBinary selects the compact binary DRAT encoding.
	ProofBinary bool
}

// Technique is the §V plug point for custom fact-learning components
// (re-exported from the engine).
type Technique = core.Technique

// TechniqueFunc adapts a function to Technique (re-exported).
type TechniqueFunc = core.TechniqueFunc

// BuchbergerTechnique returns the budgeted Gröbner-basis component as a
// pluggable Technique.
func BuchbergerTechnique() Technique { return core.BuchbergerTechnique() }

// DefaultOptions returns the paper's configuration.
func DefaultOptions() Options {
	return Options{
		M: 20, DeltaM: 4, XLDeg: 1,
		KarnaughK: 8, CutLen: 5, ClauseCutLen: 5,
		ConflictBudget: 10000,
		Profile:        CryptoMiniSat,
		MaxIterations:  16,
		Seed:           1,
	}
}

func (o Options) toCore(stopOnSolution bool) core.Config {
	cfg := core.DefaultConfig()
	if o.M > 0 {
		cfg.M = o.M
	}
	if o.DeltaM > 0 {
		cfg.DeltaM = o.DeltaM
	}
	if o.XLDeg > 0 {
		cfg.XLDeg = o.XLDeg
	}
	cfg.Conv = conv.Options{CutLen: 5, KarnaughK: 8, ClauseCutLen: 5}
	if o.CutLen > 0 {
		cfg.Conv.CutLen = o.CutLen
	}
	if o.KarnaughK > 0 {
		cfg.Conv.KarnaughK = o.KarnaughK
	}
	if o.ClauseCutLen > 0 {
		cfg.Conv.ClauseCutLen = o.ClauseCutLen
	}
	if o.ConflictBudget > 0 {
		cfg.ConflictBudget = o.ConflictBudget
	}
	cfg.Profile = o.Profile
	if o.MaxIterations > 0 {
		cfg.MaxIterations = o.MaxIterations
	}
	cfg.TimeBudget = o.TimeBudget
	cfg.Context = o.Context
	if o.Seed != 0 {
		cfg.Seed = o.Seed
	}
	cfg.Workers = o.Workers
	cfg.Log = o.Log
	cfg.StopOnSolution = stopOnSolution
	cfg.EnableGroebner = o.EnableGroebner
	cfg.EnableProbing = o.EnableProbing
	cfg.Route = o.Route
	cfg.ExtraTechniques = o.ExtraTechniques
	cfg.Provenance = o.Provenance
	cfg.EmitProof = o.EmitProof
	cfg.ProofBinary = o.ProofBinary
	return cfg
}

// Status of a Solve or Preprocess call.
type Status int

// Possible statuses.
const (
	// Processed means no verdict: the returned ANF/CNF carry the learnt facts.
	Processed Status = iota
	// SAT means a satisfying assignment was found (see Result.Solution).
	SAT
	// UNSAT means the contradiction 1 = 0 was derived.
	UNSAT
)

func (s Status) String() string {
	switch s {
	case SAT:
		return "SAT"
	case UNSAT:
		return "UNSAT"
	default:
		return "PROCESSED"
	}
}

// Result of Solve/Preprocess.
type Result struct {
	Status Status
	// Solution is a satisfying assignment over the input variables when
	// Status is SAT.
	Solution []bool
	// ANF is the processed system: input equations simplified by the
	// learnt facts, plus the facts themselves.
	ANF *System
	// CNF is the processed system converted to CNF.
	CNF *Formula
	// Iterations, FactsXL, FactsElimLin, FactsSAT, FactsPropagation
	// summarize the run.
	Iterations       int
	FactsXL          int
	FactsElimLin     int
	FactsSAT         int
	FactsPropagation int
	Elapsed          time.Duration
	// Interrupted is true when Options.Context was cancelled before the
	// run finished; the facts and simplified systems remain sound.
	Interrupted bool
	// Provenance is the fact ledger recorded when Options.Provenance was
	// set: one record per input equation and learnt fact, carrying the
	// derivation. Feed it to VerifyFacts for independent re-derivation.
	Provenance *Ledger
	// Certificate is the DRAT proof captured when Options.EmitProof was
	// set and the SAT step derived the refutation; Certificate.Check()
	// re-verifies it with the built-in checker.
	Certificate *Certificate
	// RoutedVia names the tractable fragment that produced the verdict
	// when Options.Route was on and the router matched ("2sat", "horn",
	// "antihorn", "xor"); empty when CDCL did the solving.
	RoutedVia string
}

// Ledger is the provenance table: a record per input equation and learnt
// fact (re-exported).
type Ledger = proof.Ledger

// Certificate pairs an UNSAT SAT-step's CNF with its DRAT proof
// (re-exported).
type Certificate = proof.Certificate

// VerifyReport aggregates per-fact verification verdicts (re-exported).
type VerifyReport = proof.VerifyReport

// VerifyOptions tunes VerifyFacts (re-exported).
type VerifyOptions = proof.VerifyOptions

// VerifyFacts independently re-derives every fact in a run's provenance
// ledger against the original input system: exact replay of the recorded
// algebraic witnesses, a random-assignment falsification screen, and SAT
// refutation for facts without a replayable witness. It never trusts the
// engine that produced the ledger.
func VerifyFacts(original *System, lg *Ledger, opts VerifyOptions) *VerifyReport {
	return proof.VerifyFacts(original, lg, opts)
}

func wrap(res *core.Result, o Options) *Result {
	out := &Result{
		Status:           Processed,
		Solution:         res.Solution,
		Iterations:       res.Iterations,
		FactsXL:          res.XL.NewFacts,
		FactsElimLin:     res.ElimLin.NewFacts,
		FactsSAT:         res.SAT.NewFacts,
		FactsPropagation: res.PropagationFacts,
		Elapsed:          res.Elapsed,
		Interrupted:      res.Interrupted,
		Provenance:       res.Provenance,
		Certificate:      res.Certificate,
		RoutedVia:        res.RoutedVia,
	}
	switch res.Status {
	case core.SolvedSAT:
		out.Status = SAT
	case core.SolvedUNSAT:
		out.Status = UNSAT
	}
	out.ANF = res.OutputANF()
	convOpts := conv.Options{CutLen: 5, KarnaughK: 8, ClauseCutLen: 5}
	if o.CutLen > 0 {
		convOpts.CutLen = o.CutLen
	}
	if o.KarnaughK > 0 {
		convOpts.KarnaughK = o.KarnaughK
	}
	out.CNF, _ = res.OutputCNF(convOpts)
	return out
}

// Solve runs the fact-learning loop until a verdict (or budget).
func Solve(sys *System, o Options) *Result {
	return wrap(core.Process(sys, o.toCore(true)), o)
}

// Preprocess runs the loop to its fixed point without committing to a
// solution, returning the augmented ANF and CNF.
func Preprocess(sys *System, o Options) *Result {
	return wrap(core.Process(sys, o.toCore(false)), o)
}

// PreprocessCNF runs the loop on a CNF formula (the paper's §III-D
// CNF-preprocessor use-case): the formula is translated to ANF (clause →
// product of negated literals), processed, and the learnt facts are
// returned both ways.
func PreprocessCNF(f *Formula, o Options) *Result {
	convOpts := conv.Options{CutLen: 5, KarnaughK: 8, ClauseCutLen: 5}
	if o.ClauseCutLen > 0 {
		convOpts.ClauseCutLen = o.ClauseCutLen
	}
	sys := conv.CNFToANF(f, convOpts)
	return wrap(core.Process(sys, o.toCore(false)), o)
}

// SolveCNF decides a CNF formula through the bridge.
func SolveCNF(f *Formula, o Options) *Result {
	convOpts := conv.Options{CutLen: 5, KarnaughK: 8, ClauseCutLen: 5}
	if o.ClauseCutLen > 0 {
		convOpts.ClauseCutLen = o.ClauseCutLen
	}
	sys := conv.CNFToANF(f, convOpts)
	return wrap(core.Process(sys, o.toCore(true)), o)
}

// VerifyANF reports whether the assignment satisfies the system.
func VerifyANF(sys *System, solution []bool) bool {
	return core.VerifySolution(sys, solution)
}

// CubeOptions configures a cube-and-conquer run (re-exported from
// internal/cube): lookahead splitting depth and width, the conquer worker
// count, and the learnt-clause sharing ring.
type CubeOptions = cube.Options

// CubeResult is the merged outcome of a cube-and-conquer run
// (re-exported): the verdict, the model or stitched DRAT proof, and the
// per-run cube/conflict counters.
type CubeResult = cube.Result

// DefaultCubeOptions returns the conservative cube configuration: a
// shallow 16-leaf tree, 64 probed candidates per split, glue-only clause
// sharing.
func DefaultCubeOptions() CubeOptions { return cube.DefaultOptions() }

// CubeStatus is the verdict type of CubeResult.Status (re-exported; the
// solver-level status, distinct from the fact-learning loop's Status).
type CubeStatus = sat.Status

// CubeResult.Status values.
const (
	CubeSAT     = sat.Sat
	CubeUNSAT   = sat.Unsat
	CubeUnknown = sat.Unknown
)

// SolveCube decides a CNF formula by cube-and-conquer: a lookahead
// splitter partitions the search into assumption prefixes, a worker pool
// conquers them, and the results merge deterministically (first model on
// SAT; on UNSAT, with CubeOptions.WithProof set, a stitched DRAT proof
// the built-in checker accepts). With Workers ≤ 1 and ForceSplit off the
// run is bit-identical to solving directly.
func SolveCube(ctx context.Context, f *Formula, o CubeOptions) *CubeResult {
	if ctx == nil {
		ctx = context.Background()
	}
	return cube.Solve(ctx, f, o)
}
