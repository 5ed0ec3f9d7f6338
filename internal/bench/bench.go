// Package bench is the evaluation harness reproducing the paper's §IV
// experiment design: every instance is solved once per SAT solver profile,
// with and without Bosphorus preprocessing, under a per-instance wall
// clock timeout; results aggregate to PAR-2 scores (sum of runtimes for
// solved instances plus twice the timeout for unsolved ones) and counts of
// solved SAT/UNSAT instances — the exact format of Table II.
package bench

import (
	"context"
	"fmt"
	"time"

	"repro/internal/anf"
	"repro/internal/cnf"
	"repro/internal/conv"
	"repro/internal/core"
	"repro/internal/sat"
	"repro/internal/satgen"
	"repro/internal/simp"
)

// Job is one benchmark instance: either an ANF problem or a CNF problem.
type Job struct {
	Name  string
	ANF   *anf.System
	CNF   *cnf.Formula
	Truth satgen.Status // ground truth when known, for validity checking
}

// Config controls one evaluation cell (solver × with/without Bosphorus).
type Config struct {
	// Timeout is the per-instance wall-clock budget (the paper: 5000 s;
	// scaled down here).
	Timeout time.Duration
	// BosphorusShare is the fraction of Timeout granted to the
	// fact-learning loop (the paper: 1000/5000 = 0.2).
	BosphorusShare float64
	// Profile is the eventual SAT solver.
	Profile sat.Profile
	// UseBosphorus toggles the preprocessing ("w" vs "w/o" rows).
	UseBosphorus bool
	// Seed fixes all randomized components.
	Seed int64
}

// DefaultConfig returns a laptop-scale configuration.
func DefaultConfig() Config {
	return Config{
		Timeout:        3 * time.Second,
		BosphorusShare: 0.2,
		Profile:        sat.ProfileMiniSat,
		Seed:           1,
	}
}

// InstanceResult is the outcome of one run.
type InstanceResult struct {
	Name    string
	Verdict sat.Status
	Time    time.Duration
	// SolvedBy records whether Bosphorus itself or the eventual solver
	// produced the verdict.
	SolvedBy string
	// TruthMismatch flags a verdict contradicting the known ground truth —
	// always a bug, surfaced rather than silently scored.
	TruthMismatch bool
}

// RunInstance executes the paper's per-instance pipeline.
func RunInstance(job Job, cfg Config) InstanceResult {
	start := time.Now()
	res := InstanceResult{Name: job.Name, Verdict: sat.Unknown, SolvedBy: "solver"}
	deadline := start.Add(cfg.Timeout)

	formula, verdict, solvedBy := prepare(job, cfg)
	if verdict != sat.Unknown {
		res.Verdict = verdict
		res.SolvedBy = solvedBy
	} else {
		res.Verdict = finalSolve(formula, cfg, deadline)
	}
	res.Time = time.Since(start)
	if res.Time > cfg.Timeout {
		// Over-budget results count as unsolved, like the paper's runs.
		if res.Verdict != sat.Unknown {
			res.Verdict = sat.Unknown
		}
	}
	if res.Verdict != sat.Unknown && job.Truth != satgen.StatusUnknown {
		want := sat.Sat
		if job.Truth == satgen.StatusUnsat {
			want = sat.Unsat
		}
		res.TruthMismatch = res.Verdict != want
	}
	return res
}

// prepare produces the CNF the eventual solver will see, possibly solving
// outright via the Bosphorus loop.
func prepare(job Job, cfg Config) (*cnf.Formula, sat.Status, string) {
	if !cfg.UseBosphorus {
		// "w/o": CNF problems go to the solver as-is; ANF problems are
		// only converted (§IV: "converting to CNFs using BOSPHORUS if
		// needed").
		if job.CNF != nil {
			return job.CNF, sat.Unknown, ""
		}
		opts := conv.DefaultOptions()
		opts.NativeXor = cfg.Profile == sat.ProfileCMS
		f, _ := conv.ANFToCNF(job.ANF, opts)
		return f, sat.Unknown, ""
	}

	// "w": run the fact-learning loop within its time share.
	sys := job.ANF
	if sys == nil {
		sys = conv.CNFToANF(job.CNF, conv.DefaultOptions())
	}
	ccfg := core.DefaultConfig()
	ccfg.Seed = cfg.Seed
	ccfg.Profile = cfg.Profile
	ccfg.TimeBudget = time.Duration(float64(cfg.Timeout) * cfg.BosphorusShare)
	out := core.Process(sys, ccfg)
	switch out.Status {
	case core.SolvedUNSAT:
		return nil, sat.Unsat, "bosphorus"
	case core.SolvedSAT:
		if job.ANF != nil {
			return nil, sat.Sat, "bosphorus"
		}
		// For CNF problems the ANF solution covers the original variables
		// (CNF variable i is ANF variable i); verify before trusting.
		if job.CNF.Eval(func(v cnf.Var) bool {
			return int(v) < len(out.Solution) && out.Solution[v]
		}) {
			return nil, sat.Sat, "bosphorus"
		}
	}

	if job.CNF != nil {
		// CNF use-case (§III-D): return the original CNF augmented with
		// the learnt value/equivalence facts over original variables.
		f := job.CNF.Clone()
		addFactClauses(f, out.State)
		return f, sat.Unknown, ""
	}
	opts := conv.DefaultOptions()
	opts.NativeXor = cfg.Profile == sat.ProfileCMS
	f, _ := conv.ANFToCNF(out.OutputANF(), opts)
	return f, sat.Unknown, ""
}

// addFactClauses appends unit and equivalence clauses for determined
// variables within the formula's variable range.
func addFactClauses(f *cnf.Formula, st *core.VarState) {
	n := f.NumVars
	for v := 0; v < n && v < st.NumVars(); v++ {
		if b, ok := st.Value(anf.Var(v)); ok {
			f.AddClause(cnf.MkLit(cnf.Var(v), !b))
			continue
		}
		r := st.Find(anf.Var(v))
		if int(r.V) >= n || r.V == anf.Var(v) {
			continue
		}
		a, b := cnf.Var(v), cnf.Var(r.V)
		if r.Neg {
			f.AddClause(cnf.MkLit(a, false), cnf.MkLit(b, false))
			f.AddClause(cnf.MkLit(a, true), cnf.MkLit(b, true))
		} else {
			f.AddClause(cnf.MkLit(a, false), cnf.MkLit(b, true))
			f.AddClause(cnf.MkLit(a, true), cnf.MkLit(b, false))
		}
	}
}

// finalSolve runs the eventual solver under the remaining wall clock.
func finalSolve(f *cnf.Formula, cfg Config, deadline time.Time) sat.Status {
	if f == nil {
		return sat.Unknown
	}
	target := f
	var rec *simp.Reconstructor
	switch cfg.Profile {
	case sat.ProfileLingeling:
		// The Lingeling column pairs CDCL with heavy preprocessing.
		pres := simp.Preprocess(f, simp.DefaultOptions())
		if pres.Unsat {
			return sat.Unsat
		}
		target = pres.Formula
		rec = pres.Reconstructor
	case sat.ProfileCMS:
		// CryptoMiniSat recovers clausally-encoded XORs so its
		// Gauss–Jordan component can act on them.
		target = sat.RecoverXors(f, 6)
	}
	_ = rec // models are not needed for scoring
	opts := sat.DefaultOptions(cfg.Profile)
	opts.RandomSeed = cfg.Seed
	s := sat.New(opts)
	if !s.AddFormula(target) {
		return sat.Unsat
	}
	ctx, cancel := context.WithDeadline(context.Background(), deadline)
	defer cancel()
	s.SetInterrupt(ctx)
	return s.Solve()
}

// PAR2 aggregates results: the PAR-2 score (seconds) plus the number of
// solved SAT and UNSAT instances.
func PAR2(results []InstanceResult, timeout time.Duration) (score float64, nSat, nUnsat int) {
	for _, r := range results {
		switch r.Verdict {
		case sat.Sat:
			nSat++
			score += r.Time.Seconds()
		case sat.Unsat:
			nUnsat++
			score += r.Time.Seconds()
		default:
			score += 2 * timeout.Seconds()
		}
	}
	return score, nSat, nUnsat
}

// CellResult is one Table II cell: a family × solver × with/without run.
type CellResult struct {
	PAR2   float64
	NSat   int
	NUnsat int
	// Mismatches counts verdicts contradicting ground truth (must be 0).
	Mismatches int
}

// RunCell evaluates all jobs of a family under one configuration.
func RunCell(jobs []Job, cfg Config) CellResult {
	var results []InstanceResult
	mism := 0
	for _, j := range jobs {
		r := RunInstance(j, cfg)
		if r.TruthMismatch {
			mism++
		}
		results = append(results, r)
	}
	score, nSat, nUnsat := PAR2(results, cfg.Timeout)
	return CellResult{PAR2: score, NSat: nSat, NUnsat: nUnsat, Mismatches: mism}
}

// FormatCell renders a cell the way Table II does: "PAR2 (sat+unsat)",
// with the unsat count omitted when zero.
func FormatCell(c CellResult) string {
	if c.NUnsat > 0 {
		return fmt.Sprintf("%.1f (%d+%d)", c.PAR2, c.NSat, c.NUnsat)
	}
	return fmt.Sprintf("%.1f (%d)", c.PAR2, c.NSat)
}
