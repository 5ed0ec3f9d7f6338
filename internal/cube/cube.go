// Package cube implements cube-and-conquer solving: a lookahead splitter
// partitions the search space into a bounded tree of assumption prefixes
// ("cubes"), a scheduler fans the open cubes across a pool of CDCL
// workers that solve them as assumption jobs, and the results merge
// deterministically — SAT short-circuits with the first model, UNSAT
// requires every cube refuted and stitches the workers' DRAT segments
// into one proof the internal/proof checker accepts.
//
// The splitter scores candidate split variables with the solver's
// failed-literal probing machinery (sat.ProbeScoresUnder): a variable's
// score is the product of its two phase-propagation fanouts, so the tree
// branches on variables that simplify both halves. A prefix that already
// propagates to a conflict is refuted at split time and never reaches a
// worker (the refutation-aware cutoff).
//
// Workers optionally exchange low-LBD learnt clauses through the
// internal/share ring. The determinism contract is layered:
//
//   - Workers ≤ 1 without ForceSplit routes to a plain solve — verdict,
//     model, learnt facts and counters are bit-identical to running the
//     solver directly.
//   - One worker with ForceSplit is still deterministic: cubes are solved
//     in index order on one solver, with no clause exchange.
//   - Several workers keep the verdict deterministic, but the model (on
//     SAT), the fact harvest, and the search counters depend on timing;
//     Stats.SharedExported/SharedImported report the clause traffic that
//     explains the variance.
package cube

import (
	"time"

	"repro/internal/cnf"
	"repro/internal/sat"
)

// Options configures a cube-and-conquer run.
type Options struct {
	// Workers is the size of the conquer pool. Values below 2 solve
	// directly (no splitting) unless ForceSplit is set.
	Workers int
	// MaxCubes bounds the number of open leaves the splitter produces.
	MaxCubes int
	// MaxDepth bounds the cube prefix length.
	MaxDepth int
	// ProbeVars is the number of candidate variables scored per split
	// node (0 = all unassigned).
	ProbeVars int
	// ForceSplit runs the splitter and the cube scheduler even with a
	// single worker — the deterministic configuration the equivalence
	// tests and benchmarks exercise.
	ForceSplit bool
	// SolverOptions configures the conquer solvers. Worker i>0 gets
	// RandomSeed+i for diversification; worker 0 keeps the exact seed.
	SolverOptions sat.Options
	// ShareSlots sizes the learnt-clause exchange ring. 0 disables
	// sharing; sharing is only active with at least two workers.
	ShareSlots int
	// ShareMaxLBD caps the LBD of exported clauses.
	ShareMaxLBD int
	// WithProof captures per-worker DRAT segments and stitches an UNSAT
	// proof into Result.Proof.
	WithProof bool
}

// DefaultOptions returns a conservative cube configuration: a shallow
// 16-leaf tree, 64 probed candidates per node, and glue-only sharing.
func DefaultOptions() Options {
	return Options{
		Workers:       1,
		MaxCubes:      16,
		MaxDepth:      8,
		ProbeVars:     64,
		SolverOptions: sat.DefaultOptions(sat.ProfileMiniSat),
		ShareSlots:    256,
		ShareMaxLBD:   4,
	}
}

// Result is the merged outcome of a cube-and-conquer run.
type Result struct {
	// Status is the merged verdict: Sat as soon as any cube is
	// satisfiable, Unsat when every cube is refuted (at split time or by
	// a worker) or any worker refutes the formula outright, Unknown when
	// the run was interrupted before either.
	Status sat.Status
	// Model is the satisfying assignment on Sat.
	Model []bool
	// SatCube is the index of the cube that produced the model, -1
	// otherwise (and on the direct, splitless path).
	SatCube int
	// Units and Binaries are the level-0 facts harvested from the
	// workers (the Bosphorus learn-back payload). Deterministic for a
	// single worker; a union in worker order otherwise.
	Units    []cnf.Lit
	Binaries []cnf.Clause
	// Cubes counts the open cubes scheduled to workers; RefutedAtSplit
	// counts prefixes the splitter refuted by propagation alone; Refuted
	// counts cubes refuted by workers.
	Cubes          int
	RefutedAtSplit int
	Refuted        int
	// WorkerStats holds each worker's final counters, in worker order.
	// The direct path reports exactly one entry.
	WorkerStats []sat.Stats
	// Conflicts, Decisions and Propagations are pool-wide totals.
	Conflicts, Decisions, Propagations uint64
	// SharedExported / SharedImported total the clause-exchange traffic.
	SharedExported, SharedImported uint64
	// Proof is the stitched DRAT refutation (text form) when WithProof
	// was set and the verdict is Unsat.
	Proof []byte
	// Elapsed is the wall-clock time of the run.
	Elapsed time.Duration
}

// negate returns the clause ¬(l1 ∧ ... ∧ ln).
func negate(lits []cnf.Lit) []cnf.Lit {
	out := make([]cnf.Lit, len(lits))
	for i, l := range lits {
		out[i] = l.Not()
	}
	return out
}
