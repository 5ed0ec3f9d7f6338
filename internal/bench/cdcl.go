// CDCL microbenchmark families. Unlike the Table II harness (whole
// pipeline, wall-clock scoring), these jobs exercise the CDCL solver's two
// hot paths in isolation so successive PRs can diff constant factors like
// against like:
//
//   - the propagation family is dominated by unit propagation over long
//     watched-literal lists (implication chains, BMC-style circuit
//     unrollings, planted parity systems with few conflicts), and
//   - the conflict family is dominated by conflict analysis and clause-DB
//     churn (pigeonhole, random 3-SAT at the phase transition, mutilated
//     chessboard — thousands of learnt clauses, reduceDB triggered).
//
// Every job is deterministic: a fixed generator seed and a fixed solver
// seed give bit-identical conflict/decision/propagation counts run over
// run, so ns/op and allocs/op changes are attributable to the solver's
// internals rather than to search noise.
package bench

import (
	"fmt"
	"math/rand"

	"repro/internal/cnf"
	"repro/internal/sat"
	"repro/internal/satgen"
)

// cnfJob is a job of the solver families: its input is a formula.
func cnfJob(name string, want sat.Status, build func() *cnf.Formula) KernelJob {
	return KernelJob{Name: name, Want: want, Build: func() any { return build() }}
}

func pigeonholeJob(pigeons, holes int) KernelJob {
	return cnfJob(fmt.Sprintf("php-%d-%d", pigeons, holes), sat.Unsat, func() *cnf.Formula {
		return satgen.Pigeonhole(pigeons, holes).Formula
	})
}

// solve is one full solver construction, load and search of a job's
// formula.
func solve(in any, opts sat.Options) sat.Status {
	s := sat.New(opts)
	if !s.AddFormula(in.(*cnf.Formula)) {
		return sat.Unsat
	}
	return s.Solve()
}

// cdclArms solve under the MiniSat profile.
var cdclArms = []KernelArm{{Name: "solve", Run: func(in any) sat.Status {
	return solve(in, sat.DefaultOptions(sat.ProfileMiniSat))
}}}

// ImplicationChain builds the pure-propagation instance: a chain
// x0 → x1 → … → x_{n-1} closed by the unit x0, so one decision-free
// propagation pass assigns every variable through the watcher lists.
func ImplicationChain(n int) *cnf.Formula {
	f := cnf.NewFormula(n)
	for i := 0; i+1 < n; i++ {
		f.AddClause(cnf.MkLit(cnf.Var(i), true), cnf.MkLit(cnf.Var(i+1), false))
	}
	f.AddClause(cnf.MkLit(0, false))
	return f
}

// CDCLPropagationJobs returns the propagation-heavy family.
func CDCLPropagationJobs() []KernelJob {
	return []KernelJob{
		cnfJob("chain-20000", sat.Sat, func() *cnf.Formula { return ImplicationChain(20000) }),
		cnfJob("lfsr-sat-n16-s48", sat.Sat, func() *cnf.Formula {
			return satgen.LFSRReach(16, 48, false, rand.New(rand.NewSource(11))).Formula
		}),
		cnfJob("parity-planted-v96-e80-w3", sat.Sat, func() *cnf.Formula {
			return satgen.ParityChain(96, 80, 3, true, rand.New(rand.NewSource(12))).Formula
		}),
	}
}

// CDCLConflictJobs returns the conflict-analysis-heavy family.
func CDCLConflictJobs() []KernelJob {
	return []KernelJob{
		pigeonholeJob(8, 7),
		cnfJob("rand3sat-v170", sat.Sat, func() *cnf.Formula {
			return satgen.RandomKSAT(170, 3, 4.26, rand.New(rand.NewSource(13))).Formula
		}),
		cnfJob("mutilated-chessboard-8", sat.Unsat, func() *cnf.Formula {
			return satgen.MutilatedChessboard(8).Formula
		}),
	}
}
