// Cube-and-conquer scaling family. These jobs measure the end-to-end
// wall-clock of the cube solver (split + conquer + merge) against the
// plain single-engine solve on the same instance, at 1, 2, and 4
// conquer workers.
//
// The machine running the gate has a single CPU, so any speedup here is
// algorithmic, not parallel: the split isolates subproblems whose total
// search is smaller than the monolithic one (UNSAT instances with
// symmetric cores like pigeonhole), or it puts a satisfiable cube near
// the front of the queue so the SAT short-circuit fires long before the
// direct solver's heuristics find the witness (random 3-SAT below the
// threshold). Instances where splitting does NOT pay (e.g. mutilated
// chessboard, whose refutation the splitter fragments) are deliberately
// excluded: the family tracks the regime cube mode is FOR, and the
// direct-path numbers keep the comparison honest.
//
// Everything is fixed-seed: the generators, the splitter (deterministic
// by construction), and the solver seeds. With one worker the cube runs
// are bit-reproducible; with more, scheduling varies the clause traffic
// but the wall-clock medians remain stable enough to gate on.
package bench

import (
	"context"
	"math/rand"
	"strconv"

	"repro/internal/cnf"
	"repro/internal/cube"
	"repro/internal/sat"
	"repro/internal/satgen"
)

// CubeScalingJobs returns the cube-vs-direct family: hard instances
// where lookahead splitting beats the monolithic search.
func CubeScalingJobs() []KernelJob {
	return []KernelJob{
		pigeonholeJob(9, 8),
		cnfJob("rand3sat-v200-r4.1", sat.Sat, func() *cnf.Formula {
			return satgen.RandomKSAT(200, 3, 4.1, rand.New(rand.NewSource(5))).Formula
		}),
		cnfJob("rand3sat-v210-r4.1", sat.Sat, func() *cnf.Formula {
			return satgen.RandomKSAT(210, 3, 4.1, rand.New(rand.NewSource(9))).Formula
		}),
	}
}

// CubeScalingOptions is the fixed cube configuration the family runs
// under (exported so the equivalence tests exercise the same shape).
func CubeScalingOptions(workers int) cube.Options {
	opts := cube.DefaultOptions()
	opts.Workers = workers
	opts.ForceSplit = true
	opts.MaxCubes = 16
	opts.MaxDepth = 12
	opts.ProbeVars = 64
	opts.ShareSlots = 256
	opts.ShareMaxLBD = 4
	return opts
}

// cubeArms are the direct single-engine solve and the cube solve at 1, 2
// and 4 conquer workers.
var cubeArms = []KernelArm{
	{Name: "direct", Run: func(in any) sat.Status { return solve(in, sat.DefaultOptions(sat.ProfileMiniSat)) }},
	cubeArm(1), cubeArm(2), cubeArm(4),
}

func cubeArm(workers int) KernelArm {
	opts := CubeScalingOptions(workers)
	return KernelArm{Name: "w" + strconv.Itoa(workers), Run: func(in any) sat.Status {
		return cube.Solve(context.Background(), in.(*cnf.Formula), opts).Status
	}}
}
