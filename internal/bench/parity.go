// Native-parity benchmark family. Each job is an XOR-rich instance
// (recovered from clausal form or built natively) solved two ways at the
// same fixed seeds:
//
//   - native: the packed parity clause kind — one arena record per XOR
//     constraint, watched on two variables, propagating the last
//     unassigned variable to the parity-satisfying phase; and
//   - cut: the differential baseline the engine used before the native
//     kind existed — every XOR expanded into its 2^(k-1) CNF clauses
//     (NativeXor and Gauss both off).
//
// The family keeps the parity path honest: the native column must beat
// the cut column on every member (the native kind exists to make
// XOR-heavy search cheaper, not just smaller), and EXPERIMENTS.md tracks
// the ratios PR over PR. Members cover the three shapes the engine
// actually meets: LFSR step relations recovered from clausal form
// (§II-D recovery), long parity chains, and planted dense XOR systems
// just under the Gauss length threshold.
package bench

import (
	"math/rand"

	"repro/internal/cnf"
	"repro/internal/sat"
	"repro/internal/satgen"
)

// LFSRParity builds an LFSR reachability instance (satgen.LFSRReach) and
// recovers its step relations into native XOR clauses, the same
// clausal-to-parity path the engine's §II-D recovery takes on real
// inputs.
func LFSRParity(nBits, steps int, unsat bool, seed int64) *cnf.Formula {
	inst := satgen.LFSRReach(nBits, steps, unsat, rand.New(rand.NewSource(seed)))
	return sat.RecoverXors(inst.Formula, sat.DefaultNativeXorMaxLen)
}

// ChainParity builds a clausal parity chain (satgen.ParityChain) and
// recovers the parity groups into native XOR clauses.
func ChainParity(nVars, nEqs, width int, planted bool, seed int64) *cnf.Formula {
	inst := satgen.ParityChain(nVars, nEqs, width, planted, rand.New(rand.NewSource(seed)))
	return sat.RecoverXors(inst.Formula, sat.DefaultNativeXorMaxLen)
}

// ParityCascade builds a sliding-window parity chain whose verdict is one
// long unit-propagation cascade and zero conflicts: units pin the first
// width-1 variables to a planted solution, every window X_i = x_i ⊕ … ⊕
// x_{i+width-1} then forces the next variable in order, and with
// unsat=true the final window is repeated with its RHS flipped so the
// cascade ends in a contradiction. Both arms propagate the identical
// implication chain, which makes this the family's propagation-cost
// member: the timing difference is purely watcher-scan and clause-load
// work, 1 parity record vs 2^(width-1) cut clauses per window, with no
// search-path variance to muddy it.
func ParityCascade(nVars, width int, unsat bool, seed int64) *cnf.Formula {
	rng := rand.New(rand.NewSource(seed))
	f := cnf.NewFormula(nVars)
	sol := make([]bool, nVars)
	for i := range sol {
		sol[i] = rng.Intn(2) == 1
	}
	for i := 0; i < width-1; i++ {
		f.AddClause(cnf.MkLit(cnf.Var(i), !sol[i]))
	}
	var lastVars []cnf.Var
	lastRHS := false
	for i := 0; i+width <= nVars; i++ {
		vs := make([]cnf.Var, width)
		rhs := false
		for j := 0; j < width; j++ {
			vs[j] = cnf.Var(i + j)
			if sol[i+j] {
				rhs = !rhs
			}
		}
		f.AddXor(rhs, vs...)
		lastVars, lastRHS = vs, rhs
	}
	if unsat {
		f.AddXor(!lastRHS, lastVars...)
	}
	return f
}

// ParityJobs returns the full family at fixed seeds. Widths stay at or
// under DefaultNativeXorMaxLen so on a Gauss-enabled profile every row
// would stay in-watch — this family measures the parity kind itself,
// not the Gauss side-car (the xor member of the fragment family covers
// elimination). Members are chosen propagation-bound with small, stable
// conflict counts: dense resolution-hard XOR systems have exponential
// search-path variance under either encoding (and are Gauss's job
// anyway), which would drown the encoding cost this family tracks.
func ParityJobs() []KernelJob {
	return []KernelJob{
		cnfJob("lfsr-b24-s48-unsat", sat.Unsat, func() *cnf.Formula { return LFSRParity(24, 48, true, 11) }),
		cnfJob("cascade-v2000-w6-unsat", sat.Unsat, func() *cnf.Formula { return ParityCascade(2000, 6, true, 5) }),
		cnfJob("chain-parity-v80-e88-w4-unsat", sat.Unsat, func() *cnf.Formula { return ChainParity(80, 88, 4, false, 21) }),
		cnfJob("planted-xor-v400-e150-w6-sat", sat.Sat, func() *cnf.Formula {
			return XorSystem(400, 150, 6, false, rand.New(rand.NewSource(7)))
		}),
		cnfJob("planted-xor-v300-e280-w6-unsat", sat.Unsat, func() *cnf.Formula {
			return XorSystem(300, 280, 6, true, rand.New(rand.NewSource(12)))
		}),
	}
}

// parityArms solve under the MiniSat profile with the packed parity kind
// (native) and with NativeXor and Gauss off (cut), so that every XOR pays
// the 2^(k-1) clausal expansion during the timed load and CDCL search
// over it.
var parityArms = []KernelArm{
	{Name: "native", Run: func(in any) sat.Status { return solve(in, sat.DefaultOptions(sat.ProfileMiniSat)) }},
	{Name: "cut", Run: func(in any) sat.Status {
		opts := sat.DefaultOptions(sat.ProfileMiniSat)
		opts.NativeXor = false
		opts.EnableGauss = false
		return solve(in, opts)
	}},
}
