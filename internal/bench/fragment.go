// Fragment-router benchmark family. Each job is a CNF residue that falls
// squarely inside one of the router's tractable fragments (pure 2SAT,
// pure Horn, pure XOR) or just outside all of them (the near-fragment
// control), measured two ways at the same fixed seeds:
//
//   - routed: route.Decide — one classification pass plus the fragment's
//     polynomial solver (SCC, counting unit propagation, or GF(2)
//     elimination), model-verified before the verdict is trusted; and
//   - cdcl: a full solver construction + load + search, the path the
//     engine would take with routing off.
//
// The family exists to keep the router honest: the routed column must
// stay an order of magnitude under the CDCL column on the pure
// fragments (the whole point of routing), and the near-fragment control
// bounds the classification overhead paid on residues that fall through.
package bench

import (
	"math/rand"

	"repro/internal/cnf"
	"repro/internal/route"
	"repro/internal/sat"
)

// Random2SAT builds a random formula of width-2 clauses over distinct
// variable pairs — the pure-binary fragment, solved by the router in
// O(n+m) via implication-graph SCCs.
func Random2SAT(nVars, nClauses int, rng *rand.Rand) *cnf.Formula {
	f := cnf.NewFormula(nVars)
	for i := 0; i < nClauses; i++ {
		a := rng.Intn(nVars)
		b := rng.Intn(nVars)
		for b == a {
			b = rng.Intn(nVars)
		}
		f.AddClause(
			cnf.MkLit(cnf.Var(a), rng.Intn(2) == 1),
			cnf.MkLit(cnf.Var(b), rng.Intn(2) == 1),
		)
	}
	return f
}

// Gadget2SAT builds k independent two-variable forcing gadgets
// (y ∨ a), (y ∨ ¬a): each y is forced true, but a false-polarity CDCL
// solver discovers that only through a decision → conflict → learn-unit
// cycle per gadget, paying full conflict-analysis overhead k times. The
// SCC router reads all k forcings off one linear pass, which is what
// makes this the family's order-of-magnitude 2SAT instance.
func Gadget2SAT(k int) *cnf.Formula {
	f := cnf.NewFormula(2 * k)
	for g := 0; g < k; g++ {
		y, a := cnf.Var(2*g), cnf.Var(2*g+1)
		f.AddClause(cnf.MkLit(y, false), cnf.MkLit(a, false))
		f.AddClause(cnf.MkLit(y, false), cnf.MkLit(a, true))
	}
	return f
}

// HornSparse builds a unit-free random Horn instance: nClauses ternary
// clauses ¬a ∨ ¬b ∨ c over distinct variables, nVars much larger than
// nClauses. Nothing propagates — the all-false default is already a
// model — but a complete solver still has to decide every one of the
// nVars variables through its activity heap before it may answer SAT,
// while the router verifies the default model in one pass over the
// clauses. The gap is the decision overhead, and it grows with nVars.
func HornSparse(nVars, nClauses int, rng *rand.Rand) *cnf.Formula {
	f := cnf.NewFormula(nVars)
	for i := 0; i < nClauses; i++ {
		a, b, c := rng.Intn(nVars), rng.Intn(nVars), rng.Intn(nVars)
		for b == a {
			b = rng.Intn(nVars)
		}
		for c == a || c == b {
			c = rng.Intn(nVars)
		}
		f.AddClause(
			cnf.MkLit(cnf.Var(a), true),
			cnf.MkLit(cnf.Var(b), true),
			cnf.MkLit(cnf.Var(c), false),
		)
	}
	return f
}

// XorSystem builds a native-XOR linear system (no CNF clauses at all,
// unlike satgen.ParityChain's clausal expansion): nEqs equations of the
// given width with right-hand sides planted from a hidden solution. With
// unsat=true the last equation is repeated with its RHS flipped, making
// the system inconsistent by exactly one row.
func XorSystem(nVars, nEqs, width int, unsat bool, rng *rand.Rand) *cnf.Formula {
	f := cnf.NewFormula(nVars)
	sol := make([]bool, nVars)
	for i := range sol {
		sol[i] = rng.Intn(2) == 1
	}
	var lastVars []cnf.Var
	lastRHS := false
	for e := 0; e < nEqs; e++ {
		seen := make(map[int]bool, width)
		vs := make([]cnf.Var, 0, width)
		for len(vs) < width {
			v := rng.Intn(nVars)
			if seen[v] {
				continue
			}
			seen[v] = true
			vs = append(vs, cnf.Var(v))
		}
		rhs := false
		for _, v := range vs {
			if sol[v] {
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

// FragmentJobs returns the full family at fixed seeds: one pure-fragment
// job per router (each chosen so the polynomial solve is an order of
// magnitude under the CDCL baseline — conflict-farm 2SAT, decision-bound
// sparse Horn, and a planted XOR system sized just under the solver's
// GJE work guard so both sides pay a full elimination) and the
// near-fragment control — a 2SAT instance salted with a handful of mixed
// ternary clauses, which must classify Mixed and fall through.
func FragmentJobs() []KernelJob {
	return []KernelJob{
		cnfJob("2sat-gadget-k1000", sat.Sat, func() *cnf.Formula { return Gadget2SAT(1000) }),
		cnfJob("horn-sparse-v500000-m50000", sat.Sat, func() *cnf.Formula {
			return HornSparse(500000, 50000, rand.New(rand.NewSource(7)))
		}),
		cnfJob("xor-planted-v2048-e1300-w16", sat.Sat, func() *cnf.Formula {
			return XorSystem(2048, 1300, 16, false, rand.New(rand.NewSource(82)))
		}),
		cnfJob("near2sat-v4000-m4000-salt8", sat.Sat, func() *cnf.Formula {
			rng := rand.New(rand.NewSource(83))
			f := Random2SAT(4000, 4000, rng)
			// Eight ternary clauses with two positive literals each:
			// not Horn, not anti-Horn, not binary — the residue is
			// within a hair of 2SAT yet must classify Mixed.
			for i := 0; i < 8; i++ {
				f.AddClause(
					cnf.MkLit(cnf.Var(rng.Intn(4000)), false),
					cnf.MkLit(cnf.Var(rng.Intn(4000)), false),
					cnf.MkLit(cnf.Var(rng.Intn(4000)), true),
				)
			}
			return f
		}),
	}
}

// fragmentArms are route.Decide — classification plus, when the residue
// is pure, the polynomial solve; on a mixed residue it declines, and the
// arm times the fall-through overhead alone — and a full CDCL solve under
// the CMS profile.
var fragmentArms = []KernelArm{
	{Name: "routed", Run: func(in any) sat.Status {
		if v, _, ok := route.Decide(in.(*cnf.Formula)); ok {
			return v.Status
		}
		return sat.Unknown
	}, Declines: true},
	{Name: "cdcl", Run: func(in any) sat.Status { return solve(in, sat.DefaultOptions(sat.ProfileCMS)) }},
}
