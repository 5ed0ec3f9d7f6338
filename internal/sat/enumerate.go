package sat

import "repro/internal/cnf"

// EnumerateModels returns up to max satisfying assignments (all of them
// when max ≤ 0), restricted to the first nVars variables: two models that
// agree on those variables count as one. Enumeration works by adding
// blocking clauses, so the solver is consumed — clone the formula into a
// fresh solver if it is still needed. Once the context installed with
// SetInterrupt is done, it returns the models found so far: a solve that
// finds a model without a conflict never polls it, so the loop does.
//
// This supports the paper's §V observation that Bosphorus "can
// continuously constrain the solution space without committing to one
// particular solution": enumerating the processed system's models over
// the original variables shows exactly how much the learnt facts have
// narrowed the space.
func (s *Solver) EnumerateModels(nVars int, max int) [][]bool {
	if nVars <= 0 || nVars > s.NumVars() {
		nVars = s.NumVars()
	}
	var out [][]bool
	for max <= 0 || len(out) < max {
		if s.interrupted() || s.Solve() != Sat {
			break
		}
		m := s.Model()
		model := make([]bool, nVars)
		copy(model, m[:nVars])
		out = append(out, model)
		// Block this projection: at least one of the first nVars must
		// differ.
		block := make([]cnf.Lit, nVars)
		for v := 0; v < nVars; v++ {
			block[v] = cnf.MkLit(cnf.Var(v), model[v])
		}
		if !s.AddClause(block...) {
			break
		}
		// Each solve leaves reduceDB/Simplify debris in the arena; long
		// enumerations are exactly the sessions whose watcher lists and
		// clause store would otherwise only grow.
		s.maybeGC()
	}
	return out
}

// CountModels returns the number of satisfying assignments projected onto
// the first nVars variables, up to the given cap (0 = unbounded). A
// return < cap is exact.
func (s *Solver) CountModels(nVars, cap int) int {
	return len(s.EnumerateModels(nVars, cap))
}
