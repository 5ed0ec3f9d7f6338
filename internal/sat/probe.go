package sat

import "repro/internal/cnf"

// ProbeResult is the outcome of failed-literal probing.
type ProbeResult struct {
	// Units are the literals proven at level 0 by the probe (failed
	// literals' negations and necessary assignments).
	Units []cnf.Lit
	// Equivalences are pairs (a, b) with a ≡ b proven by bidirectional
	// implication.
	Equivalences [][2]cnf.Lit
	// Unsat is true when probing refuted the formula outright.
	Unsat bool
	// Probed counts the variables examined.
	Probed int
}

// ProbeLiterals performs failed-literal probing — the lookahead-style
// technique the paper's §V discussion names as a pluggable component. For
// each unassigned variable v (up to maxVars, 0 = all): assume v, propagate,
// record the implied literals; assume ¬v likewise. A conflicted branch
// fixes the opposite literal at level 0; literals implied by both branches
// are necessary assignments; x implied by v together with ¬x implied by ¬v
// proves v ≡ x.
//
// The solver is left at level 0 with all derived units applied (they show
// up in LearntUnits, so the Bosphorus harvest path picks them up).
func (s *Solver) ProbeLiterals(maxVars int) *ProbeResult {
	res := &ProbeResult{}
	if !s.ok {
		res.Unsat = true
		return res
	}
	if s.decisionLevel() != 0 {
		panic("sat: ProbeLiterals above level 0")
	}
	if conf := s.propagate(); conf != NullRef {
		s.releaseConflict(conf)
		s.ok = false
		s.logEmpty()
		res.Unsat = true
		return res
	}
	if s.gauss != nil {
		if s.gauss.initialize() == lFalse {
			s.ok = false
			s.logEmpty()
			res.Unsat = true
			return res
		}
		if conf := s.propagate(); conf != NullRef {
			s.releaseConflict(conf)
			s.ok = false
			s.logEmpty()
			res.Unsat = true
			return res
		}
	}
	// assertUnit fixes l at level 0. bridge, when not litUndef, is the
	// probed literal that implied l in both branches: the unit [l] alone is
	// not RUP then, but the two implication bridges (¬bridge ∨ l) and
	// (bridge ∨ l) are — each probe branch propagated to l — and together
	// they make [l] RUP. The bridges go only into the proof stream, never
	// into the clause database.
	assertUnit := func(l cnf.Lit, bridge cnf.Lit) bool {
		if s.valueLit(l) == lTrue {
			return true
		}
		if s.proof != nil {
			if bridge != litUndef {
				s.logLearn([]cnf.Lit{bridge.Not(), l})
				s.logLearn([]cnf.Lit{bridge, l})
			}
			s.logLearn([]cnf.Lit{l})
		}
		if !s.enqueue(l, NullRef) {
			s.ok = false
			s.logEmpty()
			return false
		}
		if conf := s.propagate(); conf != NullRef {
			s.releaseConflict(conf)
			s.ok = false
			s.logEmpty()
			return false
		}
		res.Units = append(res.Units, l)
		return true
	}
	for v := 0; v < s.NumVars(); v++ {
		if maxVars > 0 && res.Probed >= maxVars {
			break
		}
		// Probing runs one propagation pair per variable, which adds up on
		// service-sized formulas; honour interruption between variables so a
		// cancelled job does not hold its worker through the whole sweep.
		if res.Probed%64 == 0 && s.interrupted() {
			break
		}
		if s.assigns[v] != lUndef {
			continue
		}
		res.Probed++
		pos, posOK := s.probeBranch(cnf.MkLit(cnf.Var(v), false))
		if !posOK {
			if !assertUnit(cnf.MkLit(cnf.Var(v), true), litUndef) {
				res.Unsat = true
				return res
			}
			continue
		}
		neg, negOK := s.probeBranch(cnf.MkLit(cnf.Var(v), true))
		if !negOK {
			if !assertUnit(cnf.MkLit(cnf.Var(v), false), litUndef) {
				res.Unsat = true
				return res
			}
			continue
		}
		// Both branches survived: intersect.
		inPos := map[cnf.Lit]bool{}
		for _, l := range pos {
			inPos[l] = true
		}
		for _, l := range neg {
			if l.Var() == cnf.Var(v) {
				continue
			}
			if inPos[l] {
				// Necessary assignment.
				if !assertUnit(l, cnf.MkLit(cnf.Var(v), false)) {
					res.Unsat = true
					return res
				}
			} else if inPos[l.Not()] {
				// v → ¬l and ¬v → l: the literal tracks ¬v.
				res.Equivalences = append(res.Equivalences,
					[2]cnf.Lit{cnf.MkLit(cnf.Var(v), false), l.Not()})
			}
		}
	}
	return res
}

// probeBranch assumes l at a fresh decision level, propagates, collects
// the implications, and backtracks. ok is false when the branch
// conflicts.
func (s *Solver) probeBranch(l cnf.Lit) (implied []cnf.Lit, ok bool) {
	base := len(s.trail)
	s.trailLim = append(s.trailLim, base)
	if !s.enqueue(l, NullRef) {
		s.cancelUntil(s.decisionLevel() - 1)
		return nil, false
	}
	conf := s.propagate()
	s.releaseConflict(conf)
	if conf == NullRef {
		implied = append(implied, s.trail[base:]...)
	}
	s.cancelUntil(s.decisionLevel() - 1)
	return implied, conf == NullRef
}
