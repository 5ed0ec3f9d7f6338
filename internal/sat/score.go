package sat

import "repro/internal/cnf"

// ProbeScore is the lookahead score of one variable: the unit-propagation
// fanout of each phase, plus whether either phase fails outright. It is
// the raw material of cube-and-conquer split selection (internal/cube)
// and of any other lookahead-style heuristic.
type ProbeScore struct {
	Var cnf.Var
	// PosImplied / NegImplied count the literals forced by assuming the
	// positive / negative phase (the probed literal itself excluded).
	PosImplied int
	NegImplied int
	// PosFailed / NegFailed report that the phase conflicts under unit
	// propagation, i.e. the opposite literal is entailed at this level.
	PosFailed bool
	NegFailed bool
}

// Score is the standard lookahead mixing function: the product of the two
// phase fanouts dominates (rewarding variables that split the search
// space evenly) with the sum as a tie-break. Failed phases score highest:
// probing them is free progress.
func (p ProbeScore) Score() int64 {
	if p.PosFailed || p.NegFailed {
		return 1 << 62
	}
	return int64(p.PosImplied)*int64(p.NegImplied)*1024 +
		int64(p.PosImplied) + int64(p.NegImplied)
}

// ProbeScoresUnder asserts the prefix literals as throwaway decisions,
// propagates each, and — when no conflict arises — scores up to maxVars of
// the remaining unassigned variables with ProbeScores. refuted reports
// that the prefix is inconsistent with the formula under unit propagation
// alone (the cube splitter's refutation-aware cutoff: such a prefix needs
// no worker, and its negation is RUP against the input clauses). The
// solver is returned to decision level 0 in either case and nothing is
// learnt or logged. Must be called at decision level 0.
func (s *Solver) ProbeScoresUnder(prefix []cnf.Lit, maxVars int) (scores []ProbeScore, refuted bool) {
	if !s.ok {
		return nil, true
	}
	if s.decisionLevel() != 0 {
		panic("sat: ProbeScoresUnder above level 0")
	}
	if conf := s.propagate(); conf != NullRef {
		s.releaseConflict(conf)
		s.ok = false
		s.logEmpty()
		return nil, true
	}
	for _, l := range prefix {
		s.ensureVars(int(l.Var()) + 1)
		if s.valueLit(l) == lTrue {
			continue
		}
		s.trailLim = append(s.trailLim, len(s.trail))
		if !s.enqueue(l, NullRef) {
			s.cancelUntil(0)
			return nil, true
		}
		if conf := s.propagate(); conf != NullRef {
			s.releaseConflict(conf)
			s.cancelUntil(0)
			return nil, true
		}
	}
	scores = s.ProbeScores(maxVars)
	s.cancelUntil(0)
	return scores, false
}

// ProbeScores measures the propagation fanout of both phases of up to
// maxVars unassigned variables (0 = all), in ascending variable order.
//
// Unlike ProbeLiterals it is purely observational: failed phases are
// reported, not asserted, and the assignment stack is exactly as before
// the call. It may be called above decision level 0 — the cube splitter
// assumes a prefix and scores the remaining variables — as long as
// propagation is already at a fixed point (callers that just assumed a
// literal must propagate, and handle the conflict, before scoring).
//
// The scores are a pure function of the clause database and the current
// assignment: two solvers built from the same formula with the same
// options and seed report bit-identical scores.
func (s *Solver) ProbeScores(maxVars int) []ProbeScore {
	var out []ProbeScore
	if !s.ok {
		return out
	}
	for v := 0; v < s.NumVars(); v++ {
		if maxVars > 0 && len(out) >= maxVars {
			break
		}
		if len(out)%64 == 63 && s.interrupted() {
			break
		}
		if s.assigns[v] != lUndef {
			continue
		}
		pos, posOK := s.probeBranch(cnf.MkLit(cnf.Var(v), false))
		neg, negOK := s.probeBranch(cnf.MkLit(cnf.Var(v), true))
		sc := ProbeScore{Var: cnf.Var(v), PosFailed: !posOK, NegFailed: !negOK}
		if posOK {
			sc.PosImplied = len(pos) - 1
		}
		if negOK {
			sc.NegImplied = len(neg) - 1
		}
		out = append(out, sc)
	}
	return out
}
