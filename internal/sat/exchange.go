package sat

import "repro/internal/cnf"

// ClauseExchange is the structural clause-sharing hook for
// cube-and-conquer solving. Like ProofWriter it is deliberately small and
// declared here so the solver does not import the implementation
// (internal/share provides the lock-free ring buffer that satisfies it).
//
// Export offers a freshly learnt clause; the exchange decides (LBD cap,
// ring capacity) whether to take it and reports the decision. The lits
// slice may be a view into the solver's arena — implementations must copy
// before returning. Drain delivers foreign clauses to recv; the slice
// passed to recv is only valid for the duration of the call.
type ClauseExchange interface {
	Export(lits []cnf.Lit, lbd int) bool
	Drain(recv func(lits []cnf.Lit))
}

// SetExchange installs (or, with nil, removes) a clause exchange. Learnt
// clauses are offered at learning time; foreign clauses are injected at
// restart boundaries only, so the CDCL inner loop never observes a
// mid-search database change.
//
// Determinism contract: with no exchange installed (the single-worker
// mode), runs are bit-reproducible from Options.RandomSeed. With an
// exchange, imported clauses change propagation order, so the search
// counters (Conflicts, Decisions, Propagations, Restarts, ReducedDBs) and
// the learnt-fact harvest may vary between runs; Stats.SharedImported /
// SharedExported report the exchange traffic that explains the variance.
func (s *Solver) SetExchange(x ClauseExchange) { s.exchange = x }

// exportLearnt offers a just-learnt clause to the exchange.
func (s *Solver) exportLearnt(lits []cnf.Lit, lbd int) {
	if s.exchange == nil {
		return
	}
	if s.exchange.Export(lits, lbd) {
		s.SharedExported++
	}
}

// importShared drains the exchange at a restart boundary (decision level
// 0) and injects the usable clauses as learnt clauses. When a proof
// writer is installed, only clauses that pass a reverse-unit-propagation
// check against the solver's own database are accepted, so every logged
// addition keeps the segment independently DRAT-checkable (an imported
// clause is RUP for its exporter, not automatically for us).
func (s *Solver) importShared() {
	if s.exchange == nil || !s.ok {
		return
	}
	s.exchange.Drain(func(lits []cnf.Lit) {
		if !s.ok {
			return
		}
		s.importClause(lits)
	})
}

func (s *Solver) importClause(lits []cnf.Lit) {
	c := append(cnf.Clause{}, lits...)
	c, taut := c.Normalize()
	if taut {
		return
	}
	for _, l := range c {
		if int(l.Var()) >= s.NumVars() {
			return
		}
	}
	// Level-0 simplification: satisfied clauses carry no information,
	// false literals are dropped (sound: the shortened clause is implied
	// by the original together with the level-0 units).
	out := c[:0]
	for _, l := range c {
		switch s.valueLit(l) {
		case lTrue:
			return
		case lFalse:
			// drop
		default:
			out = append(out, l)
		}
	}
	c = out
	if s.proof != nil && (len(c) == 0 || !s.importRUP(c)) {
		// Not locally re-derivable by unit propagation: logging it would
		// break the proof segment's RUP property, so skip it.
		return
	}
	switch len(c) {
	case 0:
		// Falsified at level 0: the exporter's clause refutes the formula
		// (imported clauses are implied by the shared input).
		s.ok = false
		s.logEmpty()
	case 1:
		s.logLearn(c)
		if !s.enqueue(c[0], NullRef) {
			s.ok = false
			s.logEmpty()
			return
		}
		if conf := s.propagate(); conf != NullRef {
			s.releaseConflict(conf)
			s.ok = false
			s.logEmpty()
			return
		}
	default:
		s.logLearn(c)
		cr := s.ca.alloc(c, true, false)
		// All literals are unassigned at level 0, so the usual LBD (count
		// of distinct trail levels) is meaningless here; the clause width
		// is the standard conservative stand-in.
		s.ca.setLBD(cr, len(c))
		s.learnts = append(s.learnts, cr)
		s.attach(cr)
	}
	s.SharedImported++
}

// importRUP reports whether clause c has the reverse-unit-propagation
// property against the current database: asserting the negation of every
// literal at a throwaway decision level propagates to a conflict. Must be
// called at decision level 0 with propagation at a fixed point; the
// probe level is backtracked before returning.
func (s *Solver) importRUP(c []cnf.Lit) bool {
	s.trailLim = append(s.trailLim, len(s.trail))
	conflict := false
	for _, l := range c {
		if !s.enqueue(l.Not(), NullRef) {
			conflict = true
			break
		}
	}
	if !conflict {
		conf := s.propagate()
		s.releaseConflict(conf)
		conflict = conf != NullRef
	}
	s.cancelUntil(0)
	return conflict
}
