package sat

import (
	"context"
	"sort"

	"repro/internal/cnf"
)

// luby returns the x-th element (0-based) of the Luby restart sequence
// 1,1,2,1,1,2,4,1,1,2,1,1,2,4,8,...
func luby(x uint64) uint64 {
	size, seq := uint64(1), 0
	for size < x+1 {
		seq++
		size = 2*size + 1
	}
	for size-1 != x {
		size = (size - 1) / 2
		seq--
		x %= size
	}
	return 1 << uint(seq)
}

// Solve runs the solver to completion (no conflict budget).
func (s *Solver) Solve() Status { return s.SolveLimited(-1) }

// SetInterrupt installs ctx as the solver's stop signal. Once ctx is
// cancelled or its deadline passes, the running solve and every later one
// return Unknown, and ProbeLiterals, ProbeScores and EnumerateModels
// return early. The solver polls ctx.Err every 256 conflicts, at each
// restart, every 64 probed variables and before each enumerated model; it
// never reads the clock itself. The context stays installed across
// solves, and nil removes it. Not safe to call concurrently with a
// running solve: install it before handing the solver to a worker.
func (s *Solver) SetInterrupt(ctx context.Context) {
	s.stopErr = nil
	if ctx != nil && ctx.Done() != nil {
		s.stopErr = ctx.Err
	}
}

// interrupted reports whether the installed context is done.
func (s *Solver) interrupted() bool { return s.stopErr != nil && s.stopErr() != nil }

// problemLoad is the problem size the learnt-clause cap scales with. A
// packed parity clause over w variables stands in for the 2^(w-1) CNF
// clauses of its clausal cut, so it must weigh as many — sizing the cap
// by record count alone starves an XOR-dominated instance (near-zero
// clauses → cap ≈ 100) into reduceDB thrashing that the cut baseline
// never hits. The per-row weight is capped so one hand-added long row
// cannot blow the cap up exponentially.
func (s *Solver) problemLoad() int {
	load := len(s.clauses)
	for _, cr := range s.parities {
		w := s.ca.size(cr) - 1
		if w > 6 {
			w = 6 // 64 clauses: the widest cut AddXor would actually emit in-range
		}
		load += 1 << uint(w)
	}
	return load
}

// SolveLimited runs CDCL search with a conflict budget; a negative budget
// means unlimited. This is the paper's §II-D conflict-bounded solving: the
// return is Unsat, Sat, or Unknown when the budget is exhausted.
func (s *Solver) SolveLimited(conflictBudget int64) Status {
	if !s.ok {
		return Unsat
	}
	s.model = nil
	s.cancelUntil(0)
	if conf := s.propagate(); conf != NullRef {
		s.releaseConflict(conf)
		s.ok = false
		s.logEmpty()
		return Unsat
	}
	if s.gauss != nil {
		if s.gauss.initialize() == lFalse {
			s.ok = false
			s.logEmpty()
			return Unsat
		}
		// Elimination may have produced unit rows; propagate them.
		if conf := s.propagate(); conf != NullRef {
			s.releaseConflict(conf)
			s.ok = false
			s.logEmpty()
			return Unsat
		}
	}

	var conflictsThisRun int64
	maxLearnts := float64(s.problemLoad())*s.opts.LearntsFraction + 100

	for restart := uint64(0); ; restart++ {
		budgetThisRestart := luby(restart) * uint64(s.opts.RestartBase)
		status, used := s.search(int64(budgetThisRestart), conflictBudget-conflictsThisRun)
		conflictsThisRun += used
		switch status {
		case Sat, Unsat:
			s.cancelUntil(0)
			return status
		}
		if conflictBudget >= 0 && conflictsThisRun >= conflictBudget {
			s.cancelUntil(0)
			return Unknown
		}
		if s.interrupted() {
			s.cancelUntil(0)
			return Unknown
		}
		s.Restarts++
		s.cancelUntil(0)
		// Restart boundaries are the only clause-import point: the search
		// loop between restarts never observes a database change it did not
		// cause itself.
		if s.exchange != nil {
			s.importShared()
			if !s.ok {
				return Unsat
			}
		}
		if float64(len(s.learnts)) > maxLearnts+float64(len(s.trail)) {
			s.reduceDB()
			maxLearnts *= 1.1
		}
		// Restart boundaries are arena-view-free, so they double as a GC
		// point: without this, Gauss reason temporaries accumulated during a
		// long conflict-free stretch would never be reclaimed (reduceDB only
		// triggers on learnt-clause growth).
		s.maybeGC()
	}
}

// search runs until a restart is due (restartBudget conflicts), the global
// budget is exhausted, or a verdict. Returns the status (Unknown for
// restart/budget) and the number of conflicts consumed.
func (s *Solver) search(restartBudget, globalBudget int64) (Status, int64) {
	var conflicts int64
	for {
		conf := s.propagate()
		if conf != NullRef {
			s.Conflicts++
			conflicts++
			if s.decisionLevel() == 0 {
				s.releaseConflict(conf)
				s.ok = false
				s.logEmpty()
				return Unsat, conflicts
			}
			learnt, btLevel := s.analyze(conf)
			s.releaseConflict(conf)
			s.cancelUntil(btLevel)
			s.recordLearnt(learnt)
			if !s.ok {
				return Unsat, conflicts
			}
			s.decayVar()
			s.decayClause()
			if conflicts >= restartBudget || (globalBudget >= 0 && conflicts >= globalBudget) {
				return Unknown, conflicts
			}
			if conflicts%256 == 0 && s.interrupted() {
				return Unknown, conflicts
			}
			continue
		}
		// No conflict: establish pending assumptions, then decide.
		next, ok := s.assumeNext()
		if !ok {
			return Unsat, conflicts
		}
		if next == litUndef {
			next = s.pickBranchLit()
		}
		if next == litUndef {
			// All variables assigned: model found.
			s.model = append([]lbool(nil), s.assigns...)
			return Sat, conflicts
		}
		s.Decisions++
		s.trailLim = append(s.trailLim, len(s.trail))
		if !s.enqueue(next, NullRef) {
			panic("sat: decision literal already assigned")
		}
	}
}

const litUndef = cnf.Lit(^uint32(0))

// pickBranchLit selects the next decision literal via VSIDS with saved
// phases, or litUndef if all variables are assigned.
//
//bosphorus:hotpath decision-heap pop on every decision
func (s *Solver) pickBranchLit() cnf.Lit {
	// Optional random decisions for diversification.
	if s.opts.RandomFreq > 0 && s.rng.Float64() < s.opts.RandomFreq && !s.order.empty() {
		v := s.order.heap[s.rng.Intn(len(s.order.heap))]
		if s.assigns[v] == lUndef {
			return cnf.MkLit(v, s.polarity[v] == 1)
		}
	}
	for !s.order.empty() {
		v := s.order.removeMax()
		if s.assigns[v] == lUndef {
			return cnf.MkLit(v, s.polarity[v] == 1)
		}
	}
	return litUndef
}

// reduceDB removes roughly half of the learnt clauses, keeping binary
// clauses, reasons of current assignments, and the most active or
// lowest-LBD clauses.
func (s *Solver) reduceDB() {
	s.ReducedDBs++
	// Stable sort on the same (LBD asc, activity desc) key as the seed
	// solver; stability plus identical keys means the kept half is the
	// exact set the pointer-based solver kept.
	sort.SliceStable(s.learnts, func(i, j int) bool {
		a, b := s.learnts[i], s.learnts[j]
		albd, blbd := s.ca.lbd(a), s.ca.lbd(b)
		if albd != blbd {
			return albd < blbd
		}
		return s.ca.activity(a) > s.ca.activity(b)
	})
	keep := s.learnts[:0]
	locked := func(cr ClauseRef) bool {
		first := s.ca.lits(cr)[0]
		return s.reason[first.Var()] == cr && s.valueLit(first) == lTrue
	}
	limit := len(s.learnts) / 2
	for i, c := range s.learnts {
		if s.ca.size(c) == 2 || locked(c) || i < limit {
			keep = append(keep, c)
			continue
		}
		s.detach(c)
		s.logDelete(s.ca.lits(c))
		s.ca.free(c)
	}
	s.learnts = keep
	s.maybeGC()
}

// Simplify removes satisfied problem clauses at level 0 and shrinks false
// literals out of the rest. Safe to call between solve runs.
func (s *Solver) Simplify() bool {
	if !s.ok {
		return false
	}
	if s.decisionLevel() != 0 {
		panic("sat: Simplify above level 0")
	}
	if conf := s.propagate(); conf != NullRef {
		s.releaseConflict(conf)
		s.ok = false
		s.logEmpty()
		return false
	}
	for _, list := range []*[]ClauseRef{&s.clauses, &s.learnts} {
		keep := (*list)[:0]
		for _, c := range *list {
			lits := s.ca.lits(c)
			sat := false
			for _, l := range lits {
				if s.valueLit(l) == lTrue {
					sat = true
					break
				}
			}
			if sat {
				s.detach(c)
				s.logDelete(lits)
				s.ca.free(c)
				continue
			}
			// Remove false literals beyond the watched pair (watched
			// literals of a non-satisfied clause cannot be false at level
			// 0 after propagation). The compaction happens in place in the
			// arena; shrink retires the dropped tail words.
			var old []cnf.Lit
			if s.proof != nil {
				old = append(old, lits...)
			}
			out := lits[:2]
			for _, l := range lits[2:] {
				if s.valueLit(l) != lFalse {
					out = append(out, l)
				}
			}
			s.ca.shrink(c, len(out))
			if len(old) > len(out) {
				// The shrunk clause is RUP (the dropped literals are false
				// at level 0); add it before retiring the original.
				s.logLearn(s.ca.lits(c))
				s.logDelete(old)
			}
			keep = append(keep, c)
		}
		*list = keep
	}
	s.maybeGC()
	return true
}
