package sat

import (
	"math/rand"

	"repro/internal/cnf"
)

type lbool int8

const (
	lUndef lbool = iota
	lTrue
	lFalse
)

func boolToLbool(b bool) lbool {
	if b {
		return lTrue
	}
	return lFalse
}

// watcher pairs a watching clause ref with a blocker literal: if the
// blocker is already true the clause cannot propagate and the watch list
// scan skips it without touching the arena.
type watcher struct {
	ref     ClauseRef
	blocker cnf.Lit
}

// Solver is a CDCL SAT solver. Create one with New, add clauses, then call
// Solve or SolveLimited.
type Solver struct {
	opts Options
	rng  *rand.Rand

	ca      clauseArena // flat clause store; see arena.go
	clauses []ClauseRef // problem clauses (len >= 2)
	learnts []ClauseRef

	watches [][]watcher // indexed by literal

	// Native parity clauses (see parity.go). xwatches is indexed by
	// variable — a parity watch fires on assignment, not falseness — and
	// stays nil until the first parity clause is attached, so purely
	// clausal formulas never pay for the table. parityBuf is the pooled
	// scratch parityLits materializes implied clauses into.
	parities  []ClauseRef
	xwatches  [][]watcher
	parityBuf []cnf.Lit

	assigns  []lbool     // per variable
	level    []int32     // decision level of assignment
	reason   []ClauseRef // implying clause, NullRef for decisions
	polarity []byte      // saved phase (1 = last value was true)
	trail    []cnf.Lit   // assignment stack
	trailLim []int       // decision-level boundaries in trail
	qhead    int         // propagation queue head

	activity []float64
	varInc   float64
	claInc   float64
	order    varHeap

	seen        []byte
	analyzeBuf  []cnf.Lit
	minimizeBuf []cnf.Lit // analyze's pre-minimization snapshot, reused per conflict
	lbdStamp    []int32   // computeLBD level marks (stamp == lbdGen means counted)
	lbdGen      int32
	addBuf      cnf.Clause // AddClause normalization scratch

	gauss *gauss // XOR propagator, nil unless enabled

	ok    bool // false once UNSAT is established at level 0
	model []lbool

	// Assumption solving (SolveAssuming).
	assumptions   []cnf.Lit
	failedAssumps []cnf.Lit

	// stopErr is the Err method of the context SetInterrupt installed, nil
	// when there is none or it can never be cancelled. Keeping the method
	// rather than the context means no Solver method looks to ctxpoll as
	// if it received a cancellation signal it must poll.
	stopErr func() error

	// Learnt-fact harvest for Bosphorus (§II-D): all unit facts forced at
	// level 0 and all learnt binary clauses, in learning order.
	learntBinaries []cnf.Clause

	// proof, when non-nil, receives every clause derivation as a DRAT
	// stream (see SetProof); loggedEmpty keeps the UNSAT terminator unique.
	proof       ProofWriter
	loggedEmpty bool

	// exchange, when non-nil, shares learnt clauses with concurrently
	// running solvers (see SetExchange): exports at learning time, imports
	// at restart boundaries only.
	exchange ClauseExchange

	// Statistics.
	Conflicts    uint64
	Decisions    uint64
	Propagations uint64
	Restarts     uint64
	ReducedDBs   uint64
	ArenaGCs     uint64
	WatchShrinks uint64
	// SharedExported / SharedImported count clause-exchange traffic (zero
	// without an exchange; see SetExchange's determinism contract).
	SharedExported uint64
	SharedImported uint64
}

// New returns a solver with the given options and no variables.
func New(opts Options) *Solver {
	s := &Solver{
		opts:   opts,
		rng:    rand.New(rand.NewSource(opts.RandomSeed)),
		varInc: 1,
		claInc: 1,
		ok:     true,
	}
	s.order.s = s
	if opts.EnableGauss {
		s.gauss = newGauss(s)
	}
	return s
}

// NewDefault returns a MiniSat-profile solver.
func NewDefault() *Solver { return New(DefaultOptions(ProfileMiniSat)) }

// NumVars returns the number of variables.
func (s *Solver) NumVars() int { return len(s.assigns) }

// NewVar allocates a fresh variable and returns it.
func (s *Solver) NewVar() cnf.Var {
	v := cnf.Var(len(s.assigns))
	s.assigns = append(s.assigns, lUndef)
	s.level = append(s.level, 0)
	s.reason = append(s.reason, NullRef)
	s.polarity = append(s.polarity, 1) // default to false (MiniSat habit)
	s.activity = append(s.activity, 0)
	s.seen = append(s.seen, 0)
	s.watches = append(s.watches, nil, nil)
	if s.xwatches != nil {
		s.xwatches = append(s.xwatches, nil)
	}
	s.order.insert(v)
	return v
}

// ensureVars grows the variable table to cover n variables.
func (s *Solver) ensureVars(n int) {
	for len(s.assigns) < n {
		s.NewVar()
	}
}

// reserveVars pre-grows every per-variable table to capacity n in a single
// reallocation each, then allocates the variables. Loading a large formula
// through the incremental NewVar path costs a doubling-growth series per
// table; the bulk reserve collapses that to one allocation per table.
func (s *Solver) reserveVars(n int) {
	if n > cap(s.assigns) {
		s.assigns = append(make([]lbool, 0, n), s.assigns...)
		s.level = append(make([]int32, 0, n), s.level...)
		s.reason = append(make([]ClauseRef, 0, n), s.reason...)
		s.polarity = append(make([]byte, 0, n), s.polarity...)
		s.activity = append(make([]float64, 0, n), s.activity...)
		s.seen = append(make([]byte, 0, n), s.seen...)
		s.watches = append(make([][]watcher, 0, 2*n), s.watches...)
		if s.xwatches != nil {
			s.xwatches = append(make([][]watcher, 0, n), s.xwatches...)
		}
		s.trail = append(make([]cnf.Lit, 0, n), s.trail...)
		s.order.heap = append(make([]cnf.Var, 0, n), s.order.heap...)
		s.order.index = append(make([]int, 0, n), s.order.index...)
	}
	s.ensureVars(n)
}

func (s *Solver) valueVar(v cnf.Var) lbool { return s.assigns[v] }

func (s *Solver) valueLit(l cnf.Lit) lbool {
	a := s.assigns[l.Var()]
	if a == lUndef {
		return lUndef
	}
	if l.Neg() {
		if a == lTrue {
			return lFalse
		}
		return lTrue
	}
	return a
}

func (s *Solver) decisionLevel() int { return len(s.trailLim) }

// AddClause adds a problem clause at decision level 0. It returns false if
// the clause (together with earlier ones) makes the formula trivially
// unsatisfiable.
func (s *Solver) AddClause(lits ...cnf.Lit) bool {
	if !s.ok {
		return false
	}
	if s.decisionLevel() != 0 {
		panic("sat: AddClause above decision level 0")
	}
	// Normalize in a reused scratch buffer; every consumer below (arena
	// alloc, proof log, unit enqueue) copies what it keeps, so nothing
	// retains the scratch across calls.
	s.addBuf = append(s.addBuf[:0], lits...)
	c := s.addBuf
	for _, l := range c {
		s.ensureVars(int(l.Var()) + 1)
	}
	c, taut := c.Normalize()
	if taut {
		return true
	}
	// Drop false literals; detect satisfied clauses.
	out := c[:0]
	for _, l := range c {
		switch s.valueLit(l) {
		case lTrue:
			return true
		case lFalse:
			// skip
		default:
			out = append(out, l)
		}
	}
	c = out
	switch len(c) {
	case 0:
		s.ok = false
		s.logEmpty()
		return false
	case 1:
		if !s.enqueue(c[0], NullRef) {
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
		return true
	}
	cr := s.ca.alloc(c, false, false)
	s.clauses = append(s.clauses, cr)
	s.attach(cr)
	return true
}

// AddXor adds an XOR constraint. With Options.NativeXor (the default) it
// becomes a native parity clause in the arena — rows longer than
// DefaultNativeXorMaxLen still go to the Gauss side-car when that is
// enabled.
// With NativeXor off the pre-PR-10 routing applies: the Gauss component
// (CMS profile), else the 2^(k-1) clausal cut.
func (s *Solver) AddXor(rhs bool, vars ...cnf.Var) bool {
	if !s.ok {
		return false
	}
	for _, v := range vars {
		s.ensureVars(int(v) + 1)
	}
	if s.opts.NativeXor {
		return s.addXorNative(rhs, vars)
	}
	if s.gauss != nil {
		return s.gauss.addRow(vars, rhs)
	}
	return s.addXorClausal(rhs, vars)
}

// addXorClausal encodes v1 ⊕ ... ⊕ vk = rhs as 2^(k-1) clauses. The
// clauses are entailed by the XOR row, not by the formula's clauses, so
// each enters the proof as a justification.
func (s *Solver) addXorClausal(rhs bool, vars []cnf.Var) bool {
	return cnf.XorCut(rhs, vars, func(lits cnf.Clause) bool {
		if len(lits) == 0 {
			// 0 = 1: justified by the (inconsistent) input XOR rows.
			s.ok = false
			s.logJustify(nil)
			return false
		}
		s.logJustify(lits)
		return s.AddClause(lits...)
	})
}

// AddFormula loads a cnf.Formula. Returns false if trivially UNSAT.
func (s *Solver) AddFormula(f *cnf.Formula) bool {
	s.reserveVars(f.NumVars)
	s.reserveWatches(f)
	for _, c := range f.Clauses {
		if !s.AddClause(c...) {
			return false
		}
	}
	for _, x := range f.Xors {
		if !s.AddXor(x.RHS, x.Vars...) {
			return false
		}
	}
	return true
}

// reserveWatches carves initial watch-list capacity for a formula out of
// one flat backing array. Each clause of length ≥ 2 installs two watchers;
// counting every literal's negation over-provisions (attach watches only
// the first two literals after normalization) but turns the tens of
// thousands of first-append list allocations of a bulk load into a single
// one. Lists that outgrow their carve, and literals watched before this
// call, fall back to ordinary slice growth.
func (s *Solver) reserveWatches(f *cnf.Formula) {
	counts := make([]int32, len(s.watches))
	total := 0
	for _, c := range f.Clauses {
		if len(c) < 2 {
			continue
		}
		for _, l := range c {
			if n := l.Not(); int(n) < len(counts) {
				counts[n]++
				total++
			}
		}
	}
	if total == 0 {
		return
	}
	backing := make([]watcher, total)
	off := 0
	for l, cnt := range counts {
		if cnt == 0 || len(s.watches[l]) > 0 {
			off += int(cnt)
			continue
		}
		s.watches[l] = backing[off : off : off+int(cnt)]
		off += int(cnt)
	}
}

func (s *Solver) attach(cr ClauseRef) {
	// Watch the negations: when lits[0] or lits[1] becomes false we must
	// visit the clause.
	lits := s.ca.lits(cr)
	s.watches[lits[0].Not()] = append(s.watches[lits[0].Not()], watcher{cr, lits[1]})
	s.watches[lits[1].Not()] = append(s.watches[lits[1].Not()], watcher{cr, lits[0]})
}

func (s *Solver) detach(cr ClauseRef) {
	lits := s.ca.lits(cr)
	s.removeWatch(lits[0].Not(), cr)
	s.removeWatch(lits[1].Not(), cr)
}

func (s *Solver) removeWatch(l cnf.Lit, cr ClauseRef) {
	ws := s.watches[l]
	for i := range ws {
		if ws[i].ref == cr {
			ws[i] = ws[len(ws)-1]
			s.watches[l] = ws[:len(ws)-1]
			return
		}
	}
}

// enqueue assigns literal l with the given reason. Returns false on an
// immediate conflict with the current assignment.
//
//bosphorus:hotpath trail push on every implied literal
func (s *Solver) enqueue(l cnf.Lit, from ClauseRef) bool {
	switch s.valueLit(l) {
	case lTrue:
		return true
	case lFalse:
		return false
	}
	v := l.Var()
	s.assigns[v] = boolToLbool(!l.Neg())
	s.level[v] = int32(s.decisionLevel())
	s.reason[v] = from
	s.trail = append(s.trail, l)
	return true
}

// cancelUntil backtracks to the given decision level.
//
//bosphorus:hotpath backtracking unwind of the trail
func (s *Solver) cancelUntil(level int) {
	if s.decisionLevel() <= level {
		return
	}
	bound := s.trailLim[level]
	for i := len(s.trail) - 1; i >= bound; i-- {
		l := s.trail[i]
		v := l.Var()
		if s.gauss != nil && i < s.gauss.pos {
			s.gauss.unassign(l)
		}
		if s.opts.PhaseSaving {
			if s.assigns[v] == lTrue {
				s.polarity[v] = 0
			} else {
				s.polarity[v] = 1
			}
		}
		s.assigns[v] = lUndef
		// Gauss reasons are temporaries materialized in the arena; the
		// unassignment is the last point they are reachable, so free them
		// here (a regular clause ref passes the temp check and survives).
		if r := s.reason[v]; r != NullRef && s.ca.temp(r) && !s.ca.dead(r) {
			s.ca.free(r)
		}
		s.reason[v] = NullRef
		s.order.insert(v)
	}
	s.trail = s.trail[:bound]
	s.trailLim = s.trailLim[:level]
	if s.qhead > bound {
		s.qhead = bound
	}
	if s.gauss != nil && s.gauss.pos > bound {
		s.gauss.pos = bound
	}
}

// Value returns the model value of variable v after a Sat result. It
// panics if no model is available.
func (s *Solver) Value(v cnf.Var) bool {
	if s.model == nil {
		panic("sat: Value called without a model")
	}
	return s.model[v] == lTrue
}

// Model returns the satisfying assignment as a bool slice, or nil if the
// last solve did not end in Sat.
func (s *Solver) Model() []bool {
	if s.model == nil {
		return nil
	}
	out := make([]bool, len(s.model))
	for i, a := range s.model {
		out[i] = a == lTrue
	}
	return out
}

// Okay reports whether the solver is still consistent (no UNSAT proven at
// level 0).
func (s *Solver) Okay() bool { return s.ok }

// LearntUnits returns every literal fixed at decision level 0 — the value
// facts Bosphorus harvests (§II-D). Includes units from problem clauses.
func (s *Solver) LearntUnits() []cnf.Lit {
	end := len(s.trail)
	if s.decisionLevel() > 0 {
		end = s.trailLim[0]
	}
	return append([]cnf.Lit(nil), s.trail[:end]...)
}

// LearntBinaries returns the learnt clauses of length 2 in learning order —
// the equivalence-candidate facts Bosphorus harvests (§II-D).
func (s *Solver) LearntBinaries() []cnf.Clause {
	return s.learntBinaries
}

func (s *Solver) bumpVar(v cnf.Var) {
	s.activity[v] += s.varInc
	if s.activity[v] > 1e100 {
		for i := range s.activity {
			s.activity[i] *= 1e-100
		}
		s.varInc *= 1e-100
	}
	s.order.update(v)
}

func (s *Solver) decayVar() { s.varInc /= s.opts.VarDecay }

func (s *Solver) bumpClause(cr ClauseRef) {
	act := s.ca.activity(cr) + s.claInc
	s.ca.setActivity(cr, act)
	if act > 1e20 {
		for _, lc := range s.learnts {
			s.ca.setActivity(lc, s.ca.activity(lc)*1e-20)
		}
		s.claInc *= 1e-20
	}
}

func (s *Solver) decayClause() { s.claInc /= s.opts.ClauseDecay }
