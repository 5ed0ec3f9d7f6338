package sat

import (
	"sort"

	"repro/internal/cnf"
)

// Native parity clauses (XNF-style): an XOR constraint stored as a single
// arena record instead of the 2^(k-1) clausal cut or a Gauss side-car row.
// The record's literal words carry the RHS folded into the signs — the
// invariant is "an odd number of the stored literals are true" (see the
// layout comment in arena.go). Two literals are watched, but unlike
// ordinary clauses the watch lists (xwatches) are indexed by *variable*
// and a watch fires when its variable becomes assigned — either polarity
// changes the parity bookkeeping, so falseness is the wrong trigger.
//
// The scan mirrors propagateLit: in-place write-cursor compaction, the
// assigned watch normalized into lits[1], replacement search over
// lits[2:]. When no unassigned replacement exists the clause is unit
// (lits[0] unassigned — force it to the parity-satisfying phase, reason =
// the parity ref itself, no arena temp) or fully assigned (evaluate the
// parity: satisfied or conflict). Conflict analysis never sees parity
// literal words directly: clauseLits materializes, on demand and into a
// pooled buffer, the ordinary clause the parity record implies under the
// current assignment — exactly the clause the Gauss component would have
// written to the arena as a temp, minus the allocation.
//
// Propagation completeness: a watch only moves from a just-assigned
// variable to an unassigned one, and backtracking only unassigns, so
// whenever the clause still has an unassigned variable at least one watch
// sits on one (or the assignment that broke that is still queued). The
// last variable of the clause to be assigned is therefore always watched
// at that moment, and its scan performs the full parity evaluation — a
// total assignment can never silently violate a parity clause.

// addXorNative routes an XOR constraint into the native parity kind:
// pair-cancel duplicates, handle the degenerate 0/1-unassigned cases at
// level 0, hand rows longer than DefaultNativeXorMaxLen to the Gauss
// side-car when it is enabled (long rows profit from inter-reduction,
// short rows are cheaper in-watch), and otherwise store a watched parity
// clause.
func (s *Solver) addXorNative(rhs bool, vars []cnf.Var) bool {
	if s.decisionLevel() != 0 {
		panic("sat: AddXor above decision level 0")
	}
	// Deduplicate pairs: x ⊕ x = 0.
	counts := map[cnf.Var]int{}
	for _, v := range vars {
		counts[v]++
	}
	vs := make([]cnf.Var, 0, len(vars))
	for _, v := range vars {
		if counts[v]%2 == 1 {
			vs = append(vs, v)
			counts[v] = 0
		}
	}
	sort.Slice(vs, func(i, j int) bool { return vs[i] < vs[j] })
	if len(vs) == 0 {
		if rhs {
			s.ok = false
			// 0 = 1: justified by the (inconsistent) input XOR rows.
			s.logJustify(nil)
			return false
		}
		return true
	}
	if s.gauss != nil && len(vs) > DefaultNativeXorMaxLen {
		return s.gauss.addRow(vs, rhs)
	}
	// Encode the RHS into the literal signs: rhs=1 is all-positive, rhs=0
	// negates the first literal (either way: odd-many-true ⇔ row holds).
	lits := make([]cnf.Lit, len(vs))
	for i, v := range vs {
		lits[i] = cnf.MkLit(v, false)
	}
	if !rhs {
		lits[0] = lits[0].Not()
	}
	// Level-0 assignments are permanent, but the assigned variables must
	// NOT be folded out of the stored clause: proof justifications are
	// checked against the GF(2) row space of the *input* XOR rows, and a
	// folded row (input row ⊕ clause-derived units) is not in that space.
	// Keep the full variable set; attachParity watches unassigned slots.
	unassigned, nTrue := 0, 0
	for _, l := range lits {
		switch s.valueLit(l) {
		case lUndef:
			unassigned++
		case lTrue:
			nTrue++
		}
	}
	switch unassigned {
	case 0:
		if nTrue&1 == 1 {
			return true // satisfied at level 0, forever: nothing to store
		}
		s.logJustify(s.parityFalsified(lits))
		s.ok = false
		s.logEmpty()
		return false
	case 1:
		// Unit under the level-0 assignment: force the remaining variable,
		// logging the full implied clause (forced literal plus the false
		// literals of the assigned variables) so the unit stays checkable
		// against the XOR row space.
		var forced cnf.Lit
		for _, l := range lits {
			if s.valueLit(l) == lUndef {
				forced = l
				if nTrue&1 == 1 {
					forced = forced.Not()
				}
				break
			}
		}
		buf := s.parityBuf[:0]
		buf = append(buf, forced)
		for _, l := range lits {
			if l.Var() == forced.Var() {
				continue
			}
			buf = append(buf, cnf.MkLit(l.Var(), s.assigns[l.Var()] == lTrue))
		}
		s.parityBuf = buf
		s.logJustify(buf)
		if !s.enqueue(forced, NullRef) {
			panic("sat: parity unit on undefined literal not enqueueable")
		}
		if conf := s.propagate(); conf != NullRef {
			s.releaseConflict(conf)
			s.ok = false
			s.logEmpty()
			return false
		}
		return true
	}
	cr := s.ca.allocParity(lits)
	s.parities = append(s.parities, cr)
	s.attachParity(cr)
	return true
}

// parityFalsified materializes, into the pooled buffer, the clause
// forbidding the current (violating) total assignment of the parity
// clause's variables: every literal false right now.
func (s *Solver) parityFalsified(lits []cnf.Lit) []cnf.Lit {
	buf := s.parityBuf[:0]
	for _, l := range lits {
		buf = append(buf, cnf.MkLit(l.Var(), s.assigns[l.Var()] == lTrue))
	}
	s.parityBuf = buf
	return buf
}

// attachParity installs the two variable-indexed watches, moving two
// unassigned literals into slots 0 and 1 first (callers guarantee at
// least two exist). The blocker slot carries the other watched literal;
// parity scans never consult it (no single literal satisfies a parity).
func (s *Solver) attachParity(cr ClauseRef) {
	if s.xwatches == nil {
		// Lazily sized: formulas without parity clauses never pay for the
		// table (the chain-20000 alloc baseline stays intact).
		s.xwatches = make([][]watcher, len(s.assigns))
	}
	lits := s.ca.lits(cr)
	w := 0
	for i := 0; i < len(lits) && w < 2; i++ {
		if s.assigns[lits[i].Var()] == lUndef {
			lits[w], lits[i] = lits[i], lits[w]
			w++
		}
	}
	s.xwatches[lits[0].Var()] = append(s.xwatches[lits[0].Var()], watcher{cr, lits[1]})
	s.xwatches[lits[1].Var()] = append(s.xwatches[lits[1].Var()], watcher{cr, lits[0]})
}

// propagateParity scans the parity watches of p's variable after p was
// assigned. Same in-place compaction contract as propagateLit: kept
// watchers slide left over moved ones, a conflict slides the unvisited
// tail up and fast-forwards qhead.
//
//bosphorus:hotpath parity watcher scan with in-place compaction
func (s *Solver) propagateParity(p cnf.Lit) ClauseRef {
	pv := p.Var()
	ws := s.xwatches[pv]
	wj := 0
	for wi := 0; wi < len(ws); wi++ {
		w := ws[wi]
		cr := w.ref
		lits := s.ca.lits(cr)
		// Normalize so the just-assigned watched variable is lits[1].
		if lits[0].Var() == pv {
			lits[0], lits[1] = lits[1], lits[0]
		}
		// Look for an unassigned literal to watch instead.
		found := false
		for k := 2; k < len(lits); k++ {
			if s.assigns[lits[k].Var()] == lUndef {
				lits[1], lits[k] = lits[k], lits[1]
				s.xwatches[lits[1].Var()] = append(s.xwatches[lits[1].Var()], watcher{cr, lits[0]})
				found = true
				break
			}
		}
		if found {
			continue // watcher moved; do not keep
		}
		// Everything but (possibly) lits[0] is assigned: count the true
		// literals among lits[1:].
		n := 0
		for k := 1; k < len(lits); k++ {
			if s.valueLit(lits[k]) == lTrue {
				n++
			}
		}
		first := lits[0]
		if s.assigns[first.Var()] == lUndef {
			// Unit: force lits[0] to whatever phase makes the count odd.
			forced := first
			if n&1 == 1 {
				forced = forced.Not()
			}
			if s.proof != nil {
				//lint:ignore hotpath proof materialization dispatches through the writer interface; nil-guarded off the alloc-free benchmark path
				s.justifyParityStep(cr, forced, true)
			}
			ws[wj] = watcher{cr, forced}
			wj++
			if !s.enqueue(forced, cr) {
				panic("sat: parity unit on undefined literal not enqueueable")
			}
			continue
		}
		if s.valueLit(first) == lTrue {
			n++
		}
		ws[wj] = w
		wj++
		if n&1 == 1 {
			continue // parity satisfied
		}
		// Conflict: the total assignment violates the parity.
		if s.proof != nil {
			//lint:ignore hotpath proof materialization dispatches through the writer interface; nil-guarded off the alloc-free benchmark path
			s.justifyParityStep(cr, p, false)
		}
		wj += copy(ws[wj:], ws[wi+1:])
		s.xwatches[pv] = ws[:wj]
		s.qhead = len(s.trail)
		return cr
	}
	s.xwatches[pv] = ws[:wj]
	return NullRef
}

// justifyParityStep logs the ordinary clause the parity record implies (or
// falsifies) under the current assignment, keeping the DRAT stream
// checkable by proofcheck's GF(2) rowspan rule: the materialized clause
// forbids exactly one assignment of the clause's variables, and the
// corresponding row is the parity clause's own (vars, rhs), which lies in
// the input row space. Mirrors gauss.imply/conflictClause — minus the
// arena temp.
func (s *Solver) justifyParityStep(cr ClauseRef, implied cnf.Lit, haveImplied bool) {
	s.logJustify(s.parityLits(cr, implied, haveImplied))
}

// parityLits materializes, into the pooled parityBuf, the ordinary clause
// a parity record stands for under the current assignment: the implied
// trail literal verbatim (when there is one) and the false literal of
// every other variable. Conflict analysis resolves on the result exactly
// as it would on a Gauss-materialized temp reason. The returned slice is
// invalidated by the next parityLits/parityFalsified call.
//
//bosphorus:hotpath on-demand parity reason materialization for analyze
func (s *Solver) parityLits(cr ClauseRef, implied cnf.Lit, haveImplied bool) []cnf.Lit {
	buf := s.parityBuf[:0]
	for _, q := range s.ca.lits(cr) {
		v := q.Var()
		if haveImplied && v == implied.Var() {
			buf = append(buf, implied)
			continue
		}
		buf = append(buf, cnf.MkLit(v, s.assigns[v] == lTrue))
	}
	s.parityBuf = buf
	return buf
}

// clauseLits returns the literals conflict analysis should resolve on for
// clause c: the arena view for ordinary clauses, the materialized implied
// clause for parity records. p is the trail literal whose reason c is
// (havePathLit=false for the conflict clause itself, where every literal
// is false).
//
//bosphorus:hotpath reason-literal dispatch on the analyze path
func (s *Solver) clauseLits(c ClauseRef, p cnf.Lit, havePathLit bool) []cnf.Lit {
	if !s.ca.parity(c) {
		return s.ca.lits(c)
	}
	return s.parityLits(c, p, havePathLit)
}
