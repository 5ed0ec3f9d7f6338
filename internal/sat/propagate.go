package sat

import "repro/internal/cnf"

// propagate performs unit propagation over the watched-literal lists and
// the XOR component until a joint fixed point or a conflict. It returns
// the conflicting clause ref, or NullRef. A returned Gauss conflict is an
// arena temporary — the caller releases it (releaseConflict) once conflict
// analysis is done with it.
//
//bosphorus:hotpath unit-propagation inner loop; PR-6 alloc-free result
func (s *Solver) propagate() ClauseRef {
	//lint:ignore ctxpoll propagation reaches a joint fixed point within the current trail (qhead catches up, gauss.advance stops progressing); the search loop above polls the stop signal
	for {
		for s.qhead < len(s.trail) {
			p := s.trail[s.qhead] // p is now true; scan watchers of p
			s.qhead++
			s.Propagations++
			// Parity clauses are problem constraints, so they are consulted
			// before the clause watch lists: with NativeXor on, an XOR-heavy
			// instance has few or no problem clauses and its clause lists hold
			// mostly learnts — scanning those first would give learnt clauses
			// propagation priority over the problem itself, the reverse of the
			// attach order the clausal-cut baseline exhibits.
			if len(s.parities) != 0 {
				if conf := s.propagateParity(p); conf != NullRef {
					return conf
				}
			}
			if conf := s.propagateLit(p); conf != NullRef {
				return conf
			}
		}
		if s.gauss == nil {
			return NullRef
		}
		//lint:ignore hotpath gauss.advance materializes XOR reasons as amortized arena temps and its only unprovable callee is the nil-guarded proof-hook dispatch, which is off on the alloc-free benchmark path
		conf, progressed := s.gauss.advance()
		if conf != NullRef {
			s.qhead = len(s.trail)
			return conf
		}
		if !progressed && s.qhead >= len(s.trail) {
			return NullRef
		}
	}
}

//
//bosphorus:hotpath watcher scan with in-place compaction
func (s *Solver) propagateLit(p cnf.Lit) ClauseRef {
	// The list is compacted in place with a single write cursor wj ≤ wi:
	// kept watchers slide left over moved ones, and the list is truncated
	// to the cursor at the end. No append, no spill — the only other list
	// touched is the new watch target's, which is never this one (the new
	// watched literal is non-false while p.Not() is false).
	ws := s.watches[p]
	wj := 0
	for wi := 0; wi < len(ws); wi++ {
		w := ws[wi]
		// Cheap pre-check: if the blocker is true the clause is satisfied
		// without loading its literals from the arena.
		if s.valueLit(w.blocker) == lTrue {
			ws[wj] = w
			wj++
			continue
		}
		cr := w.ref
		lits := s.ca.lits(cr)
		// Normalize so that the false watched literal is lits[1].
		falseLit := p.Not()
		if lits[0] == falseLit {
			lits[0], lits[1] = lits[1], lits[0]
		}
		first := lits[0]
		if first != w.blocker && s.valueLit(first) == lTrue {
			ws[wj] = watcher{cr, first}
			wj++
			continue
		}
		// Look for a new literal to watch.
		found := false
		for k := 2; k < len(lits); k++ {
			if s.valueLit(lits[k]) != lFalse {
				lits[1], lits[k] = lits[k], lits[1]
				s.watches[lits[1].Not()] = append(s.watches[lits[1].Not()], watcher{cr, first})
				found = true
				break
			}
		}
		if found {
			continue // watcher moved; do not keep
		}
		// Clause is unit or conflicting.
		ws[wj] = watcher{cr, first}
		wj++
		if s.valueLit(first) == lFalse {
			// Conflict: slide the unvisited tail up against the cursor and
			// bail out.
			wj += copy(ws[wj:], ws[wi+1:])
			s.watches[p] = ws[:wj]
			s.qhead = len(s.trail)
			return cr
		}
		if !s.enqueue(first, cr) {
			// enqueue only fails when first is false, handled above.
			panic("sat: enqueue failed on undefined literal")
		}
	}
	s.watches[p] = ws[:wj]
	return NullRef
}
