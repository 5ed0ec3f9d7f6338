package core

import (
	"slices"

	"repro/internal/anf"
	"repro/internal/proof"
)

// Propagator runs ANF propagation (§II-A): value assignments from unit and
// monomial-plus-one polynomials, equivalence assignments from x ⊕ y and
// x ⊕ y ⊕ 1, applied through the master system's occurrence lists until a
// fixed point.
//
// The occurrence lists are the paper's §III-B index: a new binding of v
// revisits only the slots on v's list. The Propagator makes every write to
// the master system (add and replace below), so it keeps the lists
// itself. A slot joins v's list when it first holds v and is never
// removed, so a list may name slots that no longer contain v; the lists
// keep the order slots joined them, which fixes the propagation queue.
type Propagator struct {
	Sys   *anf.System
	State *VarState
	// Contradiction is set when 1 = 0 is derived; the system is UNSAT.
	Contradiction bool
	// occ[v] lists the slots of Sys that have held v, in the order they
	// first did.
	occ map[anf.Var][]int32
	// prov, when non-nil, records the provenance of every binding and
	// rewrite into a ledger. All prov hooks are behind nil checks so the
	// tracking-off path is unchanged.
	prov *provTracker
}

// NewPropagator wraps a system with fresh state and indexes its slots.
func NewPropagator(sys *anf.System) *Propagator {
	p := &Propagator{
		Sys:   sys,
		State: NewVarState(sys.NumVars()),
		occ:   make(map[anf.Var][]int32, sys.RawLen()),
	}
	for i := 0; i < sys.RawLen(); i++ {
		p.index(i, sys.At(i), true)
	}
	return p
}

// index puts slot i on the list of every variable of q it is not on yet.
// A fresh slot — the newest, or any during the first scan — can only be
// on the lists q's earlier terms put it on, as their last entry; a
// replaced one may be anywhere on a list.
func (p *Propagator) index(i int, q anf.Poly, fresh bool) {
	s := int32(i)
	for _, t := range q.Terms() {
		for _, v := range t.Vars() {
			l := p.occ[v]
			var listed bool
			if fresh {
				listed = len(l) > 0 && l[len(l)-1] == s
			} else {
				listed = slices.Contains(l, s)
			}
			if !listed {
				p.occ[v] = append(l, s)
			}
		}
	}
}

// add appends q as a new slot of the master system and indexes it.
func (p *Propagator) add(q anf.Poly) {
	if p.Sys.Add(q) {
		p.index(p.Sys.RawLen()-1, q, true)
	}
}

// replace overwrites slot i with q and puts i on the lists of q's
// variables it is not on yet.
func (p *Propagator) replace(i int, q anf.Poly) {
	p.Sys.Replace(i, q)
	p.index(i, q, false)
}

// contains reports whether a slot holds q, which is neither 0 nor 1. Any
// slot holding q is on the list of each of q's variables.
func (p *Propagator) contains(q anf.Poly) bool {
	for _, i := range p.occ[q.Lead().Vars()[0]] {
		if p.Sys.At(int(i)).Equal(q) {
			return true
		}
	}
	return false
}

// Propagate runs to fixed point over the whole system. It returns the
// number of new facts (value or equivalence assignments) derived, and
// false if a contradiction was found.
func (p *Propagator) Propagate() (int, bool) {
	queue := make([]int, 0, p.Sys.RawLen())
	inQueue := make([]bool, p.Sys.RawLen())
	push := func(i int) {
		if i < len(inQueue) && !inQueue[i] {
			inQueue[i] = true
			queue = append(queue, i)
		}
	}
	for i := 0; i < p.Sys.RawLen(); i++ {
		push(i)
	}
	facts := 0
	for len(queue) > 0 {
		i := queue[0]
		queue = queue[1:]
		inQueue[i] = false
		n, affected, ok := p.step(i)
		if !ok {
			p.Contradiction = true
			return facts, false
		}
		facts += n
		for _, v := range affected {
			for _, j := range p.occ[v] {
				push(int(j))
			}
		}
	}
	return facts, true
}

// step normalizes equation slot i and extracts any immediate facts. It
// returns the number of facts, the variables whose bindings changed, and
// false on contradiction.
func (p *Propagator) step(i int) (int, []anf.Var, bool) {
	q := p.Sys.At(i)
	if q.IsZero() {
		return 0, nil, true
	}
	p.State.Grow(p.Sys.NumVars())
	orig := q
	var wit []proof.Term
	if p.prov != nil {
		q, wit = p.prov.normalize(p.State, q)
	} else {
		q = p.State.NormalizePoly(q)
	}
	if q.IsZero() {
		p.replace(i, anf.Zero())
		if p.prov != nil {
			p.prov.slotRec[i] = -1
		}
		return 0, nil, true
	}
	// recQ backs the slot's normalized content in the ledger; a rewrite
	// record is appended when normalization changed the polynomial, so the
	// bindings below (and the 1 = 0 contradiction) carry exact witnesses.
	recQ := -1
	if p.prov != nil {
		recQ = p.prov.slotRecord(i, orig, q, wit)
	}
	if q.IsOne() {
		return 0, nil, false
	}
	zeroSlot := func() {
		p.replace(i, anf.Zero())
		if p.prov != nil {
			p.prov.slotRec[i] = -1
		}
	}
	facts := 0
	var affected []anf.Var
	switch {
	case q.NumTerms() == 1 && q.Deg() == 1:
		// Polynomial x: x = 0.
		v := q.Lead().Vars()[0]
		if !p.State.SetValue(v, false) {
			return 0, nil, false
		}
		if p.prov != nil {
			p.prov.noteValue(v, false, recQ)
		}
		facts++
		affected = append(affected, v)
		zeroSlot()
	case q.NumTerms() == 2 && q.Deg() == 1 && q.HasConstant():
		// Polynomial x ⊕ 1: x = 1.
		v := q.Lead().Vars()[0]
		if !p.State.SetValue(v, true) {
			return 0, nil, false
		}
		if p.prov != nil {
			p.prov.noteValue(v, true, recQ)
		}
		facts++
		affected = append(affected, v)
		zeroSlot()
	case q.IsMonomialPlusOne():
		// x·y·…·z ⊕ 1: every factor is 1.
		for _, v := range q.Lead().Vars() {
			if !p.State.SetValue(v, true) {
				return 0, nil, false
			}
			if p.prov != nil {
				p.prov.noteFactor(v, recQ)
			}
			facts++
			affected = append(affected, v)
		}
		zeroSlot()
	case q.Deg() == 1 && q.NumTerms() == 2 && !q.HasConstant():
		// x ⊕ y: x = y.
		vs := q.LinearVars()
		changed, ok := p.State.Merge(vs[0], vs[1], false)
		if !ok {
			return 0, nil, false
		}
		if changed {
			if p.prov != nil {
				p.prov.noteMerge(vs[0], vs[1], false, recQ)
			}
			facts++
			affected = append(affected, vs[0], vs[1])
		}
		zeroSlot()
	case q.Deg() == 1 && q.NumTerms() == 3 && q.HasConstant():
		// x ⊕ y ⊕ 1: x = ¬y.
		vs := q.LinearVars()
		changed, ok := p.State.Merge(vs[0], vs[1], true)
		if !ok {
			return 0, nil, false
		}
		if changed {
			if p.prov != nil {
				p.prov.noteMerge(vs[0], vs[1], true, recQ)
			}
			facts++
			affected = append(affected, vs[0], vs[1])
		}
		zeroSlot()
	default:
		p.replace(i, q)
	}
	return facts, affected, true
}

// AddFact adds a learnt polynomial to the master system unless an equal
// one is already present (after normalization). It reports whether the
// fact was new.
func (p *Propagator) AddFact(f anf.Poly) bool {
	return p.addFact(f, nil, "")
}

// addFact is AddFact carrying a provenance witness (in ledger record
// terms) and note for the appended record.
func (p *Propagator) addFact(f anf.Poly, base []proof.Term, note string) bool {
	p.State.Grow(p.Sys.NumVars())
	if mv, ok := f.MaxVar(); ok {
		p.State.Grow(int(mv) + 1)
	}
	var q anf.Poly
	var wit []proof.Term
	if p.prov != nil {
		q, wit = p.prov.normalize(p.State, f)
	} else {
		q = p.State.NormalizePoly(f)
	}
	record := func() {
		if p.prov == nil {
			return
		}
		terms := make([]proof.Term, 0, len(base)+len(wit))
		terms = append(terms, base...)
		terms = append(terms, wit...)
		p.prov.slotRec = append(p.prov.slotRec, p.prov.append(q, terms, note))
	}
	if q.IsZero() {
		return false
	}
	if q.IsOne() {
		p.Contradiction = true
		p.add(q)
		record()
		return true
	}
	if p.contains(q) {
		return false
	}
	p.add(q)
	record()
	return true
}

// merge adds one producer's batch — a learner's or a SAT step's harvest —
// returning how many facts were new, and propagates to a fixed point
// afterwards (the paper applies ANF propagation whenever learnt facts are
// produced). With provenance tracked, each fact's records are stamped
// with tech and iter and carry the fact's witness and note from w, its
// slots resolved through snap: the slot→record mapping of the system the
// producer read, nil for the current one.
func (p *Propagator) merge(fs []anf.Poly, w *witnessLog, tech string, iter int, snap []int) (int, bool) {
	if p.prov != nil {
		p.prov.setPhase(tech, iter)
		if snap == nil {
			snap = p.prov.slotRec
		}
	}
	added := 0
	for i, f := range fs {
		var base []proof.Term
		var note string
		if p.prov != nil {
			base, note = w.resolve(i, snap)
		}
		if p.addFact(f, base, note) {
			added++
		}
		if p.Contradiction {
			return added, false
		}
	}
	if p.prov != nil {
		p.prov.setPhase(proof.TechPropagation, iter)
	}
	if added > 0 {
		if _, ok := p.Propagate(); !ok {
			return added, false
		}
	}
	return added, true
}

// ProvSnapshot returns a copy of the current slot→ledger-record mapping
// (nil without provenance tracking) — taken before a merge sequence so
// witnesses computed against a system snapshot resolve to the records that
// described it.
func (p *Propagator) ProvSnapshot() []int {
	if p.prov == nil {
		return nil
	}
	return append([]int(nil), p.prov.slotRec...)
}
