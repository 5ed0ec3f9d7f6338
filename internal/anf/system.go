package anf

import (
	"sort"
)

// System is an ANF polynomial system: a conjunction of polynomial equations
// "p = 0" in numbered slots. It tracks the number of variables (indices are
// dense from 0). The per-variable occurrence lists the paper keeps (§III-B)
// belong to ANF propagation, the one pass that reads them (core.Propagator).
type System struct {
	polys   []Poly
	numVars int
	// table, once built by MonoTable(), interns every monomial of the
	// system; Add and Replace keep it current.
	table *MonoTable
}

// NewSystem returns an empty system.
func NewSystem() *System {
	return &System{}
}

// Add appends the equation p = 0 to the system. Zero polynomials (trivially
// true) are ignored. Reports whether the polynomial was added.
func (s *System) Add(p Poly) bool {
	if p.IsZero() {
		return false
	}
	if s.table != nil {
		p = s.table.InternPoly(p)
	}
	s.polys = append(s.polys, p)
	s.noteVars(p)
	return true
}

// noteVars raises NumVars to cover p's variables.
func (s *System) noteVars(p Poly) {
	if v, ok := p.MaxVar(); ok && int(v) >= s.numVars {
		s.numVars = int(v) + 1
	}
}

// Len returns the number of (non-deleted) equations.
func (s *System) Len() int {
	n := 0
	for _, p := range s.polys {
		if !p.IsZero() {
			n++
		}
	}
	return n
}

// Polys returns the non-zero polynomials of the system, in insertion order.
func (s *System) Polys() []Poly {
	out := make([]Poly, 0, len(s.polys))
	for _, p := range s.polys {
		if !p.IsZero() {
			out = append(out, p)
		}
	}
	return out
}

// RawLen returns the number of equation slots including deleted ones; valid
// indices for At are [0, RawLen).
func (s *System) RawLen() int { return len(s.polys) }

// At returns the polynomial at slot i (possibly the zero polynomial if the
// equation was deleted by replacement).
func (s *System) At(i int) Poly { return s.polys[i] }

// Replace overwrites slot i with p.
func (s *System) Replace(i int, p Poly) {
	if s.table != nil {
		p = s.table.InternPoly(p)
	}
	s.polys[i] = p
	s.noteVars(p)
}

// MonoTable returns the system's monomial interning table, building it on
// first use. Building rewrites the stored polynomials with their canonical
// interned terms, so later ID() calls on any term of the system take the
// table's O(1) fast path instead of hashing a string key. Add and Replace
// keep the table current once it exists.
//
// Concurrent callers must arrange for the table to be built (and every
// system monomial interned) before sharing the system read-only; the
// engine's parallel fact-learning phase pre-warms it for exactly this
// reason.
func (s *System) MonoTable() *MonoTable {
	if s.table == nil {
		s.table = NewMonoTable()
		for i, p := range s.polys {
			s.polys[i] = s.table.InternPoly(p)
		}
	}
	return s.table
}

// NumVars returns one more than the largest variable index seen.
func (s *System) NumVars() int { return s.numVars }

// SetNumVars raises the declared variable count (for systems whose
// variables do not all occur in equations).
func (s *System) SetNumVars(n int) {
	if n > s.numVars {
		s.numVars = n
	}
}

// Clone returns a deep-enough copy: polynomials are immutable values, so
// only the slot slice is duplicated. The monomial table is not carried
// over — the clone rebuilds its own lazily, keeping the two systems free
// to intern independently (and concurrently).
func (s *System) Clone() *System {
	return &System{polys: append([]Poly(nil), s.polys...), numVars: s.numVars}
}

// HasContradiction reports whether any equation is the constant 1 = 0.
func (s *System) HasContradiction() bool {
	for _, p := range s.polys {
		if p.IsOne() {
			return true
		}
	}
	return false
}

// Eval reports whether the assignment satisfies every equation.
func (s *System) Eval(assign func(Var) bool) bool {
	for _, p := range s.polys {
		if p.Eval(assign) {
			return false
		}
	}
	return true
}

// Contains reports whether an equation structurally equal to p is present.
func (s *System) Contains(p Poly) bool {
	for _, q := range s.polys {
		if q.Equal(p) {
			return true
		}
	}
	return false
}

// MaxDeg returns the maximum degree over all equations (0 for an empty or
// all-deleted system).
func (s *System) MaxDeg() int {
	d := 0
	for _, p := range s.polys {
		if p.Deg() > d {
			d = p.Deg()
		}
	}
	return d
}

// SortedByDegree returns the non-zero polynomials sorted by ascending
// degree (the order XL expands equations in), ties broken by term count.
func (s *System) SortedByDegree() []Poly {
	ps := s.Polys()
	sort.SliceStable(ps, func(i, j int) bool {
		if ps[i].Deg() != ps[j].Deg() {
			return ps[i].Deg() < ps[j].Deg()
		}
		return ps[i].NumTerms() < ps[j].NumTerms()
	})
	return ps
}
