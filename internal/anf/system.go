package anf

import (
	"sort"
)

// System is an ANF polynomial system: a conjunction of polynomial equations
// "p = 0". It tracks the number of variables (indices are dense from 0) and
// maintains per-variable occurrence lists — the SAT-literature optimization
// the paper adopts (§III-B) so that substituting one variable touches only
// the equations it occurs in.
type System struct {
	polys []Poly
	// occ[v] lists indices into polys of equations containing v. Indices of
	// deleted (zeroed) equations may linger; readers must re-check.
	occ     map[Var][]int
	numVars int
	// table, once built by MonoTable(), interns every monomial of the
	// system; Add and Replace keep it current.
	table *MonoTable
}

// NewSystem returns an empty system.
func NewSystem() *System {
	return &System{occ: make(map[Var][]int)}
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
	idx := len(s.polys)
	s.polys = append(s.polys, p)
	for _, v := range p.Vars() {
		s.occ[v] = append(s.occ[v], idx)
		if int(v)+1 > s.numVars {
			s.numVars = int(v) + 1
		}
	}
	return true
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

// Replace overwrites slot i with p, maintaining occurrence lists for any
// new variables.
func (s *System) Replace(i int, p Poly) {
	if s.table != nil {
		p = s.table.InternPoly(p)
	}
	s.polys[i] = p
	for _, v := range p.Vars() {
		s.occ[v] = appendUnique(s.occ[v], i)
		if int(v)+1 > s.numVars {
			s.numVars = int(v) + 1
		}
	}
}

func appendUnique(xs []int, x int) []int {
	for _, e := range xs {
		if e == x {
			return xs
		}
	}
	return append(xs, x)
}

// Occurrences returns the slots whose polynomial may contain v. The list is
// an over-approximation: slots are never removed when a substitution
// eliminates v, so callers must verify with ContainsVar.
func (s *System) Occurrences(v Var) []int { return s.occ[v] }

// OccurrenceCount returns the number of equations that actually contain v
// right now.
func (s *System) OccurrenceCount(v Var) int {
	n := 0
	for _, i := range s.occ[v] {
		if s.polys[i].ContainsVar(v) {
			n++
		}
	}
	return n
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
// only the slices and maps are duplicated. The monomial table is not
// carried over — the clone rebuilds its own lazily, keeping the two
// systems free to intern independently (and concurrently).
func (s *System) Clone() *System {
	n := &System{
		polys:   append([]Poly(nil), s.polys...),
		occ:     make(map[Var][]int, len(s.occ)),
		numVars: s.numVars,
	}
	for v, l := range s.occ {
		n.occ[v] = append([]int(nil), l...)
	}
	return n
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
	// Use the occurrence list of p's first variable to narrow the scan.
	vs := p.Vars()
	if len(vs) == 0 {
		for _, q := range s.polys {
			if q.Equal(p) {
				return true
			}
		}
		return false
	}
	for _, i := range s.occ[vs[0]] {
		if s.polys[i].Equal(p) {
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

// CompactOccurrences rebuilds all occurrence lists from scratch, dropping
// stale entries. Called after heavy substitution rounds.
func (s *System) CompactOccurrences() {
	s.occ, _ = occurrences(s.polys, s.numVars)
}

// occurrences builds the occurrence lists of polys (zero slots have none)
// and returns them with one more than the largest variable index seen.
// bound exceeds every variable index in polys. The lists are built in one
// pass at the end instead of one map append per (variable, equation):
// count each variable's equations, carve every list as a capped sub-slice
// of one backing array, then fill them. A sparse index space — a few huge
// indices, where per-variable counters would cost more than the input —
// takes the append path instead.
func occurrences(polys []Poly, bound int) (map[Var][]int, int) {
	n := 0
	for _, p := range polys {
		for _, t := range p.terms {
			n += len(t.vars)
		}
	}
	numVars := 0
	if bound > n+1024 {
		occ := make(map[Var][]int)
		for i, p := range polys {
			for _, v := range p.Vars() {
				occ[v] = append(occ[v], i)
				numVars = max(numVars, int(v)+1)
			}
		}
		return occ, numVars
	}
	// pos[v] counts v's equations, then holds where its next entry goes.
	// seen[v] is 1 + the last equation that counted v, negated while
	// filling, so a variable repeated across a polynomial's terms counts
	// once.
	pos := make([]int, bound)
	seen := make([]int, bound)
	distinct := 0
	for i, p := range polys {
		for _, t := range p.terms {
			for _, v := range t.vars {
				if seen[v] != i+1 {
					seen[v] = i + 1
					if pos[v] == 0 {
						distinct++
					}
					pos[v]++
				}
			}
		}
	}
	occ := make(map[Var][]int, distinct)
	lists := make([]int, 0, n)
	for v, c := range pos {
		if c > 0 {
			a := len(lists)
			lists = lists[:a+c]
			occ[Var(v)] = lists[a : a+c : a+c]
			pos[v] = a
			numVars = v + 1
		}
	}
	for i, p := range polys {
		for _, t := range p.terms {
			for _, v := range t.vars {
				if seen[v] != -(i + 1) {
					seen[v] = -(i + 1)
					lists[pos[v]] = i
					pos[v]++
				}
			}
		}
	}
	return occ, numVars
}
