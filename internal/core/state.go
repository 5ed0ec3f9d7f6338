// Package core implements the Bosphorus engine: the XL–ElimLin–SAT-solver
// fact-learning loop over a master ANF system, with ANF propagation after
// every step (paper §II and §III).
package core

import (
	"fmt"

	"repro/internal/anf"
)

// Lit is an ANF-level literal: variable V or its negation (V ⊕ 1).
type Lit struct {
	V   anf.Var
	Neg bool
}

func (l Lit) String() string {
	if l.Neg {
		return "¬" + l.V.String()
	}
	return l.V.String()
}

// Poly returns the literal as a polynomial: V or V ⊕ 1.
func (l Lit) Poly() anf.Poly {
	p := anf.VarPoly(l.V)
	if l.Neg {
		p = p.Add(anf.OnePoly())
	}
	return p
}

// VarState tracks, per variable, the paper's §III-B bookkeeping: its value
// (0, 1 or undetermined) and its equivalence literal. The default
// equivalence literal of a variable is itself.
type VarState struct {
	val []int8 // -1 undetermined, 0, 1
	rep []Lit  // union-find parent with sign; rep[v].V == v means root
}

// NewVarState returns state for n variables, all undetermined.
func NewVarState(n int) *VarState {
	s := &VarState{val: make([]int8, n), rep: make([]Lit, n)}
	for i := range s.val {
		s.val[i] = -1
		s.rep[i] = Lit{V: anf.Var(i)}
	}
	return s
}

// Grow extends the state to cover n variables.
func (s *VarState) Grow(n int) {
	for len(s.val) < n {
		v := anf.Var(len(s.val))
		s.val = append(s.val, -1)
		s.rep = append(s.rep, Lit{V: v})
	}
}

// NumVars returns the tracked variable count.
func (s *VarState) NumVars() int { return len(s.val) }

// Find returns the representative literal of v with path compression:
// v = Find(v).V ⊕ Find(v).Neg.
func (s *VarState) Find(v anf.Var) Lit {
	r := s.rep[v]
	if r.V == v {
		return r
	}
	root := s.Find(r.V)
	out := Lit{V: root.V, Neg: root.Neg != r.Neg}
	s.rep[v] = out
	return out
}

// Value returns the determined value of v (following equivalences), or
// (false, false) when undetermined.
func (s *VarState) Value(v anf.Var) (bool, bool) {
	r := s.Find(v)
	if s.val[r.V] < 0 {
		return false, false
	}
	return (s.val[r.V] == 1) != r.Neg, true
}

// Determined reports whether v has a known value.
func (s *VarState) Determined(v anf.Var) bool {
	_, ok := s.Value(v)
	return ok
}

// Equivalent returns the representative literal of v; if it differs from v
// itself, v is equivalent to that literal.
func (s *VarState) Equivalent(v anf.Var) Lit { return s.Find(v) }

// SetValue fixes v (through its representative) to b. It returns false on
// a contradiction with an earlier value.
func (s *VarState) SetValue(v anf.Var, b bool) bool {
	r := s.Find(v)
	want := int8(0)
	if b != r.Neg {
		want = 1
	}
	if s.val[r.V] >= 0 {
		return s.val[r.V] == want
	}
	s.val[r.V] = want
	return true
}

// Merge records x = y ⊕ neg. It returns (changed, ok): ok is false on
// contradiction.
func (s *VarState) Merge(x, y anf.Var, neg bool) (bool, bool) {
	rx, ry := s.Find(x), s.Find(y)
	// x = y ⊕ neg  ⇔  rx.V ⊕ rx.Neg = ry.V ⊕ ry.Neg ⊕ neg
	sign := rx.Neg != ry.Neg != neg
	if rx.V == ry.V {
		if sign {
			return false, false // v = v ⊕ 1
		}
		return false, true
	}
	// Keep the smaller variable as root (stable, mirrors the paper's
	// "equivalence literal" swaps).
	hi, lo := rx.V, ry.V
	if hi < lo {
		hi, lo = lo, hi
	}
	// Transfer any value on the absorbed root.
	hiVal, loVal := s.val[hi], s.val[lo]
	if hiVal >= 0 && loVal >= 0 {
		consistent := (hiVal == 1) == ((loVal == 1) != sign)
		if !consistent {
			return false, false
		}
	}
	s.rep[hi] = Lit{V: lo, Neg: sign}
	if hiVal >= 0 && loVal < 0 {
		want := int8(0)
		if (hiVal == 1) != sign {
			want = 1
		}
		s.val[lo] = want
	}
	s.val[hi] = -1
	return true, true
}

// NormalizePoly rewrites p using the known values and equivalences. Each
// term's variables map, in one pass, to their values or representative
// literals; the expanded terms are then sorted and cancelled once. A
// polynomial with no bound variable is returned as is, and so is each
// term without one.
func (s *VarState) NormalizePoly(p anf.Poly) anf.Poly {
	if !s.binds(p) {
		return p
	}
	var out []anf.Monomial
	var kept, negs []anf.Var
	for _, t := range p.Terms() {
		kept, negs = kept[:0], negs[:0]
		bound, zero := false, false
		for _, v := range t.Vars() {
			if int(v) >= len(s.val) {
				kept = append(kept, v)
				continue
			}
			r := s.Find(v)
			switch {
			case s.val[r.V] >= 0:
				// v = 0 zeroes the term; v = 1 drops out of it.
				zero = (s.val[r.V] == 1) == r.Neg
			case r.Neg:
				negs = append(negs, r.V)
			default:
				kept = append(kept, r.V)
			}
			bound = bound || r.V != v || s.val[r.V] >= 0
			if zero {
				break
			}
		}
		if zero {
			continue
		}
		if !bound {
			out = append(out, t) // the term as it is, interned ID and all
			continue
		}
		// The term is kept · Π (w ⊕ 1) over negs: expand the product.
		first := len(out)
		out = append(out, anf.NewMonomial(kept...))
		for _, w := range negs {
			for k, n := first, len(out); k < n; k++ {
				out = append(out, out[k].MulVar(w))
			}
		}
	}
	return anf.FromMonomials(out...)
}

// binds reports whether some variable of p has a value or a
// representative other than itself.
func (s *VarState) binds(p anf.Poly) bool {
	for _, t := range p.Terms() {
		for _, v := range t.Vars() {
			if int(v) < len(s.val) {
				if r := s.Find(v); r.V != v || s.val[v] >= 0 {
					return true
				}
			}
		}
	}
	return false
}

// Assignments returns every determined variable with its value.
func (s *VarState) Assignments() map[anf.Var]bool {
	out := map[anf.Var]bool{}
	for v := range s.val {
		if b, ok := s.Value(anf.Var(v)); ok {
			out[anf.Var(v)] = b
		}
	}
	return out
}

// Equivalences returns every variable whose representative differs from
// itself and is not value-determined, mapped to its representative.
func (s *VarState) Equivalences() map[anf.Var]Lit {
	out := map[anf.Var]Lit{}
	for v := range s.val {
		if s.Determined(anf.Var(v)) {
			continue
		}
		r := s.Find(anf.Var(v))
		if r.V != anf.Var(v) {
			out[anf.Var(v)] = r
		}
	}
	return out
}

// FactPolys renders the state as fact polynomials (assignments and
// equivalences), the form in which they join the output ANF/CNF.
func (s *VarState) FactPolys() []anf.Poly {
	var out []anf.Poly
	for v := 0; v < len(s.val); v++ {
		if b, ok := s.Value(anf.Var(v)); ok {
			// v ⊕ b = 0, but only if v is its own root or mapped: emit per
			// variable for clarity at the output boundary.
			out = append(out, anf.VarPoly(anf.Var(v)).AddConstant(b))
		} else if r := s.Find(anf.Var(v)); r.V != anf.Var(v) {
			out = append(out, anf.VarPoly(anf.Var(v)).Add(r.Poly()))
		}
	}
	return out
}

func (s *VarState) String() string {
	n := 0
	for v := range s.val {
		if s.Determined(anf.Var(v)) {
			n++
		}
	}
	return fmt.Sprintf("state: %d/%d determined, %d equivalences", n, len(s.val), len(s.Equivalences()))
}
