package anf

import (
	"slices"
	"sort"
)

// Poly is a Boolean polynomial: a GF(2) sum (XOR) of distinct monomials.
// The zero polynomial has no monomials. Monomials are kept sorted in
// descending graded-lex order (leading term first), mirroring the term
// order a Gröbner-basis engine would use.
//
// A Poly used as an equation means "this polynomial equals zero".
type Poly struct {
	terms []Monomial
}

// Zero returns the zero polynomial.
func Zero() Poly { return Poly{} }

// OnePoly returns the constant-1 polynomial (the contradictory equation
// 1 = 0 when read as an equation).
func OnePoly() Poly { return Poly{terms: []Monomial{One}} }

// FromMonomials builds a polynomial from monomials, cancelling duplicates
// in pairs (m ⊕ m = 0).
func FromMonomials(ms ...Monomial) Poly {
	out := sortCancel(append([]Monomial(nil), ms...))
	return Poly{terms: append([]Monomial(nil), out...)}
}

// sortCancel sorts ts into descending term order and cancels equal terms
// in pairs (m ⊕ m = 0), in place. It returns the surviving prefix of ts.
func sortCancel(ts []Monomial) []Monomial {
	slices.SortFunc(ts, func(a, b Monomial) int { return b.Compare(a) })
	out := ts[:0]
	for i := 0; i < len(ts); {
		j := i + 1
		for j < len(ts) && ts[j].Equal(ts[i]) {
			j++
		}
		if (j-i)%2 == 1 {
			out = append(out, ts[i])
		}
		i = j
	}
	return out
}

// FromSortedMonomials builds a polynomial from monomials that are already
// in strictly descending order with no duplicates — the canonical term
// order. It trusts the caller (no sorting, no cancellation) and copies the
// slice. The linearization kernels use it to read reduced matrix rows back
// into polynomials without paying FromMonomials' sort.
func FromSortedMonomials(ms []Monomial) Poly {
	return Poly{terms: append([]Monomial(nil), ms...)}
}

// VarPoly returns the polynomial consisting of the single variable v.
func VarPoly(v Var) Poly { return Poly{terms: []Monomial{NewMonomial(v)}} }

// Constant returns the polynomial 0 or 1.
func Constant(b bool) Poly {
	if b {
		return OnePoly()
	}
	return Zero()
}

// IsZero reports whether p is the zero polynomial.
func (p Poly) IsZero() bool { return len(p.terms) == 0 }

// IsOne reports whether p is the constant 1.
func (p Poly) IsOne() bool { return len(p.terms) == 1 && p.terms[0].IsOne() }

// Terms returns the monomials in descending order. Callers must not modify
// the returned slice.
func (p Poly) Terms() []Monomial { return p.terms }

// NumTerms returns the number of monomials.
func (p Poly) NumTerms() int { return len(p.terms) }

// Deg returns the total degree (degree of the leading term), or -1 for the
// zero polynomial.
func (p Poly) Deg() int {
	if p.IsZero() {
		return -1
	}
	return p.terms[0].Deg()
}

// Lead returns the leading monomial. Panics on the zero polynomial.
func (p Poly) Lead() Monomial {
	if p.IsZero() {
		panic("anf: Lead of zero polynomial")
	}
	return p.terms[0]
}

// HasConstant reports whether the constant term 1 is present.
func (p Poly) HasConstant() bool {
	return len(p.terms) > 0 && p.terms[len(p.terms)-1].IsOne()
}

// Add returns p ⊕ q: the symmetric difference of the term sets, via a
// linear-time merge.
func (p Poly) Add(q Poly) Poly {
	out := make([]Monomial, 0, len(p.terms)+len(q.terms))
	i, j := 0, 0
	for i < len(p.terms) && j < len(q.terms) {
		switch c := p.terms[i].Compare(q.terms[j]); {
		case c > 0:
			out = append(out, p.terms[i])
			i++
		case c < 0:
			out = append(out, q.terms[j])
			j++
		default: // equal terms cancel
			i++
			j++
		}
	}
	out = append(out, p.terms[i:]...)
	out = append(out, q.terms[j:]...)
	return Poly{terms: out}
}

// AddConstant returns p ⊕ 1 if b, else p.
func (p Poly) AddConstant(b bool) Poly {
	if !b {
		return p
	}
	return p.Add(OnePoly())
}

// MulMonomial returns p·m. Multiplying distinct monomials by m can merge
// them (absorption), so duplicates are re-cancelled.
func (p Poly) MulMonomial(m Monomial) Poly {
	if m.IsOne() {
		return p
	}
	prods := make([]Monomial, len(p.terms))
	for i, t := range p.terms {
		prods[i] = t.Mul(m)
	}
	return FromMonomials(prods...)
}

// Mul returns the product p·q over GF(2).
func (p Poly) Mul(q Poly) Poly {
	if p.IsZero() || q.IsZero() {
		return Zero()
	}
	prods := make([]Monomial, 0, len(p.terms)*len(q.terms))
	for _, a := range p.terms {
		for _, b := range q.terms {
			prods = append(prods, a.Mul(b))
		}
	}
	return FromMonomials(prods...)
}

// Equal reports structural equality (which, for canonical forms, is
// mathematical equality).
func (p Poly) Equal(q Poly) bool {
	if len(p.terms) != len(q.terms) {
		return false
	}
	for i := range p.terms {
		if !p.terms[i].Equal(q.terms[i]) {
			return false
		}
	}
	return true
}

// Vars returns the sorted set of variables occurring in p.
func (p Poly) Vars() []Var {
	n := 0
	for _, t := range p.terms {
		n += len(t.vars)
	}
	out := make([]Var, 0, n)
	for _, t := range p.terms {
		out = append(out, t.vars...)
	}
	slices.Sort(out)
	return slices.Compact(out)
}

// ContainsVar reports whether v occurs in any term of p.
func (p Poly) ContainsVar(v Var) bool {
	for _, t := range p.terms {
		if t.Contains(v) {
			return true
		}
	}
	return false
}

// Eval evaluates the polynomial under the assignment.
func (p Poly) Eval(assign func(Var) bool) bool {
	acc := false
	for _, t := range p.terms {
		if t.Eval(assign) {
			acc = !acc
		}
	}
	return acc
}

// SubstituteVar returns p with every occurrence of v replaced by the
// polynomial r. For each term v·m the result contributes r·m.
func (p Poly) SubstituteVar(v Var, r Poly) Poly {
	var s Substituter
	if !s.substitute(p, v, r) {
		return p
	}
	return Poly{terms: s.out}
}

// SubstituteConst returns p with v fixed to the constant value b.
func (p Poly) SubstituteConst(v Var, b bool) Poly {
	return p.SubstituteVar(v, Constant(b))
}

// IsLinear reports whether every term has degree ≤ 1 (a linear equation,
// possibly with a constant).
func (p Poly) IsLinear() bool { return p.Deg() <= 1 }

// LinearVars returns the variables of a linear polynomial's degree-1 terms.
// It panics if p is not linear.
func (p Poly) LinearVars() []Var {
	if !p.IsLinear() {
		panic("anf: LinearVars on nonlinear polynomial")
	}
	var out []Var
	for _, t := range p.terms {
		if t.Deg() == 1 {
			out = append(out, t.Vars()[0])
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// IsMonomialPlusOne reports whether p has the form m ⊕ 1 with m a single
// non-constant monomial — the learnt-fact shape that forces every variable
// of m to 1.
func (p Poly) IsMonomialPlusOne() bool {
	return len(p.terms) == 2 && p.terms[1].IsOne() && p.terms[0].Deg() >= 1
}

// String renders the polynomial like "x1*x2 + x3 + 1" ("+" is GF(2)
// addition, i.e. XOR). The zero polynomial renders as "0".
func (p Poly) String() string {
	return string(p.appendText(make([]byte, 0, 8*len(p.terms)+1)))
}

// appendText appends the String form of p to b.
func (p Poly) appendText(b []byte) []byte {
	if p.IsZero() {
		return append(b, '0')
	}
	for i, t := range p.terms {
		if i > 0 {
			b = append(b, " + "...)
		}
		b = t.appendText(b)
	}
	return b
}

// MaxVar returns the largest variable index occurring in p and true, or
// (0, false) if p has no variables.
func (p Poly) MaxVar() (Var, bool) {
	var max Var
	found := false
	for _, t := range p.terms {
		vs := t.Vars()
		if len(vs) > 0 {
			if v := vs[len(vs)-1]; !found || v > max {
				max = v
				found = true
			}
		}
	}
	return max, found
}
