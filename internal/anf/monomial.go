// Package anf implements Algebraic Normal Form: systems of Boolean
// polynomials over GF(2). It is the reproduction of the role played by
// PolyBoRi in Bosphorus — the master problem representation that ANF
// propagation, XL and ElimLin all operate on.
//
// A monomial is a product of distinct variables (x² = x over GF(2)); a
// polynomial is an XOR (GF(2) sum) of distinct monomials, optionally
// including the constant 1. Polynomials are kept in a canonical sorted form
// (graded lexicographic order, highest first) so equality is structural and
// addition is a linear-time merge.
package anf

import (
	"sort"
	"strconv"
)

// Var identifies a Boolean variable. Variables print as x0, x1, ...
type Var uint32

func (v Var) String() string { return "x" + strconv.FormatUint(uint64(v), 10) }

// Monomial is a product of distinct variables, stored sorted ascending.
// The empty monomial is the constant 1.
type Monomial struct {
	vars []Var
	// id caches this monomial's MonoTable ID plus one (0 = not interned).
	// It is ignored by all algebraic operations — Compare, Equal and friends
	// look only at vars — and is validated against the table's canonical
	// copy before use, so a stale id from another table is harmless.
	id uint32
}

// One is the constant-1 monomial (the empty product).
var One = Monomial{}

// NewMonomial builds a monomial from the given variables; duplicates are
// collapsed (x·x = x over GF(2)).
func NewMonomial(vars ...Var) Monomial {
	if len(vars) == 0 {
		return One
	}
	vs := append([]Var(nil), vars...)
	sort.Slice(vs, func(i, j int) bool { return vs[i] < vs[j] })
	out := vs[:1]
	for _, v := range vs[1:] {
		if v != out[len(out)-1] {
			out = append(out, v)
		}
	}
	return Monomial{vars: out}
}

// Deg returns the degree: the number of variables in the product.
func (m Monomial) Deg() int { return len(m.vars) }

// IsOne reports whether m is the constant 1.
func (m Monomial) IsOne() bool { return len(m.vars) == 0 }

// Vars returns the variables of the monomial in ascending order. The
// returned slice must not be modified.
func (m Monomial) Vars() []Var { return m.vars }

// Contains reports whether variable v divides the monomial. Monomials are
// short (degree is small in every workload here), so a linear scan with
// sorted-order early exit beats binary search's closure overhead.
func (m Monomial) Contains(v Var) bool {
	for _, x := range m.vars {
		if x >= v {
			return x == v
		}
	}
	return false
}

// Mul returns the product m·o (the union of variable sets).
func (m Monomial) Mul(o Monomial) Monomial {
	if m.IsOne() {
		return o
	}
	if o.IsOne() {
		return m
	}
	out := make([]Var, 0, len(m.vars)+len(o.vars))
	i, j := 0, 0
	for i < len(m.vars) && j < len(o.vars) {
		switch {
		case m.vars[i] < o.vars[j]:
			out = append(out, m.vars[i])
			i++
		case m.vars[i] > o.vars[j]:
			out = append(out, o.vars[j])
			j++
		default:
			out = append(out, m.vars[i])
			i++
			j++
		}
	}
	out = append(out, m.vars[i:]...)
	out = append(out, o.vars[j:]...)
	return Monomial{vars: out}
}

// MulVar returns the product m·v.
func (m Monomial) MulVar(v Var) Monomial {
	if m.Contains(v) {
		return m
	}
	i := sort.Search(len(m.vars), func(i int) bool { return m.vars[i] >= v })
	out := make([]Var, 0, len(m.vars)+1)
	out = append(out, m.vars[:i]...)
	out = append(out, v)
	out = append(out, m.vars[i:]...)
	return Monomial{vars: out}
}

// Without returns the monomial with variable v removed (m / v). If v does
// not divide m, m is returned unchanged.
func (m Monomial) Without(v Var) Monomial {
	i := sort.Search(len(m.vars), func(i int) bool { return m.vars[i] >= v })
	if i >= len(m.vars) || m.vars[i] != v {
		return m
	}
	out := make([]Var, 0, len(m.vars)-1)
	out = append(out, m.vars[:i]...)
	out = append(out, m.vars[i+1:]...)
	return Monomial{vars: out}
}

// Divides reports whether every variable of m appears in o.
func (m Monomial) Divides(o Monomial) bool {
	i, j := 0, 0
	for i < len(m.vars) && j < len(o.vars) {
		switch {
		case m.vars[i] == o.vars[j]:
			i++
			j++
		case m.vars[i] > o.vars[j]:
			j++
		default:
			return false
		}
	}
	return i == len(m.vars)
}

// Compare orders monomials graded-lexicographically: first by degree, then
// lexicographically on the sorted variable lists with the PolyBoRi
// convention that lower-indexed variables are "larger" (x0 > x1 > ...), so
// x1 sorts before x3 in a polynomial's display. Returns -1, 0 or +1.
func (m Monomial) Compare(o Monomial) int {
	if d := m.Deg() - o.Deg(); d != 0 {
		if d < 0 {
			return -1
		}
		return 1
	}
	for i := range m.vars {
		if m.vars[i] != o.vars[i] {
			if m.vars[i] < o.vars[i] {
				return 1
			}
			return -1
		}
	}
	return 0
}

// Equal reports structural equality.
func (m Monomial) Equal(o Monomial) bool { return m.Compare(o) == 0 }

// Key returns a compact string key identifying the monomial, suitable for
// map indexing (e.g. the monomial↔CNF-variable map in the converter).
func (m Monomial) Key() string {
	return string(m.appendKey(make([]byte, 0, len(m.vars)*4)))
}

// appendKey appends the monomial's compact key bytes to b. MonoTable uses
// it with a scratch buffer so map probes allocate nothing.
func (m Monomial) appendKey(b []byte) []byte {
	for _, v := range m.vars {
		b = append(b, byte(v), byte(v>>8), byte(v>>16), byte(v>>24))
	}
	return b
}

// Eval evaluates the monomial under the assignment: a product is 1 iff all
// its variables are 1.
func (m Monomial) Eval(assign func(Var) bool) bool {
	for _, v := range m.vars {
		if !assign(v) {
			return false
		}
	}
	return true
}

// String renders the monomial like "x1*x2*x7", or "1" for the constant.
func (m Monomial) String() string {
	return string(m.appendText(make([]byte, 0, 6*len(m.vars)+1)))
}

// appendText appends the String form of m to b.
func (m Monomial) appendText(b []byte) []byte {
	if m.IsOne() {
		return append(b, '1')
	}
	for i, v := range m.vars {
		if i > 0 {
			b = append(b, '*')
		}
		b = strconv.AppendUint(append(b, 'x'), uint64(v), 10)
	}
	return b
}
