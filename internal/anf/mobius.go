package anf

import (
	"fmt"
	"slices"

	"repro/internal/gf2"
)

// FromTruthTable returns the unique polynomial over vars whose evaluation
// matches the given truth table: table[m] is the function value at the
// assignment where vars[i] takes bit i of m. The conversion is the Möbius
// transform (fast zeta transform over the subset lattice) — the standard
// way to derive the explicit ANF of an S-box output bit, used by the
// cipher encoders as an alternative to implicit quadratic relations.
func FromTruthTable(vars []Var, table []bool) Poly {
	n := len(vars)
	if len(table) != 1<<uint(n) {
		panic(fmt.Sprintf("anf: table length %d for %d variables", len(table), n))
	}
	coeff := make([]uint64, gf2.Words(len(table)))
	for m, b := range table {
		if b {
			gf2.SetBit(coeff, m)
		}
	}
	mobius(coeff, n)
	var monos []Monomial
	gf2.ForEachSetBit(coeff, func(m int) {
		var vs []Var
		for i := 0; i < n; i++ {
			if m>>uint(i)&1 == 1 {
				vs = append(vs, vars[i])
			}
		}
		monos = append(monos, NewMonomial(vs...))
	})
	return FromMonomials(monos...)
}

// TruthTable evaluates p over all assignments of vars, returning the table
// in the same layout FromTruthTable consumes. Variables of p outside vars
// are taken as false.
func (p Poly) TruthTable(vars []Var) []bool {
	t := p.PackedTruthTable(vars, nil)
	out := make([]bool, 1<<uint(len(vars)))
	for m := range out {
		out[m] = gf2.TestBit(t, m)
	}
	return out
}

// PackedTruthTable is TruthTable packed one entry per bit in gf2's row
// layout (entry m is bit m). It reuses dst's storage when that is large
// enough. The table is built without evaluating p: each term sets the
// coefficient bit of its variable mask over vars, and the Möbius butterfly
// turns coefficients into values. A term with a variable outside vars
// drops out, because that variable is false.
func (p Poly) PackedTruthTable(vars []Var, dst []uint64) []uint64 {
	n := len(vars)
	words := gf2.Words(1 << uint(n))
	t := slices.Grow(dst[:0], words)[:words]
	clear(t)
terms:
	for _, term := range p.terms {
		m := 0
		for _, v := range term.vars {
			i := slices.Index(vars, v)
			if i < 0 {
				continue terms
			}
			m |= 1 << uint(i)
		}
		gf2.XorBit(t, m)
	}
	mobius(t, n)
	return t
}

// mobius applies the GF(2) Möbius transform in place to a packed table of
// 2^n entries: entry m becomes the XOR of the entries at every subset of
// m. The transform is its own inverse, so this one butterfly turns ANF
// coefficients into a truth table and a truth table into coefficients.
func mobius(t []uint64, n int) {
	for i := 0; i < n; i++ {
		bit := 1 << uint(i)
		for m := bit; m < 1<<uint(n); m = (m + 1) | bit {
			if gf2.TestBit(t, m^bit) {
				gf2.XorBit(t, m)
			}
		}
	}
}
