// Package cnf provides Conjunctive Normal Form formulas and DIMACS I/O.
//
// Literals use the MiniSat encoding: variable v's positive literal is 2v
// and its negative literal is 2v+1, so a literal's variable is Lit>>1 and
// its sign is Lit&1. This makes literals directly usable as dense array
// indices inside the CDCL solver (package sat).
//
// The package also supports XOR clauses (CryptoMiniSat's "x" DIMACS
// extension), which the GJE-enabled solver profile consumes natively.
package cnf

import (
	"fmt"
	"slices"
	"strconv"
	"strings"
)

// Var is a CNF variable index, starting at 0.
type Var uint32

// Lit is a literal: variable Lit>>1, negated if Lit&1 == 1.
type Lit uint32

// MkLit builds a literal from a variable and a sign (neg=true for ¬v).
func MkLit(v Var, neg bool) Lit {
	l := Lit(v) << 1
	if neg {
		l |= 1
	}
	return l
}

// Var returns the literal's variable.
func (l Lit) Var() Var { return Var(l >> 1) }

// Neg reports whether the literal is negated.
func (l Lit) Neg() bool { return l&1 == 1 }

// Not returns the complementary literal.
func (l Lit) Not() Lit { return l ^ 1 }

// Dimacs returns the 1-based signed integer DIMACS form of the literal.
func (l Lit) Dimacs() int {
	d := int(l.Var()) + 1
	if l.Neg() {
		return -d
	}
	return d
}

// LitFromDimacs converts a nonzero DIMACS literal to a Lit. A literal
// whose variable does not fit Lit's encoding (|d| > 2^31) is an error:
// narrowing it would alias a small variable.
func LitFromDimacs(d int) (Lit, error) {
	if d == 0 {
		return 0, fmt.Errorf("cnf: DIMACS literal 0")
	}
	if int64(d) > 1<<31 || int64(d) < -1<<31 {
		return 0, fmt.Errorf("cnf: DIMACS literal %d out of range (max variable %d)", d, int64(1)<<31)
	}
	if d < 0 {
		return MkLit(Var(-d-1), true), nil
	}
	return MkLit(Var(d-1), false), nil
}

// String renders the literal DIMACS-style ("3" or "-3").
func (l Lit) String() string { return strconv.Itoa(l.Dimacs()) }

// Clause is a disjunction of literals.
type Clause []Lit

// String renders the clause like "(1 -2 3)".
func (c Clause) String() string {
	parts := make([]string, len(c))
	for i, l := range c {
		parts[i] = l.String()
	}
	return "(" + strings.Join(parts, " ") + ")"
}

// Normalize sorts the clause, removes duplicate literals, and reports
// whether the clause is a tautology (contains l and ¬l), in which case it
// should be dropped. The returned clause aliases the (sorted) input.
func (c Clause) Normalize() (Clause, bool) {
	// slices.Sort, not sort.Slice: the reflection-based sorter allocates
	// two objects per call, which a bulk clause load pays per clause.
	slices.Sort(c)
	out := c[:0]
	for i, l := range c {
		if i > 0 && l == c[i-1] {
			continue
		}
		if i > 0 && l == c[i-1].Not() {
			return nil, true
		}
		out = append(out, l)
	}
	return out, false
}

// Clone returns a copy of the clause.
func (c Clause) Clone() Clause { return append(Clause(nil), c...) }

// XorClause is a parity constraint: the XOR of the variables equals RHS.
type XorClause struct {
	Vars []Var
	RHS  bool
}

// String renders the XOR clause CryptoMiniSat-style ("x1 2 -3 0" means
// v1 ⊕ v2 ⊕ v3 = 1 with the sign on the last literal carrying the parity).
func (x XorClause) String() string {
	parts := make([]string, 0, len(x.Vars))
	for i, v := range x.Vars {
		d := int(v) + 1
		if i == len(x.Vars)-1 && !x.RHS {
			d = -d
		}
		parts = append(parts, fmt.Sprintf("%d", d))
	}
	return "x" + strings.Join(parts, " ")
}

// Formula is a CNF formula, optionally with XOR clauses.
type Formula struct {
	NumVars int
	Clauses []Clause
	Xors    []XorClause
}

// NewFormula returns an empty formula over n variables.
func NewFormula(n int) *Formula { return &Formula{NumVars: n} }

// AddClause appends a clause, growing NumVars as needed.
func (f *Formula) AddClause(lits ...Lit) {
	c := Clause(lits).Clone()
	for _, l := range c {
		if int(l.Var())+1 > f.NumVars {
			f.NumVars = int(l.Var()) + 1
		}
	}
	f.Clauses = append(f.Clauses, c)
}

// AddXor appends an XOR clause, growing NumVars as needed.
func (f *Formula) AddXor(rhs bool, vars ...Var) {
	x := XorClause{Vars: append([]Var(nil), vars...), RHS: rhs}
	for _, v := range x.Vars {
		if int(v)+1 > f.NumVars {
			f.NumVars = int(v) + 1
		}
	}
	f.Xors = append(f.Xors, x)
}

// NewVar allocates and returns a fresh variable.
func (f *Formula) NewVar() Var {
	v := Var(f.NumVars)
	f.NumVars++
	return v
}

// Eval reports whether the assignment satisfies every clause and XOR.
func (f *Formula) Eval(assign func(Var) bool) bool {
	for _, c := range f.Clauses {
		sat := false
		for _, l := range c {
			if assign(l.Var()) != l.Neg() {
				sat = true
				break
			}
		}
		if !sat {
			return false
		}
	}
	for _, x := range f.Xors {
		acc := false
		for _, v := range x.Vars {
			if assign(v) {
				acc = !acc
			}
		}
		if acc != x.RHS {
			return false
		}
	}
	return true
}

// Clone returns a deep copy of the formula.
func (f *Formula) Clone() *Formula {
	g := &Formula{NumVars: f.NumVars}
	g.Clauses = make([]Clause, len(f.Clauses))
	for i, c := range f.Clauses {
		g.Clauses[i] = c.Clone()
	}
	g.Xors = make([]XorClause, len(f.Xors))
	for i, x := range f.Xors {
		g.Xors[i] = XorClause{Vars: append([]Var(nil), x.Vars...), RHS: x.RHS}
	}
	return g
}

// Stats returns a short human-readable summary.
func (f *Formula) Stats() string {
	return fmt.Sprintf("%d vars, %d clauses, %d xors", f.NumVars, len(f.Clauses), len(f.Xors))
}
