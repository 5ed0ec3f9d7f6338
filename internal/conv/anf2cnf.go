// Package conv converts between ANF polynomial systems and CNF formulas,
// reproducing §III-C and §III-D of the Bosphorus paper.
//
// ANF→CNF introduces an auxiliary CNF variable for each nonlinear ANF
// monomial (with a bi-directional map), cuts long XORs at length L, and
// encodes each short polynomial either through a Karnaugh-map/logic-
// minimizer path (when it involves at most K distinct variables) or
// through a Tseitin-style XOR enumeration.
//
// The Karnaugh path reads a polynomial's truth table off its monomials
// with the Möbius butterfly (anf.Poly.PackedTruthTable), never evaluating
// it point by point. Systems repeat a handful of shapes, so each
// conversion keeps a memo from (variable count, table) to the
// minimizer's cubes and runs the minimizer once per distinct table; the
// memo lives and dies with one ANFToCNF call. Its clauses are carved from
// a per-conversion literal slab instead of being allocated one by one.
//
// CNF→ANF maps each clause to the product of its negated literals, first
// splitting clauses so no piece has more than L′ positive literals (each
// positive literal doubles the term count).
package conv

import (
	"encoding/binary"
	"fmt"
	"sort"

	"repro/internal/anf"
	"repro/internal/cnf"
	"repro/internal/gf2"
	"repro/internal/minimize"
)

// Options parameterizes the conversion, names matching the paper (§IV).
type Options struct {
	// CutLen is L: the maximum number of XOR terms per emitted piece.
	CutLen int
	// KarnaughK is K: polynomials over at most this many distinct
	// variables go through the logic-minimizer path. Values above
	// minimize.MaxVars act as minimize.MaxVars.
	KarnaughK int
	// ClauseCutLen is L′: the maximum positive literals per clause piece in
	// CNF→ANF conversion.
	ClauseCutLen int
	// NativeXor emits XOR pieces as native XOR clauses (for a GJE-enabled
	// solver) instead of enumerating 2^(l-1) CNF clauses.
	NativeXor bool
}

// DefaultOptions returns the paper's parameters: K=8, L=L′=5.
func DefaultOptions() Options {
	return Options{CutLen: 5, KarnaughK: 8, ClauseCutLen: 5}
}

// VarMap tracks the correspondence between ANF and CNF variables. ANF
// variable i is CNF variable i; auxiliary CNF variables (for monomials and
// XOR connectors) are allocated past the ANF range.
type VarMap struct {
	numANF  int
	monoByK map[string]cnf.Var
	monoOf  map[cnf.Var]anf.Monomial
	numAux  int
	numConn int
}

func newVarMap(numANF int) *VarMap {
	return &VarMap{
		numANF:  numANF,
		monoByK: map[string]cnf.Var{},
		monoOf:  map[cnf.Var]anf.Monomial{},
	}
}

// NumANFVars returns the count of original ANF variables (CNF variables
// below this index are original).
func (vm *VarMap) NumANFVars() int { return vm.numANF }

// IsOriginal reports whether CNF variable v maps to an original ANF
// variable.
func (vm *VarMap) IsOriginal(v cnf.Var) bool { return int(v) < vm.numANF }

// Monomial returns the ANF monomial represented by auxiliary CNF variable
// v, if any.
func (vm *VarMap) Monomial(v cnf.Var) (anf.Monomial, bool) {
	m, ok := vm.monoOf[v]
	return m, ok
}

// MonomialVars returns every (CNF variable, monomial) pair in the map,
// sorted by variable.
func (vm *VarMap) MonomialVars() []struct {
	Var  cnf.Var
	Mono anf.Monomial
} {
	out := make([]struct {
		Var  cnf.Var
		Mono anf.Monomial
	}, 0, len(vm.monoOf))
	for v, m := range vm.monoOf {
		out = append(out, struct {
			Var  cnf.Var
			Mono anf.Monomial
		}{v, m})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Var < out[j].Var })
	return out
}

// AuxCount returns how many monomial auxiliary variables were created.
func (vm *VarMap) AuxCount() int { return vm.numAux }

// ConnectorCount returns how many XOR-cutting connector variables were
// created.
func (vm *VarMap) ConnectorCount() int { return vm.numConn }

// converter carries the in-progress ANF→CNF state.
type converter struct {
	opts Options
	f    *cnf.Formula
	vm   *VarMap

	// covers maps a Karnaugh key (variable count, then the packed truth
	// table) to the minimizer's cubes for it. It is only ever looked up.
	covers map[string][]minimize.Cube
	table  []uint64  // the current polynomial's packed truth table
	key    []byte    // the current polynomial's covers key
	onset  []uint32  // minimizer input, rebuilt on a covers miss
	slab   []cnf.Lit // Karnaugh clauses are sub-slices of this
}

// slabLits is the literal count of one Karnaugh clause slab; a clause has
// at most minimize.MaxVars literals.
const slabLits = 4096

func newConverter(sys *anf.System, opts Options) *converter {
	if opts.CutLen < 3 {
		opts.CutLen = 3
	}
	if opts.KarnaughK > minimize.MaxVars {
		opts.KarnaughK = minimize.MaxVars
	}
	return &converter{
		opts:   opts,
		f:      cnf.NewFormula(sys.NumVars()),
		vm:     newVarMap(sys.NumVars()),
		covers: map[string][]minimize.Cube{},
	}
}

// ANFToCNF converts the polynomial system to CNF. The returned VarMap
// relates CNF variables back to ANF monomials.
func ANFToCNF(sys *anf.System, opts Options) (*cnf.Formula, *VarMap) {
	c := newConverter(sys, opts)
	for _, p := range sys.Polys() {
		c.addPoly(p)
	}
	return c.f, c.vm
}

// addPoly emits the CNF encoding of p = 0.
func (c *converter) addPoly(p anf.Poly) {
	switch {
	case p.IsZero():
		return
	case p.IsOne():
		c.f.AddClause() // empty clause: unsatisfiable
		return
	}
	vars := p.Vars()
	if len(vars) <= c.opts.KarnaughK {
		c.addKarnaugh(p, vars)
		return
	}
	c.addTseitin(p)
}

// addKarnaugh encodes p = 0 over its (few) variables by minimizing the
// on-set of p (the forbidden assignments) and emitting one blocking clause
// per prime-implicant cube — the paper's Karnaugh-map path, using our
// Quine–McCluskey minimizer in place of ESPRESSO. The minimizer runs once
// per distinct (n, truth table) of the conversion; it is a pure function
// of the ascending on-set, so the clauses and their order are those of a
// run per polynomial.
func (c *converter) addKarnaugh(p anf.Poly, vars []anf.Var) {
	n := len(vars)
	c.table = p.PackedTruthTable(vars, c.table)
	c.key = append(c.key[:0], byte(n))
	for _, w := range c.table {
		c.key = binary.LittleEndian.AppendUint64(c.key, w)
	}
	cubes, ok := c.covers[string(c.key)]
	if !ok {
		c.onset = c.onset[:0]
		gf2.ForEachSetBit(c.table, func(m int) { c.onset = append(c.onset, uint32(m)) })
		cubes = minimize.Minimize(n, c.onset)
		c.covers[string(c.key)] = cubes
	}
	// The clauses' variables are ANF variables, all below the formula's
	// initial NumVars, so they bypass AddClause and its copy.
	for _, cube := range cubes {
		if cap(c.slab)-len(c.slab) < n {
			c.slab = make([]cnf.Lit, 0, slabLits)
		}
		start := len(c.slab)
		for i, v := range vars {
			if cube.Mask>>uint(i)&1 == 0 {
				continue
			}
			// Cube demands vars[i] == bit; the clause must block it.
			bit := cube.Val>>uint(i)&1 == 1
			c.slab = append(c.slab, cnf.MkLit(cnf.Var(v), bit))
		}
		end := len(c.slab)
		c.f.Clauses = append(c.f.Clauses, c.slab[start:end:end])
	}
}

// addTseitin encodes p = 0 by replacing each nonlinear monomial with an
// auxiliary AND variable, cutting the resulting XOR at length L, and
// enumerating each piece.
func (c *converter) addTseitin(p anf.Poly) {
	var terms []cnf.Var
	rhs := false
	for _, t := range p.Terms() {
		switch {
		case t.IsOne():
			rhs = !rhs
		case t.Deg() == 1:
			terms = append(terms, cnf.Var(t.Vars()[0]))
		default:
			terms = append(terms, c.monomialVar(t))
		}
	}
	// p = 0 means sum(terms) ⊕ const = 0, i.e. sum(terms) = const over
	// GF(2) (subtraction is addition).
	c.addXorCut(terms, rhs)
}

// monomialVar returns the CNF variable standing for monomial m, creating
// it (with its AND-gate defining clauses) on first use.
func (c *converter) monomialVar(m anf.Monomial) cnf.Var {
	if v, ok := c.vm.monoByK[m.Key()]; ok {
		return v
	}
	v := c.f.NewVar()
	c.vm.monoByK[m.Key()] = v
	c.vm.monoOf[v] = m
	c.vm.numAux++
	// v ↔ x1 ∧ x2 ∧ ... ∧ xk
	var all []cnf.Lit
	for _, x := range m.Vars() {
		c.f.AddClause(cnf.MkLit(v, true), cnf.MkLit(cnf.Var(x), false)) // ¬v ∨ xi
		all = append(all, cnf.MkLit(cnf.Var(x), true))
	}
	all = append(all, cnf.MkLit(v, false)) // ¬x1 ∨ ... ∨ ¬xk ∨ v
	c.f.AddClause(all...)
	return v
}

// addXorCut emits sum(terms) = rhs, cutting at length L with connector
// variables.
func (c *converter) addXorCut(terms []cnf.Var, rhs bool) {
	terms = append([]cnf.Var(nil), terms...)
	L := c.opts.CutLen
	for len(terms) > L {
		u := c.f.NewVar()
		c.vm.numConn++
		// u = XOR of the first L-1 terms.
		piece := append(append([]cnf.Var(nil), terms[:L-1]...), u)
		c.emitXor(piece, false)
		terms = append([]cnf.Var{u}, terms[L-1:]...)
	}
	c.emitXor(terms, rhs)
}

// emitXor encodes sum(vars) = rhs either natively or by enumerating the
// 2^(l-1) clauses that block every odd/even-parity violation.
func (c *converter) emitXor(vars []cnf.Var, rhs bool) {
	// Cancel duplicate variables in pairs.
	count := map[cnf.Var]int{}
	for _, v := range vars {
		count[v]++
	}
	var vs []cnf.Var
	for _, v := range vars {
		if count[v]%2 == 1 {
			vs = append(vs, v)
			count[v] = 0
		}
	}
	if len(vs) == 0 {
		if rhs {
			c.f.AddClause()
		}
		return
	}
	if c.opts.NativeXor {
		c.f.AddXor(rhs, vs...)
		return
	}
	n := len(vs)
	for mask := 0; mask < 1<<uint(n); mask++ {
		parity := false
		for i := 0; i < n; i++ {
			if mask>>uint(i)&1 == 1 {
				parity = !parity
			}
		}
		if parity == rhs {
			continue
		}
		lits := make([]cnf.Lit, n)
		for i := 0; i < n; i++ {
			lits[i] = cnf.MkLit(vs[i], mask>>uint(i)&1 == 1)
		}
		c.f.AddClause(lits...)
	}
}

// PolyToCNF converts a single polynomial equation into a fresh formula;
// convenience for tests and examples (e.g. the paper's Fig. 2 comparison).
func PolyToCNF(p anf.Poly, opts Options) (*cnf.Formula, *VarMap) {
	sys := anf.NewSystem()
	sys.Add(p)
	return ANFToCNF(sys, opts)
}

// String summarizes a VarMap.
func (vm *VarMap) String() string {
	return fmt.Sprintf("varmap: %d anf vars, %d monomial aux, %d connectors",
		vm.numANF, vm.numAux, vm.numConn)
}
