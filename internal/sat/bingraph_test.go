package sat

import (
	"math/rand"
	"slices"
	"testing"

	"repro/internal/cnf"
)

func TestBinaryEquivalencesPair(t *testing.T) {
	// (a ∨ ¬b) ∧ (¬a ∨ b): a ≡ b.
	f := cnf.NewFormula(2)
	f.AddClause(cnf.MkLit(0, false), cnf.MkLit(1, true))
	f.AddClause(cnf.MkLit(0, true), cnf.MkLit(1, false))
	eqs, ok := BinaryEquivalences(f)
	if !ok {
		t.Fatal("wrongly refuted")
	}
	if len(eqs) != 1 {
		t.Fatalf("equivalences = %v", eqs)
	}
	a, b := eqs[0][0], eqs[0][1]
	if a.Var() == b.Var() {
		t.Fatalf("degenerate pair %v", eqs[0])
	}
	// a ≡ b here, so the pair's literals must have EQUAL polarity on
	// (v0, v1) or both flipped.
	for mask := 0; mask < 4; mask++ {
		assign := func(v cnf.Var) bool { return mask>>uint(v)&1 == 1 }
		if !f.Eval(assign) {
			continue
		}
		va := assign(a.Var()) != a.Neg()
		vb := assign(b.Var()) != b.Neg()
		if va != vb {
			t.Fatalf("pair %v violated by model %02b", eqs[0], mask)
		}
	}
}

func TestBinaryEquivalencesCycle(t *testing.T) {
	// Implication cycle a → b → c → a (as clauses ¬a∨b, ¬b∨c, ¬c∨a):
	// all three equivalent.
	f := cnf.NewFormula(3)
	f.AddClause(cnf.MkLit(0, true), cnf.MkLit(1, false))
	f.AddClause(cnf.MkLit(1, true), cnf.MkLit(2, false))
	f.AddClause(cnf.MkLit(2, true), cnf.MkLit(0, false))
	eqs, ok := BinaryEquivalences(f)
	if !ok {
		t.Fatal("wrongly refuted")
	}
	if len(eqs) != 2 {
		t.Fatalf("want 2 pairs for a 3-cycle, got %v", eqs)
	}
}

func TestBinaryEquivalencesUnsat(t *testing.T) {
	// a → ¬a and ¬a → a: (¬a ∨ ¬a) is not binary with distinct vars, so
	// build it with a helper variable: a→b, b→¬a, ¬a→c, c→a.
	f := cnf.NewFormula(3)
	f.AddClause(cnf.MkLit(0, true), cnf.MkLit(1, false))  // a→b
	f.AddClause(cnf.MkLit(1, true), cnf.MkLit(0, true))   // b→¬a
	f.AddClause(cnf.MkLit(0, false), cnf.MkLit(2, false)) // ¬a→c
	f.AddClause(cnf.MkLit(2, true), cnf.MkLit(0, false))  // c→a
	if _, ok := BinaryEquivalences(f); ok {
		t.Fatal("contradictory implication graph not detected")
	}
	// Confirm with the solver.
	s := NewDefault()
	s.AddFormula(f)
	if s.Solve() != Unsat {
		t.Fatal("solver disagrees: formula is SAT?")
	}
}

func TestBinaryEquivalencesIgnoresLongClauses(t *testing.T) {
	f := cnf.NewFormula(3)
	f.AddClause(cnf.MkLit(0, false), cnf.MkLit(1, false), cnf.MkLit(2, false))
	eqs, ok := BinaryEquivalences(f)
	if !ok || len(eqs) != 0 {
		t.Fatalf("ternary clause produced equivalences: %v", eqs)
	}
}

// Every reported equivalence must hold in every model of the formula.
func TestQuickBinaryEquivalencesSound(t *testing.T) {
	rng := rand.New(rand.NewSource(404))
	for trial := 0; trial < 80; trial++ {
		nVars := 3 + rng.Intn(6)
		f := cnf.NewFormula(nVars)
		for i := 0; i < 2+rng.Intn(4*nVars); i++ {
			a := cnf.MkLit(cnf.Var(rng.Intn(nVars)), rng.Intn(2) == 1)
			b := cnf.MkLit(cnf.Var(rng.Intn(nVars)), rng.Intn(2) == 1)
			if a.Var() == b.Var() {
				continue
			}
			f.AddClause(a, b)
		}
		eqs, ok := BinaryEquivalences(f)
		hasModel := false
		for mask := 0; mask < 1<<uint(nVars); mask++ {
			assign := func(v cnf.Var) bool { return mask>>uint(v)&1 == 1 }
			if !f.Eval(assign) {
				continue
			}
			hasModel = true
			if !ok {
				t.Fatalf("trial %d: SCC refuted a satisfiable formula", trial)
			}
			for _, eq := range eqs {
				va := assign(eq[0].Var()) != eq[0].Neg()
				vb := assign(eq[1].Var()) != eq[1].Neg()
				if va != vb {
					t.Fatalf("trial %d: equivalence %v violated by a model", trial, eq)
				}
			}
		}
		_ = hasModel
	}
}

// BinaryEquivalences must return the same pairs on every call, component
// by component in id order: each pair's root is the smallest literal of
// its component, and a component's members follow in ascending order.
func TestBinaryEquivalencesComponentOrder(t *testing.T) {
	rng := rand.New(rand.NewSource(606))
	for trial := 0; trial < 40; trial++ {
		nVars := 8 + rng.Intn(24)
		f := cnf.NewFormula(nVars)
		g := NewImplications(nVars)
		add := func(a, b cnf.Lit) {
			if a.Var() != b.Var() {
				f.AddClause(a, b)
				g.AddBinary(a, b)
			}
		}
		// Implication cycles through a random permutation's runs make
		// several equivalence classes; a few more implications join some
		// of them. Every implication runs between the fixed literals lit
		// picks, so setting them all true satisfies the formula.
		lit := func(v int) cnf.Lit { return cnf.MkLit(cnf.Var(v), v%3 == trial%3) }
		perm := rng.Perm(nVars)
		for len(perm) > 1 {
			n := min(len(perm), 2+rng.Intn(4))
			for k := 0; k < n; k++ {
				add(lit(perm[k]).Not(), lit(perm[(k+1)%n]))
			}
			perm = perm[n:]
		}
		for i := 0; i < nVars/8; i++ {
			add(lit(rng.Intn(nVars)).Not(), lit(rng.Intn(nVars)))
		}
		eqs, ok := BinaryEquivalences(f)
		if !ok {
			t.Fatalf("trial %d: refuted a formula of implications between fixed literals", trial)
		}
		for call := 0; call < 5; call++ {
			again, _ := BinaryEquivalences(f)
			if !slices.Equal(again, eqs) {
				t.Fatalf("trial %d: call %d returned %v, first call %v", trial, call, again, eqs)
			}
		}
		sccs := g.SCC()
		for k, eq := range eqs {
			c := sccs.Of(eq[0])
			if sccs.Of(eq[1]) != c {
				t.Fatalf("trial %d: pair %v spans components %d and %d", trial, eq, c, sccs.Of(eq[1]))
			}
			for l := range sccs.Comp {
				if sccs.Comp[l] == c && cnf.Lit(l) < eq[0] {
					t.Fatalf("trial %d: root %v of pair %v is not its component's smallest literal %v", trial, eq[0], eq, cnf.Lit(l))
				}
			}
			if k == 0 {
				continue
			}
			prev := eqs[k-1]
			if pc := sccs.Of(prev[0]); pc > c || pc == c && prev[1] >= eq[1] {
				t.Fatalf("trial %d: pair %v (component %d) follows %v (component %d)", trial, eq, c, prev, pc)
			}
		}
	}
}

// The exported SCC API must number components in reverse topological
// order: for every implication u → v, comp[v] <= comp[u].
func TestImplicationsComponentOrder(t *testing.T) {
	rng := rand.New(rand.NewSource(505))
	for trial := 0; trial < 60; trial++ {
		nVars := 3 + rng.Intn(8)
		g := NewImplications(nVars)
		type edge struct{ from, to cnf.Lit }
		var edges []edge
		for i := 0; i < 2+rng.Intn(5*nVars); i++ {
			a := cnf.MkLit(cnf.Var(rng.Intn(nVars)), rng.Intn(2) == 1)
			b := cnf.MkLit(cnf.Var(rng.Intn(nVars)), rng.Intn(2) == 1)
			if a.Var() == b.Var() {
				continue
			}
			g.AddBinary(a, b)
			edges = append(edges, edge{a.Not(), b}, edge{b.Not(), a})
		}
		comps := g.SCC()
		for _, e := range edges {
			if comps.Of(e.to) > comps.Of(e.from) {
				t.Fatalf("trial %d: edge %v→%v violates reverse-topological order (%d > %d)",
					trial, e.from, e.to, comps.Of(e.to), comps.Of(e.from))
			}
		}
	}
}

// Unit clauses participate in the SCC analysis: (a) plus a → ¬a must be
// reported as a contradiction.
func TestImplicationsUnitContradiction(t *testing.T) {
	f := cnf.NewFormula(2)
	f.AddClause(cnf.MkLit(0, false))                     // a
	f.AddClause(cnf.MkLit(0, true), cnf.MkLit(1, false)) // a→b
	f.AddClause(cnf.MkLit(1, true), cnf.MkLit(0, true))  // b→¬a
	f.AddClause(cnf.MkLit(0, true))                      // ¬a, closing the loop
	g := NewImplications(f.NumVars)
	g.AddFormulaBinaries(f)
	if v, bad := g.SCC().Contradiction(); !bad {
		t.Fatal("unit-driven contradiction not detected")
	} else if v != 0 {
		t.Fatalf("contradiction witness = %d, want 0", v)
	}
}

func TestImplicationsContradictionDeterministic(t *testing.T) {
	// Both var 1 and var 2 are self-contradictory; witness must be the
	// smallest index.
	g := NewImplications(3)
	g.AddUnit(cnf.MkLit(1, false))
	g.AddUnit(cnf.MkLit(1, true))
	g.AddUnit(cnf.MkLit(2, false))
	g.AddUnit(cnf.MkLit(2, true))
	for i := 0; i < 5; i++ {
		v, bad := g.SCC().Contradiction()
		if !bad || v != 1 {
			t.Fatalf("witness = (%d,%t), want (1,true)", v, bad)
		}
	}
}
