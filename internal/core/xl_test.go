package core

import (
	"math/rand"
	"sort"
	"testing"

	"repro/internal/anf"
	"repro/internal/conv"
	"repro/internal/gf2"
	"repro/internal/proof"
	"repro/internal/satgen"
)

// TestTableI reproduces the paper's Table I: XL with D=1 on the system
// {x1x2 ⊕ x1 ⊕ 1, x2x3 ⊕ x3} retains exactly the facts {x1⊕1, x2, x3}.
func TestTableI(t *testing.T) {
	sys := sysFrom(t, "x1*x2 + x1 + 1\nx2*x3 + x3\n")
	rng := rand.New(rand.NewSource(1))
	facts := RunXL(sys, XLConfig{M: 20, DeltaM: 4, Deg: 1, Rand: rng})
	want := map[string]bool{"x1 + 1": false, "x2": false, "x3": false}
	for _, f := range facts {
		s := f.String()
		if _, ok := want[s]; !ok {
			t.Fatalf("unexpected XL fact %q (all: %v)", s, facts)
		}
		want[s] = true
	}
	for s, seen := range want {
		if !seen {
			t.Fatalf("expected fact %q not learnt; got %v", s, facts)
		}
	}
}

// TestXLPaperExample checks §II-E: XL with D=1 learns the six listed facts
// on the worked example.
func TestXLPaperExample(t *testing.T) {
	sys := sysFrom(t, `
x1*x2 + x3 + x4 + 1
x1*x2*x3 + x1 + x3 + 1
x1*x3 + x3*x4*x5 + x3
x2*x3 + x3*x5 + 1
x2*x3 + x5 + 1
`)
	rng := rand.New(rand.NewSource(1))
	facts := RunXL(sys, XLConfig{M: 20, DeltaM: 4, Deg: 1, Rand: rng})
	// The paper lists: x2x3x4⊕1, x1x3x4⊕1, x1⊕x5⊕1, x1⊕x4, x3⊕1, x1⊕x2.
	// Our RREF basis may present an equivalent set; require that all the
	// paper's facts are consequences: every paper fact, added to the learnt
	// set, is already implied — checked by solving: both fact sets must
	// pin the unique solution after propagation.
	p := NewPropagator(sys.Clone())
	p.Propagate()
	if _, ok := p.merge(facts, nil, proof.TechPropagation, 0, nil); !ok {
		t.Fatal("XL facts contradicted the system")
	}
	want := []struct {
		v anf.Var
		b bool
	}{{1, true}, {2, true}, {3, true}, {4, true}, {5, false}}
	for _, w := range want {
		if b, ok := p.State.Value(w.v); !ok || b != w.b {
			t.Fatalf("after XL facts, x%d = %v,%v; want %v (facts: %v)", w.v, b, ok, w.b, facts)
		}
	}
}

// All XL facts must be logical consequences of the system: every solution
// of the system satisfies every fact.
func TestXLFactsSound(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 40; trial++ {
		nVars := 3 + rng.Intn(5)
		sys := anf.NewSystem()
		sys.SetNumVars(nVars)
		for i := 0; i < 2+rng.Intn(2*nVars); i++ {
			var monos []anf.Monomial
			for j := 0; j <= rng.Intn(3); j++ {
				var vs []anf.Var
				for d := 0; d < rng.Intn(3); d++ {
					vs = append(vs, anf.Var(rng.Intn(nVars)))
				}
				monos = append(monos, anf.NewMonomial(vs...))
			}
			sys.Add(anf.FromMonomials(monos...))
		}
		facts := RunXL(sys, XLConfig{M: 16, DeltaM: 4, Deg: 1, Rand: rng})
		for mask := uint32(0); mask < 1<<uint(nVars); mask++ {
			assign := func(v anf.Var) bool { return mask>>uint(v)&1 == 1 }
			if !sys.Eval(assign) {
				continue
			}
			for _, f := range facts {
				if f.Eval(assign) {
					t.Fatalf("trial %d: XL fact %s violated by solution %b", trial, f, mask)
				}
			}
		}
	}
}

func TestXLDegreeTwo(t *testing.T) {
	// With D=2 the multipliers include quadratic monomials; facts must
	// still be sound.
	sys := sysFrom(t, "x0*x1 + x2\nx1*x2 + x0 + 1\nx0 + x1 + x2\n")
	rng := rand.New(rand.NewSource(3))
	facts := RunXL(sys, XLConfig{M: 16, DeltaM: 4, Deg: 2, Rand: rng})
	for mask := uint32(0); mask < 8; mask++ {
		assign := func(v anf.Var) bool { return mask>>uint(v)&1 == 1 }
		if !sys.Eval(assign) {
			continue
		}
		for _, f := range facts {
			if f.Eval(assign) {
				t.Fatalf("D=2 fact %s violated by solution %b", f, mask)
			}
		}
	}
}

func TestXLEmptySystem(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	if facts := RunXL(anf.NewSystem(), DefaultXLConfig(rng)); facts != nil {
		t.Fatalf("empty system gave facts %v", facts)
	}
}

// TestElimLinPaperExample follows §II-C: on {x1⊕x2⊕x3, x1x2⊕x2x3⊕1},
// ElimLin derives x2 ⊕ 1 after substituting the linear equation.
func TestElimLinPaperExample(t *testing.T) {
	sys := sysFrom(t, "x1 + x2 + x3\nx1*x2 + x2*x3 + 1\n")
	rng := rand.New(rand.NewSource(1))
	facts := RunElimLin(sys, ElimLinConfig{M: 20, Rand: rng})
	// ElimLin must learn the initial linear equation and a consequence
	// forcing x2 = 1; check soundness and completeness via enumeration:
	// solutions of the system are (x1,x2,x3) with x1⊕x2⊕x3=0 and
	// x1x2⊕x2x3=1 → x2(x1⊕x3)=1 → x2=1, x1⊕x3=1.
	if len(facts) < 2 {
		t.Fatalf("too few ElimLin facts: %v", facts)
	}
	sawX2 := false
	for _, f := range facts {
		if f.Equal(anf.MustParsePoly("x2 + 1")) {
			sawX2 = true
		}
	}
	if !sawX2 {
		t.Fatalf("ElimLin did not learn x2 ⊕ 1; facts: %v", facts)
	}
	for mask := uint32(0); mask < 16; mask++ {
		assign := func(v anf.Var) bool { return mask>>uint(v)&1 == 1 }
		if !sys.Eval(assign) {
			continue
		}
		for _, f := range facts {
			if f.Eval(assign) {
				t.Fatalf("ElimLin fact %s violated by solution %b", f, mask)
			}
		}
	}
}

// TestElimLinWorkedExample checks §II-E: in the paper's sequential
// workflow ElimLin runs after XL's facts have been added to the system
// (Process hands them to ElimLin from the next iteration on); its initial
// GJE then sees the four linear equations the paper lists, substitutes
// them, and learns x1 ⊕ 1.
func TestElimLinWorkedExample(t *testing.T) {
	sys := sysFrom(t, `
x1*x2 + x3 + x4 + 1
x1*x2*x3 + x1 + x3 + 1
x1*x3 + x3*x4*x5 + x3
x2*x3 + x3*x5 + 1
x2*x3 + x5 + 1
x1 + x5 + 1
x1 + x4
x3 + 1
x1 + x2
`)
	rng := rand.New(rand.NewSource(1))
	facts := RunElimLin(sys, ElimLinConfig{M: 20, Rand: rng})
	// The learnt set is an RREF-normalized basis (e.g. x5 rather than
	// x1 ⊕ 1); what matters is that it forces the paper's assignment.
	p := NewPropagator(sys.Clone())
	p.Propagate()
	if _, ok := p.merge(facts, nil, proof.TechPropagation, 0, nil); !ok {
		t.Fatal("ElimLin facts contradicted the system")
	}
	if b, ok := p.State.Value(1); !ok || !b {
		t.Fatalf("ElimLin facts should force x1 = 1; facts: %v", facts)
	}
}

func TestElimLinSoundRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	for trial := 0; trial < 40; trial++ {
		nVars := 3 + rng.Intn(5)
		sys := anf.NewSystem()
		sys.SetNumVars(nVars)
		for i := 0; i < 2+rng.Intn(2*nVars); i++ {
			var monos []anf.Monomial
			for j := 0; j <= rng.Intn(3); j++ {
				var vs []anf.Var
				for d := 0; d < rng.Intn(3); d++ {
					vs = append(vs, anf.Var(rng.Intn(nVars)))
				}
				monos = append(monos, anf.NewMonomial(vs...))
			}
			sys.Add(anf.FromMonomials(monos...))
		}
		facts := RunElimLin(sys, ElimLinConfig{M: 16, Rand: rng})
		for mask := uint32(0); mask < 1<<uint(nVars); mask++ {
			assign := func(v anf.Var) bool { return mask>>uint(v)&1 == 1 }
			if !sys.Eval(assign) {
				continue
			}
			for _, f := range facts {
				if f.Eval(assign) {
					t.Fatalf("trial %d: ElimLin fact %s violated by solution %b", trial, f, mask)
				}
			}
		}
	}
}

// denseGJERows is the linearize→eliminate→extract path of a dense
// matrix: one column per distinct monomial, descending, plain RREF, and
// every nonzero reduced row read back as a polynomial.
func denseGJERows(polys []anf.Poly) []anf.Poly {
	var monos []anf.Monomial
	col := map[string]int{}
	for _, p := range polys {
		for _, t := range p.Terms() {
			if _, ok := col[t.Key()]; !ok {
				col[t.Key()] = 0
				monos = append(monos, t)
			}
		}
	}
	sort.Slice(monos, func(i, j int) bool { return monos[i].Compare(monos[j]) > 0 })
	for c, m := range monos {
		col[m.Key()] = c
	}
	mat := gf2.NewMatrix(len(polys), len(monos))
	for r, p := range polys {
		for _, t := range p.Terms() {
			mat.Flip(r, col[t.Key()])
		}
	}
	out := make([]anf.Poly, mat.RREF())
	for r := range out {
		var ts []anf.Monomial
		for c, m := range monos {
			if mat.Get(r, c) {
				ts = append(ts, m)
			}
		}
		out[r] = anf.FromMonomials(ts...)
	}
	return out
}

// xlExpansion returns the first n polynomials of sys with their products
// by every variable they share the subsample with: an XL-shaped system
// (D = 1) small enough for the dense reference.
func xlExpansion(sys *anf.System, n int) []anf.Poly {
	polys := sys.Polys()
	if len(polys) > n {
		polys = polys[:n]
	}
	out := append([]anf.Poly(nil), polys...)
	vars := collectVars(polys)
	for _, p := range polys {
		for _, v := range vars {
			if q := p.MulMonomial(anf.NewMonomial(v)); !q.IsZero() {
				out = append(out, q)
			}
		}
	}
	return out
}

// gjeRows must return the dense path's reduced rows, tracked or not, on
// XL-shaped systems from each family: SR, Simon, and CNF through
// CNFToANF. Each tracked row must be the sum of the inputs listed for it,
// and the fact test XL applies to unbuilt rows must agree with the
// polynomial predicates on the built ones.
func TestGJERowsMatchDense(t *testing.T) {
	php := conv.CNFToANF(satgen.Pigeonhole(5, 4).Formula, conv.DefaultOptions())
	systems := map[string][]anf.Poly{
		"sr":          xlExpansion(benchSRSystem(), 30),
		"simon":       xlExpansion(benchSimonSystem(), 20),
		"php-5-4":     xlExpansion(php, 60),
		"table-i":     xlExpansion(sysFrom(t, "x1*x2 + x1 + 1\nx2*x3 + x3\n"), 2),
		"cancels-out": {anf.VarPoly(1), anf.VarPoly(1), anf.Zero()},
	}
	for name, polys := range systems {
		want := denseGJERows(polys)
		got, none := gjeRows(polys, false)
		tracked, combos := gjeRows(polys, true)
		if none != nil {
			t.Fatalf("%s: untracked gjeRows returned combinations", name)
		}
		for _, rows := range [][]anf.Poly{got, tracked} {
			if len(rows) != len(want) {
				t.Fatalf("%s: %d reduced rows, want %d", name, len(rows), len(want))
			}
			for i := range want {
				if !rows[i].Equal(want[i]) {
					t.Fatalf("%s: row %d = %v, want %v", name, i, rows[i], want[i])
				}
			}
		}
		for i, combo := range combos {
			sum := anf.Zero()
			for _, j := range combo {
				sum = sum.Add(polys[j])
			}
			if !sum.Equal(tracked[i]) {
				t.Fatalf("%s: the inputs listed for row %d sum to %v, want %v", name, i, sum, tracked[i])
			}
		}
		s := getLinScratch()
		for _, p := range polys {
			s.ids = s.tab.AppendTermIDs(s.ids, p)
		}
		red := gjeRowsIDs(polys, s.ids, s.tab, false, s)
		for i := range red.rows {
			p := red.poly(i)
			if want := p.IsLinear() || p.IsMonomialPlusOne() || p.IsOne(); red.isFact(i) != want {
				t.Fatalf("%s: row %v classified as fact = %v, want %v", name, p, !want, want)
			}
		}
		putLinScratch(s)
	}
}
