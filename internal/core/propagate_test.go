package core

import (
	"math/rand"
	"strings"
	"testing"

	"repro/internal/anf"
	"repro/internal/proof"
)

func sysFrom(t *testing.T, src string) *anf.System {
	t.Helper()
	sys, err := anf.ReadSystem(strings.NewReader(src))
	if err != nil {
		t.Fatal(err)
	}
	return sys
}

func TestStateValues(t *testing.T) {
	s := NewVarState(4)
	if s.Determined(0) {
		t.Fatal("fresh var determined")
	}
	if !s.SetValue(0, true) {
		t.Fatal("SetValue failed")
	}
	if b, ok := s.Value(0); !ok || !b {
		t.Fatal("Value wrong")
	}
	if !s.SetValue(0, true) {
		t.Fatal("idempotent SetValue failed")
	}
	if s.SetValue(0, false) {
		t.Fatal("contradictory SetValue succeeded")
	}
}

func TestStateEquivalences(t *testing.T) {
	s := NewVarState(5)
	// x1 = ¬x2
	if _, ok := s.Merge(1, 2, true); !ok {
		t.Fatal("merge failed")
	}
	r := s.Find(2)
	if r.V != 1 || !r.Neg {
		t.Fatalf("Find(2) = %v, want ¬x1", r)
	}
	// x2 = x3 → x3 = ¬x1.
	if _, ok := s.Merge(2, 3, false); !ok {
		t.Fatal("second merge failed")
	}
	r3 := s.Find(3)
	if r3.V != 1 || !r3.Neg {
		t.Fatalf("Find(3) = %v, want ¬x1", r3)
	}
	// Setting x3 = 0 forces x1 = 1 and x2 = 0.
	if !s.SetValue(3, false) {
		t.Fatal("SetValue through equivalence failed")
	}
	if b, ok := s.Value(1); !ok || !b {
		t.Fatal("x1 should be 1")
	}
	if b, ok := s.Value(2); !ok || b {
		t.Fatal("x2 should be 0")
	}
}

func TestStateMergeContradiction(t *testing.T) {
	s := NewVarState(3)
	s.Merge(0, 1, false)
	if _, ok := s.Merge(0, 1, true); ok {
		t.Fatal("x0=x1 and x0=¬x1 should contradict")
	}
	s2 := NewVarState(3)
	s2.SetValue(0, true)
	s2.SetValue(1, false)
	if _, ok := s2.Merge(0, 1, false); ok {
		t.Fatal("merging 1=x0 with 0=x1 should contradict")
	}
}

func TestNormalizePoly(t *testing.T) {
	s := NewVarState(4)
	s.SetValue(0, true)
	s.Merge(1, 2, true) // x1 = ¬x2
	p := anf.MustParsePoly("x0*x1 + x2 + x3")
	got := s.NormalizePoly(p)
	// x0=1: x1 + x2 + x3; x1 -> x2+1 (x1=¬x2): (x2+1) + x2 + x3 = x3 + 1.
	want := anf.MustParsePoly("x3 + 1")
	if !got.Equal(want) {
		t.Fatalf("normalize gave %s, want %s", got, want)
	}
}

// TestProvNormalizeMatchesNormalizePoly: the provenance tracker
// substitutes one bound variable at a time to record a witness per
// substitution, NormalizePoly maps every variable in one pass; both must
// return the same polynomial. States mix values with signed equivalence
// chains, and polynomials reach past NumVars.
func TestProvNormalizeMatchesNormalizePoly(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	for trial := 0; trial < 300; trial++ {
		n := 3 + rng.Intn(12)
		s := NewVarState(n)
		for k := rng.Intn(2 * n); k > 0; k-- {
			x, y := anf.Var(rng.Intn(n)), anf.Var(rng.Intn(n))
			if rng.Intn(4) == 0 {
				s.SetValue(x, rng.Intn(2) == 1)
			} else {
				s.Merge(x, y, rng.Intn(2) == 1)
			}
		}
		pt := newProvTracker(anf.NewSystem())
		for k := 0; k < 5; k++ {
			var ms []anf.Monomial
			for j := rng.Intn(6); j >= 0; j-- {
				var vs []anf.Var
				for d := rng.Intn(4); d > 0; d-- {
					vs = append(vs, anf.Var(rng.Intn(n+3)))
				}
				ms = append(ms, anf.NewMonomial(vs...))
			}
			p := anf.FromMonomials(ms...)
			want, _ := pt.normalize(s, p)
			if got := s.NormalizePoly(p); !got.Equal(want) {
				t.Fatalf("trial %d: NormalizePoly(%s) = %s, provenance normalize %s (%s)", trial, p, got, want, s)
			}
		}
	}
}

func TestPropagateValueRules(t *testing.T) {
	// x0 = 0; x1 ⊕ 1 = 0; x2·x3·x4 ⊕ 1 = 0.
	sys := sysFrom(t, "x0\nx1 + 1\nx2*x3*x4 + 1\n")
	p := NewPropagator(sys)
	n, ok := p.Propagate()
	if !ok {
		t.Fatal("unexpected contradiction")
	}
	if n != 5 {
		t.Fatalf("facts = %d, want 5", n)
	}
	checks := []struct {
		v    anf.Var
		want bool
	}{{0, false}, {1, true}, {2, true}, {3, true}, {4, true}}
	for _, c := range checks {
		if b, ok := p.State.Value(c.v); !ok || b != c.want {
			t.Fatalf("x%d = %v,%v want %v", c.v, b, ok, c.want)
		}
	}
	if sys.Len() != 0 {
		t.Fatalf("system should be fully consumed, %d equations left", sys.Len())
	}
}

func TestPropagateEquivalenceRules(t *testing.T) {
	sys := sysFrom(t, "x0 + x1\nx1 + x2 + 1\n")
	p := NewPropagator(sys)
	if _, ok := p.Propagate(); !ok {
		t.Fatal("unexpected contradiction")
	}
	eq := p.State.Equivalences()
	if len(eq) != 2 {
		t.Fatalf("equivalences = %v", eq)
	}
	// x1 = x0, x2 = ¬x0 (roots are minimal variables).
	if r := p.State.Find(1); r.V != 0 || r.Neg {
		t.Fatalf("Find(1) = %v", r)
	}
	if r := p.State.Find(2); r.V != 0 || !r.Neg {
		t.Fatalf("Find(2) = %v", r)
	}
}

func TestPropagateCascade(t *testing.T) {
	// Equivalence + value in a chain: x0=x1, x1=x2, x2=1 forces all to 1.
	sys := sysFrom(t, "x0 + x1\nx1 + x2\nx2 + 1\n")
	p := NewPropagator(sys)
	if _, ok := p.Propagate(); !ok {
		t.Fatal("unexpected contradiction")
	}
	for v := anf.Var(0); v <= 2; v++ {
		if b, ok := p.State.Value(v); !ok || !b {
			t.Fatalf("x%d should be 1", v)
		}
	}
}

func TestPropagateContradiction(t *testing.T) {
	sys := sysFrom(t, "x0\nx0 + 1\n")
	p := NewPropagator(sys)
	if _, ok := p.Propagate(); ok {
		t.Fatal("x0=0 and x0=1 should contradict")
	}
	if !p.Contradiction {
		t.Fatal("Contradiction flag not set")
	}
}

// The paper's §II-E observation: ANF propagation alone, after the XL facts
// are added, solves the example system completely.
func TestPaperExampleXLPlusPropagation(t *testing.T) {
	sys := sysFrom(t, `
x1*x2 + x3 + x4 + 1
x1*x2*x3 + x1 + x3 + 1
x1*x3 + x3*x4*x5 + x3
x2*x3 + x3*x5 + 1
x2*x3 + x5 + 1
`)
	p := NewPropagator(sys)
	if _, ok := p.Propagate(); !ok {
		t.Fatal("base propagation contradicted")
	}
	// The XL facts from §II-E.
	facts := []anf.Poly{
		anf.MustParsePoly("x2*x3*x4 + 1"),
		anf.MustParsePoly("x1*x3*x4 + 1"),
		anf.MustParsePoly("x1 + x5 + 1"),
		anf.MustParsePoly("x1 + x4"),
		anf.MustParsePoly("x3 + 1"),
		anf.MustParsePoly("x1 + x2"),
	}
	if _, ok := p.merge(facts, nil, proof.TechPropagation, 0, nil); !ok {
		t.Fatal("adding XL facts contradicted")
	}
	// Expected unique solution: x1=x2=x3=x4=1, x5=0 (equation (2)).
	want := []struct {
		v anf.Var
		b bool
	}{{1, true}, {2, true}, {3, true}, {4, true}, {5, false}}
	for _, w := range want {
		if b, ok := p.State.Value(w.v); !ok || b != w.b {
			t.Fatalf("x%d = %v,%v; want %v", w.v, b, ok, w.b)
		}
	}
	if sys.Len() != 0 {
		t.Fatalf("system not fully solved: %d equations left", sys.Len())
	}
}

func TestAddFactDedup(t *testing.T) {
	sys := sysFrom(t, "x0*x1 + x2\n")
	p := NewPropagator(sys)
	p.Propagate()
	f := anf.MustParsePoly("x0*x1 + x2")
	if p.AddFact(f) {
		t.Fatal("existing fact reported as new")
	}
	if !p.AddFact(anf.MustParsePoly("x0 + x2")) {
		t.Fatal("new fact not added")
	}
}
