package core

import (
	"fmt"
	"maps"
	"math/rand"
	"slices"
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

// refIndex replays the occurrence-list rules over a Propagator's writes:
// a new slot goes on the list of each of its variables, a replaced slot
// goes on the lists of its new variables it is not on yet, and nothing
// is removed.
type refIndex map[anf.Var][]int32

func (r refIndex) add(i int, q anf.Poly) {
	for _, v := range q.Vars() {
		r[v] = append(r[v], int32(i))
	}
}

func (r refIndex) replace(i int, q anf.Poly) {
	for _, v := range q.Vars() {
		if !slices.Contains(r[v], int32(i)) {
			r[v] = append(r[v], int32(i))
		}
	}
}

// refPropagate is Propagate with its queue driven by r, which it keeps
// current: step writes at most slot i, and leaves it holding what it
// wrote.
func refPropagate(p *Propagator, r refIndex) bool {
	var queue []int
	inQueue := make([]bool, p.Sys.RawLen())
	push := func(i int) {
		if i < len(inQueue) && !inQueue[i] {
			inQueue[i] = true
			queue = append(queue, i)
		}
	}
	for i := 0; i < p.Sys.RawLen(); i++ {
		push(i)
	}
	for len(queue) > 0 {
		i := queue[0]
		queue = queue[1:]
		inQueue[i] = false
		_, affected, ok := p.step(i)
		r.replace(i, p.Sys.At(i))
		if !ok {
			p.Contradiction = true
			return false
		}
		for _, v := range affected {
			for _, j := range r[v] {
				push(int(j))
			}
		}
	}
	return true
}

// TestOccurrenceListsMatchReference drives random systems through
// NewPropagator, AddFact and Propagate, and beside each run a twin whose
// propagation queue follows refIndex. After every step the Propagator's
// own lists must equal the reference's, entry for entry and in order, and
// both runs must hold the same slots.
func TestOccurrenceListsMatchReference(t *testing.T) {
	// The paper's example (§III-B): a binding of x1 revisits slots 0-2
	// only, one of x5 slots 2-4.
	paper := NewPropagator(sysFrom(t, paperExample))
	if got := paper.occ[1]; !slices.Equal(got, []int32{0, 1, 2}) {
		t.Fatalf("x1 is on slots %v, want [0 1 2]", got)
	}
	if got := paper.occ[5]; !slices.Equal(got, []int32{2, 3, 4}) {
		t.Fatalf("x5 is on slots %v, want [2 3 4]", got)
	}

	rng := rand.New(rand.NewSource(19))
	const nvars = 8
	randPoly := func(maxTerms, maxDeg int) anf.Poly {
		var ms []anf.Monomial
		for k := 1 + rng.Intn(maxTerms); k > 0; k-- {
			var vs []anf.Var
			for d := rng.Intn(maxDeg + 1); d > 0; d-- {
				vs = append(vs, anf.Var(rng.Intn(nvars)))
			}
			ms = append(ms, anf.NewMonomial(vs...))
		}
		return anf.FromMonomials(ms...)
	}
	randFact := func() anf.Poly {
		x, y := anf.VarPoly(anf.Var(rng.Intn(nvars))), anf.VarPoly(anf.Var(rng.Intn(nvars)))
		switch rng.Intn(4) {
		case 0:
			return x.AddConstant(rng.Intn(2) == 1)
		case 1:
			return x.Add(y).AddConstant(rng.Intn(2) == 1)
		case 2:
			return x.Mul(y).AddConstant(true)
		}
		return randPoly(3, 2)
	}
	sameState := func(trial int, what string, got, ref *Propagator, r refIndex) {
		t.Helper()
		if !maps.EqualFunc(got.occ, map[anf.Var][]int32(r), slices.Equal[[]int32]) {
			t.Fatalf("trial %d, %s: occurrence lists\n%v\nreference\n%v", trial, what, got.occ, r)
		}
		if got.Sys.RawLen() != ref.Sys.RawLen() {
			t.Fatalf("trial %d, %s: %d slots, reference %d", trial, what, got.Sys.RawLen(), ref.Sys.RawLen())
		}
		for i := 0; i < got.Sys.RawLen(); i++ {
			if !got.Sys.At(i).Equal(ref.Sys.At(i)) {
				t.Fatalf("trial %d, %s: slot %d = %s, reference %s", trial, what, i, got.Sys.At(i), ref.Sys.At(i))
			}
		}
	}
	for trial := 0; trial < 400; trial++ {
		sys := anf.NewSystem()
		for k := 2 + rng.Intn(8); k > 0; k-- {
			sys.Add(randPoly(4, 3))
		}
		got, ref := NewPropagator(sys.Clone()), NewPropagator(sys.Clone())
		r := refIndex{}
		for i := 0; i < ref.Sys.RawLen(); i++ {
			r.add(i, ref.Sys.At(i))
		}
		sameState(trial, "built", got, ref, r)
		for round := 0; round < 6; round++ {
			_, ok := got.Propagate()
			if refOK := refPropagate(ref, r); ok != refOK {
				t.Fatalf("trial %d round %d: Propagate ok = %v, reference %v", trial, round, ok, refOK)
			}
			sameState(trial, fmt.Sprintf("round %d propagated", round), got, ref, r)
			if !ok {
				break
			}
			for k := 1 + rng.Intn(3); k > 0; k-- {
				f, n := randFact(), ref.Sys.RawLen()
				if added, refAdded := got.AddFact(f), ref.AddFact(f); added != refAdded {
					t.Fatalf("trial %d round %d: AddFact(%s) = %v, reference %v", trial, round, f, added, refAdded)
				}
				if ref.Sys.RawLen() > n {
					r.add(n, ref.Sys.At(n))
				}
				sameState(trial, fmt.Sprintf("round %d fact %s", round, f), got, ref, r)
			}
		}
	}
}
