package anf

import (
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
)

func randPoly(rng *rand.Rand, maxVar, maxTerms, maxDeg int) Poly {
	n := rng.Intn(maxTerms + 1)
	ms := make([]Monomial, n)
	for i := range ms {
		d := rng.Intn(maxDeg + 1)
		vars := make([]Var, d)
		for j := range vars {
			vars[j] = Var(rng.Intn(maxVar))
		}
		ms[i] = NewMonomial(vars...)
	}
	return FromMonomials(ms...)
}

func TestPolyCanonicalCancel(t *testing.T) {
	// x1 + x1 = 0; x1 + x1 + x1 = x1.
	p := FromMonomials(NewMonomial(1), NewMonomial(1))
	if !p.IsZero() {
		t.Fatalf("x1+x1 = %s, want 0", p)
	}
	p = FromMonomials(NewMonomial(1), NewMonomial(1), NewMonomial(1))
	if p.String() != "x1" {
		t.Fatalf("x1+x1+x1 = %s, want x1", p)
	}
}

func TestPolyParseRoundTrip(t *testing.T) {
	cases := []string{
		"0",
		"1",
		"x0",
		"x1*x2 + x3 + 1",
		"x1*x2*x3 + x1 + x3 + 1",
		"x3*x4*x5 + x1*x3 + x3",
	}
	for _, s := range cases {
		p := MustParsePoly(s)
		q := MustParsePoly(p.String())
		if !p.Equal(q) {
			t.Fatalf("round trip of %q gave %q", s, p.String())
		}
	}
}

func TestPolyParseErrors(t *testing.T) {
	for _, s := range []string{"", "x", "y1", "x1 *", "x1 + + x2", "x1*x2 + za"} {
		if _, err := ParsePoly(s); err == nil {
			t.Errorf("ParsePoly(%q) succeeded, want error", s)
		}
	}
}

func TestPolyAddProperties(t *testing.T) {
	a := MustParsePoly("x1*x2 + x3")
	b := MustParsePoly("x3 + 1")
	sum := a.Add(b)
	if sum.String() != "x1*x2 + 1" {
		t.Fatalf("sum = %s", sum)
	}
	if !a.Add(a).IsZero() {
		t.Fatal("p + p != 0")
	}
	if !a.Add(Zero()).Equal(a) {
		t.Fatal("p + 0 != p")
	}
}

func TestPolyMul(t *testing.T) {
	// (x1 + 1)(x1 + 1) = x1*x1 + x1 + x1 + 1 = x1 + 1 over GF(2)... no:
	// x1*x1 = x1, so x1 + x1 + x1 + 1 = x1 + 1.
	a := MustParsePoly("x1 + 1")
	if got := a.Mul(a); !got.Equal(a) {
		t.Fatalf("(x1+1)^2 = %s, want x1 + 1", got)
	}
	// (x1 + x2)(x1 + x2) = x1 + x2 (Frobenius: squaring is identity on
	// Boolean polynomials' zero sets, and x1x2 terms cancel pairwise).
	b := MustParsePoly("x1 + x2")
	if got := b.Mul(b); !got.Equal(b) {
		t.Fatalf("(x1+x2)^2 = %s", got)
	}
	// ElimLin example from the paper (§II-C): substituting x1 = x2 ⊕ x3 in
	// x1*x2 ⊕ x2*x3 ⊕ 1 gives (x2⊕x3)x2 ⊕ x2x3 ⊕ 1 = x2 ⊕ 1.
	sub := MustParsePoly("x2 + x3")
	e := MustParsePoly("x1*x2 + x2*x3 + 1")
	got := e.SubstituteVar(1, sub)
	if got.String() != "x2 + 1" {
		t.Fatalf("paper ElimLin simplification gave %s, want x2 + 1", got)
	}
}

func TestPolyDegLead(t *testing.T) {
	p := MustParsePoly("x1*x2*x3 + x1 + 1")
	if p.Deg() != 3 {
		t.Fatalf("deg = %d", p.Deg())
	}
	if p.Lead().String() != "x1*x2*x3" {
		t.Fatalf("lead = %s", p.Lead())
	}
	if Zero().Deg() != -1 {
		t.Fatal("deg of 0 should be -1")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("Lead of zero did not panic")
		}
	}()
	Zero().Lead()
}

func TestPolyEval(t *testing.T) {
	p := MustParsePoly("x1*x2 + x3 + 1")
	assign := func(vals map[Var]bool) func(Var) bool {
		return func(v Var) bool { return vals[v] }
	}
	// x1=1,x2=1,x3=0 -> 1+0+1 = 0
	if p.Eval(assign(map[Var]bool{1: true, 2: true})) {
		t.Fatal("eval wrong for satisfying assignment")
	}
	// x1=0,x2=0,x3=0 -> 0+0+1 = 1
	if !p.Eval(assign(map[Var]bool{})) {
		t.Fatal("eval wrong for violating assignment")
	}
}

func TestSubstituteConst(t *testing.T) {
	p := MustParsePoly("x1*x2 + x2*x3 + 1")
	got := p.SubstituteConst(2, true)
	if got.String() != "x1 + x3 + 1" {
		t.Fatalf("substitute x2=1 gave %s", got)
	}
	got = p.SubstituteConst(2, false)
	if !got.IsOne() {
		t.Fatalf("substitute x2=0 gave %s, want 1", got)
	}
}

func TestLinearHelpers(t *testing.T) {
	lin := MustParsePoly("x1 + x4 + 1")
	if !lin.IsLinear() {
		t.Fatal("x1+x4+1 should be linear")
	}
	vs := lin.LinearVars()
	if len(vs) != 2 || vs[0] != 1 || vs[1] != 4 {
		t.Fatalf("LinearVars = %v", vs)
	}
	if MustParsePoly("x1*x2").IsLinear() {
		t.Fatal("x1*x2 is not linear")
	}
	if !MustParsePoly("x1*x2*x3 + 1").IsMonomialPlusOne() {
		t.Fatal("x1*x2*x3 + 1 should be monomial-plus-one")
	}
	if MustParsePoly("x1*x2 + x3 + 1").IsMonomialPlusOne() {
		t.Fatal("three-term poly is not monomial-plus-one")
	}
	if MustParsePoly("1").IsMonomialPlusOne() {
		t.Fatal("constant 1 is not monomial-plus-one")
	}
}

func TestVarsContainsMaxVar(t *testing.T) {
	p := MustParsePoly("x1*x7 + x3 + 1")
	vs := p.Vars()
	if len(vs) != 3 || vs[0] != 1 || vs[1] != 3 || vs[2] != 7 {
		t.Fatalf("Vars = %v", vs)
	}
	if !p.ContainsVar(7) || p.ContainsVar(2) {
		t.Fatal("ContainsVar wrong")
	}
	if mv, ok := p.MaxVar(); !ok || mv != 7 {
		t.Fatalf("MaxVar = %d,%v", mv, ok)
	}
	if _, ok := OnePoly().MaxVar(); ok {
		t.Fatal("constant poly should have no MaxVar")
	}
}

// Property: ring axioms on random polynomials.
func TestQuickPolyRingAxioms(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		a := randPoly(rng, 6, 5, 3)
		b := randPoly(rng, 6, 5, 3)
		c := randPoly(rng, 6, 5, 3)
		if !a.Add(b).Equal(b.Add(a)) {
			return false
		}
		if !a.Mul(b).Equal(b.Mul(a)) {
			return false
		}
		if !a.Mul(b.Add(c)).Equal(a.Mul(b).Add(a.Mul(c))) {
			return false
		}
		return a.Mul(b).Mul(c).Equal(a.Mul(b.Mul(c)))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// Property: evaluation is a ring homomorphism — eval(p+q) = eval(p) XOR
// eval(q) and eval(p*q) = eval(p) AND eval(q), for every assignment.
func TestQuickEvalHomomorphism(t *testing.T) {
	f := func(seed int64, bits uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		a := randPoly(rng, 8, 5, 3)
		b := randPoly(rng, 8, 5, 3)
		assign := func(v Var) bool { return bits>>(uint(v)%8)&1 == 1 }
		if a.Add(b).Eval(assign) != (a.Eval(assign) != b.Eval(assign)) {
			return false
		}
		return a.Mul(b).Eval(assign) == (a.Eval(assign) && b.Eval(assign))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// Property: substitution agrees with evaluation — substituting v by a
// polynomial r and evaluating equals evaluating with v bound to r's value.
func TestQuickSubstituteEval(t *testing.T) {
	f := func(seed int64, bits uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		p := randPoly(rng, 8, 5, 3)
		r := randPoly(rng, 8, 4, 2)
		v := Var(rng.Intn(8))
		base := func(u Var) bool { return bits>>(uint(u)%8)&1 == 1 }
		substituted := p.SubstituteVar(v, r).Eval(base)
		patched := func(u Var) bool {
			if u == v {
				return r.Eval(base)
			}
			return base(u)
		}
		return substituted == p.Eval(patched)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// Vars must return what a set-based gather returns: each variable once,
// ascending.
func TestVarsMatchesMapReference(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	for trial := 0; trial < 2000; trial++ {
		p := randPoly(rng, 1+rng.Intn(300), rng.Intn(40), rng.Intn(6))
		seen := map[Var]bool{}
		for _, term := range p.Terms() {
			for _, v := range term.Vars() {
				seen[v] = true
			}
		}
		want := make([]Var, 0, len(seen))
		for v := range seen {
			want = append(want, v)
		}
		sort.Slice(want, func(i, j int) bool { return want[i] < want[j] })
		got := p.Vars()
		if len(got) != len(want) {
			t.Fatalf("trial %d: Vars(%s) = %v, want %v", trial, p, got, want)
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("trial %d: Vars(%s) = %v, want %v", trial, p, got, want)
			}
		}
	}
}
