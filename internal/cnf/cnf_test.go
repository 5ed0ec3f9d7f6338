package cnf

import (
	"math"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"
)

func TestLitEncoding(t *testing.T) {
	p := MkLit(3, false)
	n := MkLit(3, true)
	if p.Var() != 3 || n.Var() != 3 {
		t.Fatal("Var wrong")
	}
	if p.Neg() || !n.Neg() {
		t.Fatal("Neg wrong")
	}
	if p.Not() != n || n.Not() != p {
		t.Fatal("Not wrong")
	}
	if p.Dimacs() != 4 || n.Dimacs() != -4 {
		t.Fatalf("Dimacs = %d, %d", p.Dimacs(), n.Dimacs())
	}
}

func TestLitFromDimacs(t *testing.T) {
	l, err := LitFromDimacs(-4)
	if err != nil || l != MkLit(3, true) {
		t.Fatalf("LitFromDimacs(-4) = %v, %v", l, err)
	}
	l, err = LitFromDimacs(1)
	if err != nil || l != MkLit(0, false) {
		t.Fatalf("LitFromDimacs(1) = %v, %v", l, err)
	}
	if _, err := LitFromDimacs(0); err == nil {
		t.Fatal("LitFromDimacs(0) should fail")
	}
	// The largest variables Lit encodes, on both signs.
	for _, d := range []int{1 << 31, -1 << 31} {
		l, err := LitFromDimacs(d)
		if err != nil || l.Dimacs() != d {
			t.Fatalf("LitFromDimacs(%d) = %v, %v", d, l, err)
		}
	}
	// One past them would wrap onto small variables (2^31+2 onto 2).
	for _, d := range []int{1<<31 + 2, -(1<<31 + 1), math.MaxInt, math.MinInt} {
		if l, err := LitFromDimacs(d); err == nil {
			t.Fatalf("LitFromDimacs(%d) = %v, want an error", d, l)
		}
	}
}

// Property: Dimacs round trip is identity.
func TestQuickLitRoundTrip(t *testing.T) {
	f := func(v uint16, neg bool) bool {
		l := MkLit(Var(v), neg)
		back, err := LitFromDimacs(l.Dimacs())
		return err == nil && back == l
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestClauseNormalize(t *testing.T) {
	c := Clause{MkLit(2, false), MkLit(1, true), MkLit(2, false)}
	out, taut := c.Normalize()
	if taut {
		t.Fatal("non-tautology reported as tautology")
	}
	if len(out) != 2 {
		t.Fatalf("normalize kept %d literals, want 2", len(out))
	}
	c = Clause{MkLit(1, false), MkLit(1, true)}
	if _, taut := c.Normalize(); !taut {
		t.Fatal("tautology not detected")
	}
}

func TestFormulaAddEval(t *testing.T) {
	f := NewFormula(0)
	f.AddClause(MkLit(0, false), MkLit(1, true)) // v0 ∨ ¬v1
	f.AddXor(true, 0, 1)                         // v0 ⊕ v1 = 1
	if f.NumVars != 2 {
		t.Fatalf("NumVars = %d", f.NumVars)
	}
	// v0=1, v1=0 satisfies both.
	if !f.Eval(func(v Var) bool { return v == 0 }) {
		t.Fatal("satisfying assignment rejected")
	}
	// v0=0, v1=1 violates the clause.
	if f.Eval(func(v Var) bool { return v == 1 }) {
		t.Fatal("violating assignment accepted")
	}
	// v0=1, v1=1 violates the xor.
	if f.Eval(func(v Var) bool { return true }) {
		t.Fatal("xor-violating assignment accepted")
	}
}

func TestNewVar(t *testing.T) {
	f := NewFormula(3)
	if v := f.NewVar(); v != 3 || f.NumVars != 4 {
		t.Fatalf("NewVar = %d, NumVars = %d", v, f.NumVars)
	}
}

func TestCloneIndependent(t *testing.T) {
	f := NewFormula(0)
	f.AddClause(MkLit(0, false), MkLit(1, false))
	g := f.Clone()
	g.Clauses[0][0] = MkLit(5, true)
	if f.Clauses[0][0] != MkLit(0, false) {
		t.Fatal("clone shares clause storage")
	}
}

func TestDimacsRoundTrip(t *testing.T) {
	f := NewFormula(0)
	f.AddClause(MkLit(0, false), MkLit(1, true), MkLit(2, false))
	f.AddClause(MkLit(3, true))
	f.AddXor(true, 0, 2, 3)
	f.AddXor(false, 1, 4)
	var sb strings.Builder
	if err := WriteDimacs(&sb, f); err != nil {
		t.Fatal(err)
	}
	back, err := ReadDimacs(strings.NewReader(sb.String()))
	if err != nil {
		t.Fatal(err)
	}
	if back.NumVars != f.NumVars || len(back.Clauses) != len(f.Clauses) || len(back.Xors) != len(f.Xors) {
		t.Fatalf("round trip changed shape: %s -> %s", f.Stats(), back.Stats())
	}
	for i, c := range f.Clauses {
		if back.Clauses[i].String() != c.String() {
			t.Fatalf("clause %d changed: %s -> %s", i, c, back.Clauses[i])
		}
	}
	for i, x := range f.Xors {
		if back.Xors[i].RHS != x.RHS || len(back.Xors[i].Vars) != len(x.Vars) {
			t.Fatalf("xor %d changed", i)
		}
	}
}

func TestReadDimacsFeatures(t *testing.T) {
	src := `c a comment
p cnf 5 3
1 -2 0
3
4 0
x1 2 -5 0
`
	f, err := ReadDimacs(strings.NewReader(src))
	if err != nil {
		t.Fatal(err)
	}
	if f.NumVars != 5 {
		t.Fatalf("NumVars = %d", f.NumVars)
	}
	if len(f.Clauses) != 2 {
		t.Fatalf("clauses = %d, want 2 (multi-line clause)", len(f.Clauses))
	}
	if len(f.Clauses[1]) != 2 {
		t.Fatalf("second clause has %d lits", len(f.Clauses[1]))
	}
	if len(f.Xors) != 1 {
		t.Fatalf("xors = %d", len(f.Xors))
	}
	x := f.Xors[0]
	if x.RHS { // trailing -5 flips parity
		t.Fatal("xor RHS should be false")
	}
	if len(x.Vars) != 3 || x.Vars[0] != 0 || x.Vars[1] != 1 || x.Vars[2] != 4 {
		t.Fatalf("xor vars = %v", x.Vars)
	}
}

func TestReadDimacsErrors(t *testing.T) {
	cases := []string{
		"p cnf x y\n1 0\n",
		"1 zz 0\n",
		"1 2\n", // unterminated at EOF
	}
	for _, src := range cases {
		if _, err := ReadDimacs(strings.NewReader(src)); err == nil {
			t.Errorf("ReadDimacs(%q) succeeded, want error", src)
		}
	}
}

func TestXorClauseString(t *testing.T) {
	x := XorClause{Vars: []Var{0, 1, 4}, RHS: false}
	if got := x.String(); got != "x1 2 -5" {
		t.Fatalf("String = %q", got)
	}
	x.RHS = true
	if got := x.String(); got != "x1 2 5" {
		t.Fatalf("String = %q", got)
	}
}

// Property: random formulas survive a DIMACS round trip with evaluation
// behaviour intact under random assignments.
func TestQuickDimacsSemantics(t *testing.T) {
	f := func(seed int64, bits uint16) bool {
		rng := rand.New(rand.NewSource(seed))
		frm := NewFormula(8)
		for i := 0; i < rng.Intn(10); i++ {
			var c []Lit
			for j := 0; j <= rng.Intn(4); j++ {
				c = append(c, MkLit(Var(rng.Intn(8)), rng.Intn(2) == 1))
			}
			frm.AddClause(c...)
		}
		for i := 0; i < rng.Intn(3); i++ {
			var vs []Var
			for j := 0; j <= rng.Intn(4); j++ {
				vs = append(vs, Var(rng.Intn(8)))
			}
			frm.AddXor(rng.Intn(2) == 1, vs...)
		}
		var sb strings.Builder
		if err := WriteDimacs(&sb, frm); err != nil {
			return false
		}
		back, err := ReadDimacs(strings.NewReader(sb.String()))
		if err != nil {
			return false
		}
		assign := func(v Var) bool { return bits>>(uint(v)%16)&1 == 1 }
		return frm.Eval(assign) == back.Eval(assign)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
		t.Fatal(err)
	}
}
