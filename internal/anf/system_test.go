package anf

import (
	"strings"
	"testing"
)

func exampleSystem(t *testing.T) *System {
	t.Helper()
	// The worked example of the paper, §II-E, equation (1).
	src := `
# paper equation (1)
x1*x2 + x3 + x4 + 1
x1*x2*x3 + x1 + x3 + 1
x1*x3 + x3*x4*x5 + x3
x2*x3 + x3*x5 + 1
x2*x3 + x5 + 1
`
	sys, err := ReadSystem(strings.NewReader(src))
	if err != nil {
		t.Fatal(err)
	}
	return sys
}

func TestReadSystemPaperExample(t *testing.T) {
	sys := exampleSystem(t)
	if sys.Len() != 5 {
		t.Fatalf("len = %d, want 5", sys.Len())
	}
	if sys.NumVars() != 6 { // x1..x5 -> indices up to 5, so 6 slots (x0 unused)
		t.Fatalf("numVars = %d, want 6", sys.NumVars())
	}
	if sys.MaxDeg() != 3 {
		t.Fatalf("maxDeg = %d, want 3", sys.MaxDeg())
	}
	// The paper's unique solution: x1=x2=x3=x4=1, x5=0.
	sol := map[Var]bool{1: true, 2: true, 3: true, 4: true, 5: false}
	if !sys.Eval(func(v Var) bool { return sol[v] }) {
		t.Fatal("paper's solution does not satisfy the parsed system")
	}
	// A perturbed assignment must not satisfy it.
	bad := map[Var]bool{1: true, 2: true, 3: true, 4: true, 5: true}
	if sys.Eval(func(v Var) bool { return bad[v] }) {
		t.Fatal("non-solution satisfied the system")
	}
}

func TestWriteReadRoundTrip(t *testing.T) {
	sys := exampleSystem(t)
	var sb strings.Builder
	if err := WriteSystem(&sb, sys); err != nil {
		t.Fatal(err)
	}
	back, err := ReadSystem(strings.NewReader(sb.String()))
	if err != nil {
		t.Fatal(err)
	}
	if back.Len() != sys.Len() {
		t.Fatalf("round trip changed equation count: %d -> %d", sys.Len(), back.Len())
	}
	for i, p := range sys.Polys() {
		if !back.Polys()[i].Equal(p) {
			t.Fatalf("equation %d changed: %s -> %s", i, p, back.Polys()[i])
		}
	}
}

func TestAddIgnoresZero(t *testing.T) {
	sys := NewSystem()
	if sys.Add(Zero()) {
		t.Fatal("adding zero polynomial should report false")
	}
	if !sys.Add(MustParsePoly("x0 + 1")) {
		t.Fatal("adding nonzero polynomial should report true")
	}
	if sys.Len() != 1 {
		t.Fatalf("len = %d", sys.Len())
	}
}

func TestContains(t *testing.T) {
	sys := exampleSystem(t)
	if !sys.Contains(MustParsePoly("x2*x3 + x5 + 1")) {
		t.Fatal("Contains missed an existing equation")
	}
	if sys.Contains(MustParsePoly("x2*x3 + x5")) {
		t.Fatal("Contains matched a non-member")
	}
	sys.Add(OnePoly())
	if !sys.Contains(OnePoly()) {
		t.Fatal("Contains missed the constant equation")
	}
	if !sys.HasContradiction() {
		t.Fatal("HasContradiction missed 1 = 0")
	}
}

func TestCloneIsIndependent(t *testing.T) {
	sys := exampleSystem(t)
	c := sys.Clone()
	c.Replace(0, MustParsePoly("x9"))
	if sys.At(0).Equal(MustParsePoly("x9")) {
		t.Fatal("clone shares state with original")
	}
	if c.NumVars() <= sys.NumVars() {
		t.Fatal("clone did not track new variable")
	}
}

func TestSortedByDegree(t *testing.T) {
	sys := exampleSystem(t)
	ps := sys.SortedByDegree()
	for i := 1; i < len(ps); i++ {
		if ps[i].Deg() < ps[i-1].Deg() {
			t.Fatalf("not sorted by degree at %d", i)
		}
	}
	if ps[0].Deg() != 2 || ps[len(ps)-1].Deg() != 3 {
		t.Fatalf("degree range wrong: %d..%d", ps[0].Deg(), ps[len(ps)-1].Deg())
	}
}

func TestReadSystemErrors(t *testing.T) {
	if _, err := ReadSystem(strings.NewReader("x1 + bad")); err == nil {
		t.Fatal("malformed system parsed without error")
	}
}
