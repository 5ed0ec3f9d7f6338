package anf

import (
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/gf2"
)

func TestFromTruthTableConstants(t *testing.T) {
	vars := []Var{0, 1}
	if !FromTruthTable(vars, []bool{false, false, false, false}).IsZero() {
		t.Fatal("all-false table should give 0")
	}
	if !FromTruthTable(vars, []bool{true, true, true, true}).IsOne() {
		t.Fatal("all-true table should give 1")
	}
}

func TestFromTruthTableKnown(t *testing.T) {
	vars := []Var{0, 1}
	// AND: true only at m=3.
	and := FromTruthTable(vars, []bool{false, false, false, true})
	if !and.Equal(MustParsePoly("x0*x1")) {
		t.Fatalf("AND = %s", and)
	}
	// XOR: true at m=1,2.
	xor := FromTruthTable(vars, []bool{false, true, true, false})
	if !xor.Equal(MustParsePoly("x0 + x1")) {
		t.Fatalf("XOR = %s", xor)
	}
	// OR = x0 + x1 + x0x1.
	or := FromTruthTable(vars, []bool{false, true, true, true})
	if !or.Equal(MustParsePoly("x0*x1 + x0 + x1")) {
		t.Fatalf("OR = %s", or)
	}
}

func TestFromTruthTableLengthPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic on bad table length")
		}
	}()
	FromTruthTable([]Var{0, 1}, []bool{true})
}

// Property: FromTruthTable ∘ TruthTable is the identity on polynomials
// over the chosen variables, and TruthTable ∘ FromTruthTable is the
// identity on tables, whatever the order of the variables.
func TestQuickMobiusRoundTrip(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(8)
		vars := make([]Var, n)
		for i, v := range rng.Perm(2 * n)[:n] {
			vars[i] = Var(v)
		}
		table := make([]bool, 1<<uint(n))
		for i := range table {
			table[i] = rng.Intn(2) == 1
		}
		p := FromTruthTable(vars, table)
		back := p.TruthTable(vars)
		for i := range table {
			if back[i] != table[i] {
				return false
			}
		}
		// And the polynomial round trip.
		q := FromTruthTable(vars, back)
		return q.Equal(p)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 120}); err != nil {
		t.Fatal(err)
	}
}

func TestMobiusNonContiguousVars(t *testing.T) {
	vars := []Var{3, 7}
	p := FromTruthTable(vars, []bool{false, false, false, true})
	if !p.Equal(MustParsePoly("x3*x7")) {
		t.Fatalf("got %s", p)
	}
}

// TruthTable must agree with point-by-point evaluation for vars in any
// order, with variables p lacks and without variables p has (those read
// as false), and the packed table must agree with the unpacked one.
func TestTruthTableMatchesEval(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for trial := 0; trial < 400; trial++ {
		p := randPoly(rng, 10, 10, 4)
		// vars: a random subset of x0..x11 in random order, so some of
		// p's variables are missing and some of vars do not occur in p.
		var vars []Var
		for _, v := range rng.Perm(12)[:rng.Intn(11)] {
			vars = append(vars, Var(v))
		}
		table := p.TruthTable(vars)
		dirty := make([]uint64, rng.Intn(20)) // reused storage is cleared first
		for i := range dirty {
			dirty[i] = ^uint64(0)
		}
		packed := p.PackedTruthTable(vars, dirty)
		if len(table) != 1<<uint(len(vars)) {
			t.Fatalf("table length %d for %d variables", len(table), len(vars))
		}
		for m, got := range table {
			want := p.Eval(func(v Var) bool {
				for i, u := range vars {
					if u == v {
						return m>>uint(i)&1 == 1
					}
				}
				return false
			})
			if got != want || gf2.TestBit(packed, m) != want {
				t.Fatalf("trial %d: %s over %v at %b: table %v, packed %v, Eval %v",
					trial, p, vars, m, got, gf2.TestBit(packed, m), want)
			}
		}
	}
}
