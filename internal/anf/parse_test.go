package anf

import (
	"bytes"
	"math/rand"
	"strings"
	"testing"
)

// TestReaderMatchesReference runs the byte-level reader and the reference
// reader over the corners of the language: Unicode whitespace, "⊕", "X",
// the comment forms, MaxVarIndex, cancelling and repeated factors and
// terms, and the 16 MiB line cap. Both must accept or both reject, and
// accepted input must give the same system.
func TestReaderMatchesReference(t *testing.T) {
	long := "x1 +" + strings.Repeat(" ", maxLineBytes-len("x1 + x2\n")) + " x2\n"
	for _, in := range []string{
		"\u00a0x1 *\u3000x2 +\u0085x3\u2003\v\f\r\n",
		"x1 ⊕ x2 ⊕ 1\nx2⊕x3\n",
		"X1*X2 + x1\n",
		"# comment\n  # indented comment\nc comment\nc\n c comment\nx1\n",
		"c\tx1\n",
		"cx1\n",
		"c x1\n",
		"x16777216\n",
		"x000000000000000000016777216\n",
		"x16777217\n",
		"x1 + x1\nx2*x2*x3 + x3*x2 + x4\nx5 + x5 + x5\n0\n1 + 1\n",
		"x3*x1 + x1*x3*x3 + x2\n",
		"x1 +\n",
		"x1 *\n",
		"x1 x2\n",
		"x 1\n",
		"x1 * 1\n",
		"01\n",
		"x-1\n",
		"x+1\n",
		"x1\r\nx2\r\n",
		"x1\xc2\xa0\n",
		"x1\xa0\n",
		long,
		long[:len(long)-2] + "x22\n",
	} {
		sys, err := ReadSystem(strings.NewReader(in))
		want, refErr := refReadSystem(strings.NewReader(in))
		name := in
		if len(name) > 40 {
			name = name[:40] + "..."
		}
		if (err == nil) != (refErr == nil) {
			t.Errorf("%q: error %v, reference error %v", name, err, refErr)
			continue
		}
		if err == nil {
			assertSameSystem(t, sys, want)
		}
	}
}

// TestReadSystemErrorLines pins that errors name the line they occur on,
// counting blank and comment lines.
func TestReadSystemErrorLines(t *testing.T) {
	for _, tc := range []struct{ in, line string }{
		{"x1\n\n# c\nx2 +\n", "line 4:"},
		{"x1\n\xff\n", "line 2:"},
		{"x1*y2\n", "line 1:"},
	} {
		_, err := ReadSystem(strings.NewReader(tc.in))
		if err == nil || !strings.HasPrefix(err.Error(), tc.line) {
			t.Errorf("%q: error %v, want prefix %q", tc.in, err, tc.line)
		}
	}
}

// TestWriteMatchesReference pins the append-based writers to the bytes of
// the fmt-based ones they replaced.
func TestWriteMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 200; trial++ {
		sys := NewSystem()
		for i := rng.Intn(12); i >= 0; i-- {
			p := randPoly(rng, 1+rng.Intn(3000), 8, 4)
			if s, want := p.String(), refPolyString(p); s != want {
				t.Fatalf("Poly.String = %q, reference %q", s, want)
			}
			for _, m := range p.Terms() {
				if s, want := m.String(), refMonomialString(m); s != want {
					t.Fatalf("Monomial.String = %q, reference %q", s, want)
				}
			}
			sys.Add(p)
		}
		if trial%3 == 0 && sys.RawLen() > 0 {
			sys.Replace(0, Zero())
		}
		var got, want bytes.Buffer
		if err := WriteSystem(&got, sys); err != nil {
			t.Fatal(err)
		}
		if err := refWriteSystem(&want, sys); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got.Bytes(), want.Bytes()) {
			t.Fatalf("WriteSystem:\n%s\nreference:\n%s", got.Bytes(), want.Bytes())
		}
	}
	if Zero().String() != "0" || OnePoly().String() != "1" || One.String() != "1" || Var(42).String() != "x42" {
		t.Fatal("constant or variable rendering changed")
	}
}

// TestParsedStorageIsDisjoint checks that the slab-carved storage of a
// parsed system behaves like separately allocated slices: rewriting one
// polynomial in place, appending to a monomial's variables, or adding an
// equation leaves every other equation as it was.
func TestParsedStorageIsDisjoint(t *testing.T) {
	const text = "x1*x2 + x3 + 1\nx2*x3 + x1\nx3 + x4\nx1*x4 + x2 + x3\n"
	sys, err := ReadSystem(strings.NewReader(text))
	if err != nil {
		t.Fatal(err)
	}
	snapshot := func() []string {
		var out []string
		for i := 0; i < sys.RawLen(); i++ {
			out = append(out, sys.At(i).String())
		}
		return out
	}
	before := snapshot()
	unchangedBut := func(skip int) {
		t.Helper()
		for i, s := range snapshot()[:len(before)] {
			if i != skip && s != before[i] {
				t.Errorf("slot %d changed from %q to %q", i, before[i], s)
			}
		}
	}

	_ = append(sys.At(0).Terms()[0].Vars(), 99)
	_ = append(sys.At(0).Terms(), NewMonomial(77))
	unchangedBut(-1)
	var s Substituter
	p := sys.At(1)
	s.SubstituteInPlace(&p, 3, MustParsePoly("x5*x6 + x7")) // grows the equation
	unchangedBut(1)
	sys.Add(MustParsePoly("x1 + x4"))
	unchangedBut(1)
}
