package anf

import (
	"strings"
	"testing"
)

// FuzzParsePoly checks the byte-level parser against the reference
// string-splitting one (parse_reference_test.go): both accept or both
// reject, and accepted input gives the same polynomial, which survives a
// print/parse round trip.
func FuzzParsePoly(f *testing.F) {
	for _, seed := range []string{
		"x1*x2 + x3 + 1",
		"0",
		"1",
		"x0",
		"x4294967295",
		"x1 + x1",
		"  x2 * x3  +  1 ",
		"x1*x2*x3*x4*x5",
		"x1 ⊕ x2",
		"+ x1",
		"x1 +",
		"y1",
		"x",
		"x1**x2",
		"X3*x1*x3 +\u00a0x2\u3000⊕ 1 + 0",
		"x0001 + x1",
		"1 x1",
		"x1\xc2",
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, s string) {
		p, err := ParsePoly(s)
		want, refErr := refParsePoly(s)
		if (err == nil) != (refErr == nil) {
			t.Fatalf("ParsePoly(%q): error %v, reference error %v", s, err, refErr)
		}
		if err != nil {
			return
		}
		if !p.Equal(want) {
			t.Fatalf("ParsePoly(%q) = %q, reference %q", s, p.String(), want.String())
		}
		back, err := ParsePoly(p.String())
		if err != nil {
			t.Fatalf("printed form %q of %q does not parse: %v", p.String(), s, err)
		}
		if !back.Equal(p) {
			t.Fatalf("round trip changed %q: %q vs %q", s, p.String(), back.String())
		}
	})
}

// FuzzReadSystem checks the system reader — the entry point for service
// payloads — against the reference reader: both accept or both reject,
// and an accepted system has the same equations in the same slots and the
// same NumVars, one more than the largest index a stored equation names
// (cancelled terms do not count). Accepted systems also survive a
// write/read round trip.
func FuzzReadSystem(f *testing.F) {
	for _, seed := range []string{
		"x1*x2 + x3 + 1\nx1 + x3\n",
		"# comment\nx1\n\nc more\nx2 + 1\n",
		"x1 +\n",
		"x99999999999\n",
		"x16777217\n", // MaxVarIndex + 1
		"\xff\xfex1\n",
		"0\n1\n",
		strings.Repeat("x1 + ", 50) + "1\n",
		"c\nc x9\ncx1\n",
		"\u00a0 x2*x1 ⊕ X1\r\n\tx5 + x5\n\u2003# x7\n",
		"x3 + x3 + x2\nx2*x2*x4\n",
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, s string) {
		sys, err := ReadSystem(strings.NewReader(s))
		want, refErr := refReadSystem(strings.NewReader(s))
		if (err == nil) != (refErr == nil) {
			t.Fatalf("ReadSystem(%q): error %v, reference error %v", s, err, refErr)
		}
		if err != nil {
			return
		}
		assertSameSystem(t, sys, want)
		numVars := 0
		for i := 0; i < sys.RawLen(); i++ {
			for _, v := range sys.At(i).Vars() {
				numVars = max(numVars, int(v)+1)
			}
		}
		if sys.NumVars() != numVars {
			t.Fatalf("ReadSystem(%q): NumVars = %d, stored equations need %d", s, sys.NumVars(), numVars)
		}
		var sb strings.Builder
		if err := WriteSystem(&sb, sys); err != nil {
			t.Fatalf("write failed: %v", err)
		}
		back, err := ReadSystem(strings.NewReader(sb.String()))
		if err != nil {
			t.Fatalf("round trip does not parse: %v", err)
		}
		assertSameSystem(t, back, sys)
	})
}

// assertSameSystem fails unless got and want hold equal polynomials in
// the same slots and the same NumVars.
func assertSameSystem(t *testing.T, got, want *System) {
	t.Helper()
	if got.RawLen() != want.RawLen() || got.NumVars() != want.NumVars() {
		t.Fatalf("shape: %d slots, %d vars; want %d, %d", got.RawLen(), got.NumVars(), want.RawLen(), want.NumVars())
	}
	for i := 0; i < got.RawLen(); i++ {
		if !got.At(i).Equal(want.At(i)) {
			t.Fatalf("slot %d = %q, want %q", i, got.At(i).String(), want.At(i).String())
		}
	}
}

// TestParseRejectsMalformed pins the hardening contract for the ANF
// reader: out-of-range indices and non-UTF-8 input error out, never
// panic, never produce a system with an absurd variable space.
func TestParseRejectsMalformed(t *testing.T) {
	bad := []struct{ name, in string }{
		{"index beyond MaxVarIndex", "x16777217\n"},
		{"huge index", "x4294967295\n"},
		{"overflowing index", "x99999999999999999999\n"},
		{"non-UTF-8", "\xff\xfex1\n"},
		{"empty term", "x1 +\n"},
		{"bad factor", "x1*y2\n"},
	}
	for _, tc := range bad {
		if _, err := ReadSystem(strings.NewReader(tc.in)); err == nil {
			t.Errorf("%s: accepted %q", tc.name, tc.in)
		}
	}
	if sys, err := ReadSystem(strings.NewReader("x16777216\n")); err != nil {
		t.Errorf("index at MaxVarIndex rejected: %v", err)
	} else if sys.NumVars() != MaxVarIndex+1 {
		t.Errorf("NumVars = %d, want %d", sys.NumVars(), MaxVarIndex+1)
	}
}
