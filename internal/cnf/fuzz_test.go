package cnf

import (
	"strings"
	"testing"
)

// FuzzReadDimacs checks that the DIMACS reader never panics, that it
// agrees with the reference reader (the same error text, or the same
// formula), and that accepted inputs survive a write/read round trip with
// stable semantics on a fixed assignment.
func FuzzReadDimacs(f *testing.F) {
	for _, seed := range []string{
		"p cnf 2 1\n1 -2 0\n",
		"c comment\np cnf 3 2\n1 2 3 0\n-1 0\n",
		"1 2 0",
		"x1 2 -3 0\n",
		"p cnf 0 0\n",
		"1\n2\n0\n",
		"p cnf a b\n",
		"zz\n",
		"x1 2\n3 0\n",
		"-0 0\n",
		// Hardening seeds: truncated header, header with missing clause
		// count, literal beyond the declared count, literal beyond MaxVar,
		// MinInt literal, and non-UTF-8 bytes.
		"p cnf 3\n",
		"p cnf 3 \n1 2 0\n",
		"p cnf 2 1\n1 99 0\n",
		"1 671088650 0\n",
		"-9223372036854775808 0\n",
		"p cnf 2 1\n\xff\xfe 1 2 0\n",
		"p cnf 99999999999999999999 1\n",
		"p cnf -1 0\n",
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, s string) {
		assertSameRead(t, s)
		frm, err := ReadDimacs(strings.NewReader(s))
		if err != nil {
			return
		}
		if frm.NumVars > 1<<16 {
			return // avoid giant assignments in the check below
		}
		var sb strings.Builder
		if err := WriteDimacs(&sb, frm); err != nil {
			t.Fatalf("write failed: %v", err)
		}
		back, err := ReadDimacs(strings.NewReader(sb.String()))
		if err != nil {
			t.Fatalf("round trip does not parse: %v", err)
		}
		assign := func(v Var) bool { return v%3 == 0 }
		if frm.Eval(assign) != back.Eval(assign) {
			t.Fatal("round trip changed semantics")
		}
	})
}

// TestReadDimacsRejectsMalformed pins the service-hardening contract:
// malformed bodies return errors (never panic, never silently build a
// formula with an absurd variable space).
func TestReadDimacsRejectsMalformed(t *testing.T) {
	bad := []struct{ name, in string }{
		{"truncated header", "p cnf 3\n"},
		{"non-numeric var count", "p cnf a 1\n"},
		{"non-numeric clause count", "p cnf 1 b\n"},
		{"negative var count", "p cnf -1 0\n"},
		{"overflowing var count", "p cnf 99999999999999999999 1\n"},
		{"declared count beyond MaxVar", "p cnf 999999999 1\n"},
		{"literal beyond declared", "p cnf 2 1\n1 3 0\n"},
		{"literal beyond MaxVar", "1 671088650 0\n"},
		{"MinInt literal", "-9223372036854775808 0\n"},
		{"non-UTF-8 bytes", "\xff\xfe1 2 0\n"},
		{"unterminated clause", "p cnf 2 1\n1 2\n"},
		{"xor inside clause", "1 2\nx1 2 0\n"},
	}
	for _, tc := range bad {
		if _, err := ReadDimacs(strings.NewReader(tc.in)); err == nil {
			t.Errorf("%s: accepted %q", tc.name, tc.in)
		}
	}
	good := []struct{ name, in string }{
		{"header exactly at count", "p cnf 2 1\n1 -2 0\n"},
		{"no header infers vars", "1 -2 0\n"},
		{"xor clause", "x1 2 -3 0\n"},
	}
	for _, tc := range good {
		if _, err := ReadDimacs(strings.NewReader(tc.in)); err != nil {
			t.Errorf("%s: rejected %q: %v", tc.name, tc.in, err)
		}
	}
}
