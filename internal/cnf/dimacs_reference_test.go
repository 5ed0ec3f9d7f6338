package cnf

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"math/rand"
	"reflect"
	"strconv"
	"strings"
	"testing"
	"unicode/utf8"
)

// refReadDimacs is the string-based reader ReadDimacs replaced, kept as
// the reference the byte-level scan is tested against (FuzzReadDimacs,
// TestReadDimacsMatchesReference): a string per line, strings.Fields and
// strconv.Atoi per token.
func refReadDimacs(r io.Reader) (*Formula, error) {
	f := &Formula{}
	sc := bufio.NewScanner(r)
	sc.Buffer(nil, 1<<26)
	var cur []Lit
	var curXor []int
	inXor := false
	declaredVars := 0
	lineNo := 0
	finishClause := func() {
		if inXor {
			x := XorClause{RHS: true}
			for _, d := range curXor {
				v := d
				if v < 0 {
					x.RHS = !x.RHS
					v = -v
				}
				x.Vars = append(x.Vars, Var(v-1))
			}
			f.Xors = append(f.Xors, x)
			curXor = curXor[:0]
			inXor = false
			return
		}
		f.Clauses = append(f.Clauses, append(Clause(nil), cur...))
		cur = cur[:0]
	}
	for sc.Scan() {
		lineNo++
		line := strings.TrimSpace(sc.Text())
		if !utf8.ValidString(line) {
			return nil, fmt.Errorf("dimacs line %d: invalid UTF-8", lineNo)
		}
		if line == "" || strings.HasPrefix(line, "c") {
			continue
		}
		if strings.HasPrefix(line, "p") {
			fields := strings.Fields(line)
			if len(fields) < 4 || fields[1] != "cnf" {
				return nil, fmt.Errorf("dimacs line %d: truncated or bad problem line %q", lineNo, line)
			}
			n, err := strconv.Atoi(fields[2])
			if err != nil {
				return nil, fmt.Errorf("dimacs line %d: %w", lineNo, err)
			}
			if _, err := strconv.Atoi(fields[3]); err != nil {
				return nil, fmt.Errorf("dimacs line %d: %w", lineNo, err)
			}
			if n < 0 || n > MaxVar {
				return nil, fmt.Errorf("dimacs line %d: declared variable count %d out of range [0, %d]", lineNo, n, MaxVar)
			}
			declaredVars = n
			continue
		}
		if strings.HasPrefix(line, "x") {
			if len(cur) > 0 || inXor {
				return nil, fmt.Errorf("dimacs line %d: xor line inside unterminated clause", lineNo)
			}
			inXor = true
			line = line[1:]
		}
		for _, tok := range strings.Fields(line) {
			d, err := strconv.Atoi(tok)
			if err != nil {
				return nil, fmt.Errorf("dimacs line %d: bad literal %q", lineNo, tok)
			}
			if d == 0 {
				finishClause()
				continue
			}
			v := d
			if v < 0 {
				v = -v
			}
			if v < 0 || v > MaxVar {
				return nil, fmt.Errorf("dimacs line %d: literal %d out of range (max variable %d)", lineNo, d, MaxVar)
			}
			if declaredVars > 0 && v > declaredVars {
				return nil, fmt.Errorf("dimacs line %d: literal %d exceeds declared variable count %d", lineNo, d, declaredVars)
			}
			if v > f.NumVars {
				f.NumVars = v
			}
			if inXor {
				curXor = append(curXor, d)
			} else {
				l, _ := LitFromDimacs(d)
				cur = append(cur, l)
			}
		}
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	if len(cur) > 0 || inXor && len(curXor) > 0 {
		return nil, fmt.Errorf("dimacs: unterminated clause at EOF")
	}
	if declaredVars > f.NumVars {
		f.NumVars = declaredVars
	}
	return f, nil
}

// assertSameRead fails unless ReadDimacs and the reference reader agree on
// s: the same error text, or formulas equal clause for clause and row for
// row.
func assertSameRead(t *testing.T, s string) {
	t.Helper()
	got, err := ReadDimacs(strings.NewReader(s))
	want, refErr := refReadDimacs(strings.NewReader(s))
	if fmt.Sprint(err) != fmt.Sprint(refErr) {
		t.Fatalf("ReadDimacs(%q): error %v, reference error %v", s, err, refErr)
	}
	if err == nil && !reflect.DeepEqual(got, want) {
		t.Fatalf("ReadDimacs(%q) = %+v, reference %+v", s, got, want)
	}
}

// TestReadDimacsMatchesReference runs the byte-level reader and the
// reference over the corners of the grammar: Unicode whitespace, signs and
// leading zeros, 18- and 19-digit literals, XOR lines that span lines or
// hold no variable, clauses across lines, and repeated headers.
func TestReadDimacsMatchesReference(t *testing.T) {
	for _, in := range []string{
		"p cnf 3 2\n1 -2 0\n2 3 0\n",
		"1\u00a0-2\u20030\n\u0085 3 0\n",
		"+1 -0 0\n007 -002 0\n",
		"123456789012345678 0\n1234567890123456789 0\n99999999999999999999 0\n",
		"-9223372036854775808 0\n",
		"x1 -2 3 0 4 0\nx\n1 2 0\nx0\n",
		"x\n",
		"x1 2\n",
		"1 2\nx1 2 0\n",
		"1\n2\n0\nc x\n0\n",
		"p cnf 2 1\np cnf 5 1\n5 0\n",
		"p cnf 5 1\np cnf 2 1\n5 0\n",
		"p  cnf\t4 1 extra\n4 0\n",
		"pcnf 3 1\n",
		"1 2 0 3\n",
		"1 2 0x 3\n",
		"1 ２ 0\n",
		"1 + 0\n",
		"\xff 1 0\n",
	} {
		assertSameRead(t, in)
	}
}

// refWriteDimacs is the fmt-based writer WriteDimacs replaced; its bytes
// are the format's golden.
func refWriteDimacs(w io.Writer, f *Formula) error {
	bw := bufio.NewWriter(w)
	fmt.Fprintf(bw, "p cnf %d %d\n", f.NumVars, len(f.Clauses)+len(f.Xors))
	for _, c := range f.Clauses {
		for _, l := range c {
			fmt.Fprintf(bw, "%d ", l.Dimacs())
		}
		if _, err := bw.WriteString("0\n"); err != nil {
			return err
		}
	}
	for _, x := range f.Xors {
		bw.WriteByte('x')
		for i, v := range x.Vars {
			d := int(v) + 1
			if i == len(x.Vars)-1 && !x.RHS {
				d = -d
			}
			fmt.Fprintf(bw, "%d ", d)
		}
		if _, err := bw.WriteString("0\n"); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// TestWriteDimacsMatchesReference pins WriteDimacs to the bytes of the
// fmt-based writer on random formulas with clauses, empty clauses and XOR
// rows of both parities, and checks that literals render the same way.
func TestWriteDimacsMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for trial := 0; trial < 200; trial++ {
		nv := 1 + rng.Intn(100000)
		f := NewFormula(nv)
		for i := rng.Intn(20); i >= 0; i-- {
			c := make(Clause, rng.Intn(6))
			for j := range c {
				c[j] = MkLit(Var(rng.Intn(nv)), rng.Intn(2) == 0)
				if c[j].String() != fmt.Sprintf("%d", c[j].Dimacs()) {
					t.Fatalf("Lit.String = %q", c[j].String())
				}
			}
			f.Clauses = append(f.Clauses, c)
		}
		for i := rng.Intn(4); i > 0; i-- {
			x := XorClause{RHS: rng.Intn(2) == 0}
			for j := 1 + rng.Intn(5); j > 0; j-- {
				x.Vars = append(x.Vars, Var(rng.Intn(nv)))
			}
			f.Xors = append(f.Xors, x)
		}
		var got, want bytes.Buffer
		if err := WriteDimacs(&got, f); err != nil {
			t.Fatal(err)
		}
		if err := refWriteDimacs(&want, f); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got.Bytes(), want.Bytes()) {
			t.Fatalf("WriteDimacs:\n%s\nreference:\n%s", got.Bytes(), want.Bytes())
		}
	}
}

// A clause line longer than the scanner's default 64 KiB token grows the
// buffer instead of failing.
func TestReadDimacsLongLine(t *testing.T) {
	var sb strings.Builder
	for v := 1; v <= 200000; v++ {
		fmt.Fprintf(&sb, "%d ", v)
	}
	sb.WriteString("0\n")
	f, err := ReadDimacs(strings.NewReader(sb.String()))
	if err != nil {
		t.Fatal(err)
	}
	if len(f.Clauses) != 1 || len(f.Clauses[0]) != 200000 || f.NumVars != 200000 {
		t.Fatalf("got %d clauses, %d vars", len(f.Clauses), f.NumVars)
	}
}
