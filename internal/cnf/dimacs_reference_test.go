package cnf

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"math/rand"
	"strings"
	"testing"
)

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
