package proof

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"io"
	"strconv"
	"strings"
	"testing"

	"repro/internal/cnf"
)

// square is the 4-clause propagation-complete UNSAT formula over 2 vars.
func square() *cnf.Formula {
	f := &cnf.Formula{}
	f.AddClause(cnf.MkLit(0, false), cnf.MkLit(1, false))
	f.AddClause(cnf.MkLit(0, true), cnf.MkLit(1, false))
	f.AddClause(cnf.MkLit(0, false), cnf.MkLit(1, true))
	f.AddClause(cnf.MkLit(0, true), cnf.MkLit(1, true))
	return f
}

func impl2() *cnf.Formula {
	// (x1 ∨ x2)(¬x1 ∨ x2)(¬x2 ∨ x3): satisfiable.
	f := &cnf.Formula{}
	f.AddClause(cnf.MkLit(0, false), cnf.MkLit(1, false))
	f.AddClause(cnf.MkLit(0, true), cnf.MkLit(1, false))
	f.AddClause(cnf.MkLit(1, true), cnf.MkLit(2, false))
	return f
}

func xor1() *cnf.Formula {
	// x1 ⊕ x2 = 1, three variables declared.
	f := &cnf.Formula{}
	f.NumVars = 3
	f.AddXor(true, 0, 1)
	return f
}

func TestCheckTable(t *testing.T) {
	cases := []struct {
		name     string
		formula  func() *cnf.Formula
		proof    string
		verified bool
		wantErr  bool
	}{
		{"classic-rup-unsat", square, "2 0\n0\n", true, false},
		// Forward checking accepts as soon as the database is contradictory:
		// the unit 2 already propagates the square to a conflict.
		{"early-accept", square, "2 0\n", true, false},
		{"empty-clause-not-rup", square, "0\n", false, true},
		{"unit-not-rup", impl2, "1 0\n", false, true},
		{"unit-rup-but-sat", impl2, "2 0\n", false, false},
		{"delete-then-rup-fails", impl2, "d 1 2 0\n2 0\n", false, true},
		{"delete-unknown-ignored", impl2, "d 1 3 0\n2 0\n", false, false},
		{"xor-justify-both-false", xor1, "x 1 2 0\n", false, false},
		{"xor-justify-both-true", xor1, "x -1 -2 0\n", false, false},
		{"xor-justify-wrong-parity", xor1, "x 1 -2 0\n", false, true},
		{"xor-justify-not-in-span", xor1, "x 3 0\n", false, true},
		{"xor-empty-needs-unsat-rows", xor1, "x 0\n", false, true},
		{"tautology-accepted", impl2, "1 -1 0\n", false, false},
		{"bad-token", impl2, "1 zebra 0\n", false, true},
		{"truncated", impl2, "1 2\n", false, true},
		{"var-out-of-range", impl2, "7 0\n", false, true},
		// 2^31+2 and the varint 2^32+4 do not fit a cnf.Lit; narrowed,
		// both would read as the literal 2, and the square would verify.
		{"text-literal-beyond-lit", square, "2147483650 0\n0\n", false, true},
		{"binary-literal-beyond-lit", square, "a\x84\x80\x80\x80\x10\x00a\x00", false, true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			res, err := Check(tc.formula(), strings.NewReader(tc.proof))
			if tc.wantErr {
				if err == nil {
					t.Fatalf("expected error, got %+v", res)
				}
				return
			}
			if err != nil {
				t.Fatalf("unexpected error: %v", err)
			}
			if res.Verified != tc.verified {
				t.Fatalf("Verified = %v, want %v (%+v)", res.Verified, tc.verified, res)
			}
		})
	}
}

// spacedSquare is the square with its clause (x1 ∨ x2) twice, each copy
// after ten of twenty three-literal filler clauses over x3..x8, and the
// proof text that deletes every filler, its literals reversed. Those
// deletions compact the checker's arena and move the square's clauses.
func spacedSquare() (*cnf.Formula, string) {
	f := &cnf.Formula{}
	add := func(ds ...int) {
		lits := make([]cnf.Lit, len(ds))
		for i, d := range ds {
			lits[i], _ = cnf.LitFromDimacs(d)
		}
		f.AddClause(lits...)
	}
	var del strings.Builder
	for a := 3; a <= 8; a++ {
		for b := a + 1; b <= 8; b++ {
			for c := b + 1; c <= 8; c++ {
				if len(f.Clauses) == 10 {
					add(1, 2)
				}
				add(a, b, c)
				fmt.Fprintf(&del, "d %d %d %d 0\n", c, b, a)
			}
		}
	}
	add(1, 2)
	add(-1, 2)
	add(1, -2)
	add(-1, -2)
	return f, del.String()
}

// Deleted clauses are freed: once the fillers are gone the arena holds
// little more than the square's five clauses, and the moved clauses still
// propagate and are still found by a deletion, the newer copy of (x1 ∨ x2)
// first.
func TestDeletedClausesAreFreed(t *testing.T) {
	f, deletions := spacedSquare()
	c, err := newChecker(f)
	if err != nil {
		t.Fatal(err)
	}
	sc := bufio.NewScanner(strings.NewReader(deletions))
	for sc.Scan() {
		var a, b, d int
		if _, err := fmt.Sscanf(sc.Text(), "d %d %d %d 0", &a, &b, &d); err != nil {
			t.Fatal(err)
		}
		lits := []cnf.Lit{cnf.MkLit(cnf.Var(a-1), false), cnf.MkLit(cnf.Var(b-1), false), cnf.MkLit(cnf.Var(d-1), false)}
		if err := c.step('d', lits); err != nil {
			t.Fatal(err)
		}
	}
	// 121 words before; compaction keeps at most as many deleted words as
	// live ones.
	if live := 1 + 5*(headerLen+2); len(c.arena)-c.wasted != live || len(c.arena) > 2*live {
		t.Fatalf("after the fillers' deletion: %d arena words, %d wasted; want %d live and at most %d in all",
			len(c.arena), c.wasted, live, 2*live)
	}
	starts := map[uint32]bool{}
	for ref := uint32(1); ref < uint32(len(c.arena)); ref += headerLen + c.arena[ref]>>1 {
		starts[ref] = true
	}
	for l, ws := range c.watches {
		for _, w := range ws {
			if !starts[w.ref] {
				t.Fatalf("a watch on %v names ref %d, not a clause", cnf.Lit(l).Not(), w.ref)
			}
			if lits := c.arena[w.ref+headerLen:]; lits[0] != uint32(cnf.Lit(l).Not()) && lits[1] != uint32(cnf.Lit(l).Not()) {
				t.Fatalf("a watch on %v names clause %v, which does not watch it", cnf.Lit(l).Not(), lits[:c.arena[w.ref]>>1])
			}
		}
	}
	for _, tc := range []struct {
		tail    string
		wantErr bool
	}{
		{"d 2 1 0\n2 0\n0\n", false},
		{"d 2 1 0\nd 1 2 0\n2 0\n0\n", true},
	} {
		proof := deletions + tc.tail
		got, gotErr := CheckText(f, strings.NewReader(proof))
		want, wantErr := refCheckText(f, strings.NewReader(proof))
		if (gotErr != nil) != tc.wantErr || fmt.Sprint(gotErr) != fmt.Sprint(wantErr) {
			t.Fatalf("%q: error %v, reference %v", tc.tail, gotErr, wantErr)
		}
		if gotErr == nil && (*got != *want || !got.Verified) {
			t.Fatalf("%q: %+v, reference %+v", tc.tail, *got, *want)
		}
	}
}

func TestXorInconsistentRowsJustifyEmpty(t *testing.T) {
	f := &cnf.Formula{}
	f.NumVars = 2
	f.AddXor(true, 0, 1)
	f.AddXor(false, 0, 1)
	res, err := Check(f, strings.NewReader("x 0\n"))
	if err != nil {
		t.Fatalf("Check: %v", err)
	}
	if !res.Verified {
		t.Fatalf("inconsistent XOR rows + x 0 should verify: %+v", res)
	}
}

func TestBinaryRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	w := NewBinaryWriter(&buf)
	w.Learn([]cnf.Lit{cnf.MkLit(1, false)}) // 2 0 in DIMACS
	w.Learn(nil)
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	res, err := Check(square(), bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatalf("Check(binary): %v", err)
	}
	if !res.Verified {
		t.Fatalf("binary round trip should verify: %+v", res)
	}
}

func TestTextWriterForms(t *testing.T) {
	var buf bytes.Buffer
	w := NewTextWriter(&buf)
	w.Learn([]cnf.Lit{cnf.MkLit(0, false), cnf.MkLit(1, true)})
	w.Delete([]cnf.Lit{cnf.MkLit(0, false)})
	w.Justify([]cnf.Lit{cnf.MkLit(2, true)})
	w.Learn(nil)
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	want := "1 -2 0\nd 1 0\nx -3 0\n0\n"
	if buf.String() != want {
		t.Fatalf("text form = %q, want %q", buf.String(), want)
	}
}

// spellOut writes one record in the two DRAT forms the long way: text
// literals in decimal after the kind's prefix, binary ones as ULEB128
// codes l+2 after the kind's tag byte.
func spellOut(kind byte, lits []cnf.Lit) (string, []byte) {
	text := map[byte]string{'a': "", 'd': "d ", 'x': "x "}[kind]
	bin := []byte{kind}
	for _, l := range lits {
		text += strconv.Itoa(l.Dimacs()) + " "
		u := uint64(l) + 2
		for ; u >= 0x80; u >>= 7 {
			bin = append(bin, byte(u)|0x80)
		}
		bin = append(bin, byte(u))
	}
	return text + "0\n", append(bin, 0)
}

// Fixed records: the two literals of the largest variable, whose codes
// 2^32 and 2^32+1 take five varint bytes each, and one record longer than
// the writers' buffers. Reading each back gives the same literals.
func TestWriterRecords(t *testing.T) {
	top := cnf.Var(1<<31 - 1)
	long := make([]cnf.Lit, 3000)
	for i := range long {
		long[i] = cnf.MkLit(cnf.Var(i/2), i%2 == 1)
	}
	for _, tc := range []struct {
		name     string
		lits     []cnf.Lit
		text     string
		bin      string
		formula  *cnf.Formula
		checkErr string
	}{
		{"largest-variable", []cnf.Lit{cnf.MkLit(top, false), cnf.MkLit(top, true)},
			"2147483648 -2147483648 0\n", "a\x80\x80\x80\x80\x10\x81\x80\x80\x80\x10\x00",
			square(), "proof: step 1: variable 2147483648 beyond formula header"},
		{"longer-than-buffer", long, "", "", &cnf.Formula{NumVars: len(long) / 2}, ""},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var text, bin bytes.Buffer
			tw, bw := NewTextWriter(&text), NewBinaryWriter(&bin)
			tw.Learn(tc.lits)
			bw.Learn(tc.lits)
			if err := errors.Join(tw.Flush(), bw.Flush()); err != nil {
				t.Fatal(err)
			}
			wantText, wantBin := spellOut('a', tc.lits)
			if tc.text != "" && (wantText != tc.text || string(wantBin) != tc.bin) {
				t.Fatalf("spellOut gives %q and %q, want %q and %q", wantText, wantBin, tc.text, tc.bin)
			}
			if text.String() != wantText || !bytes.Equal(bin.Bytes(), wantBin) {
				t.Fatalf("writers gave %d text and %d binary bytes, want %d and %d",
					text.Len(), bin.Len(), len(wantText), len(wantBin))
			}
			for _, form := range []struct {
				name  string
				check func(*cnf.Formula, io.Reader) (*CheckResult, error)
				proof []byte
			}{{"text", CheckText, text.Bytes()}, {"binary", CheckBinary, bin.Bytes()}} {
				res, err := form.check(tc.formula, bytes.NewReader(form.proof))
				switch {
				case tc.checkErr != "":
					if err == nil || err.Error() != tc.checkErr {
						t.Errorf("%s: error %v, want %q", form.name, err, tc.checkErr)
					}
				case err != nil || res.Adds != 1:
					// The long clause is a tautology, accepted as one step.
					t.Errorf("%s: %+v, %.200v; want one addition", form.name, res, err)
				}
			}
		})
	}
}

func TestMutatedProofRejected(t *testing.T) {
	// The classic proof of the square, with the unit's polarity flipped:
	// "-2 0" is still RUP, but then "0" must still check — it does (the
	// square is symmetric), so flip a literal inside a longer proof over a
	// formula where it breaks.
	f := impl2()
	good := "2 0\n3 0\n"
	if _, err := Check(f, strings.NewReader(good)); err != nil {
		t.Fatalf("good proof rejected: %v", err)
	}
	bad := "2 0\n-3 0\n" // ¬x3 is not implied: x2 forces x3
	if _, err := Check(f, strings.NewReader(bad)); err == nil {
		t.Fatalf("mutated proof accepted")
	}
}
