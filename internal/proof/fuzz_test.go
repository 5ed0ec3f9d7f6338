package proof

import (
	"bufio"
	"bytes"
	"io"
	"strconv"
	"strings"
	"testing"
	"unicode"
	"unicode/utf8"

	"repro/internal/cnf"
	"repro/internal/sat"
)

// FuzzProofCheck feeds arbitrary bytes to the checker as a proof of a
// fixed formula: the checker must never panic, and — the DRAT soundness
// property — it must never report Verified on a satisfiable formula.
func FuzzProofCheck(f *testing.F) {
	f.Add([]byte("2 0\n"))
	f.Add([]byte("d 1 2 0\n2 0\n"))
	f.Add([]byte("x 1 2 0\n0\n"))
	f.Add([]byte{0x61, 0x04, 0x00})
	f.Add([]byte("1 -1 0\nd 3 0\n"))
	f.Add([]byte("2147483650 0\n"))
	f.Add([]byte("-9223372036854775808 0\n"))
	f.Add([]byte{'a', 0x84, 0x80, 0x80, 0x80, 0x10, 0x00})
	sample := phpFuzz()
	f.Fuzz(func(t *testing.T, proof []byte) {
		res, err := Check(sample, bytes.NewReader(proof))
		if err != nil {
			return
		}
		if res.Verified {
			t.Fatalf("satisfiable formula verified UNSAT by proof %q", proof)
		}
	})
}

// phpFuzz is a small satisfiable formula with an XOR row so all record
// kinds are reachable.
func phpFuzz() *cnf.Formula {
	f := &cnf.Formula{}
	f.AddClause(cnf.MkLit(0, false), cnf.MkLit(1, false))
	f.AddClause(cnf.MkLit(0, true), cnf.MkLit(2, false))
	f.AddClause(cnf.MkLit(1, true), cnf.MkLit(2, true), cnf.MkLit(3, false))
	f.AddXor(true, 2, 3)
	return f
}

// FuzzProofMutation solves a fixed UNSAT instance once, then applies the
// fuzzed byte edit to the recorded proof: any mutation must either fail
// to parse, fail a RUP/justification step, or still be a valid proof —
// never crash the checker.
func FuzzProofMutation(f *testing.F) {
	formula := phpUnsatFuzz()
	s := sat.New(sat.DefaultOptions(sat.ProfileMiniSat))
	var buf bytes.Buffer
	w := NewTextWriter(&buf)
	s.SetProof(w)
	if s.AddFormula(formula) {
		s.Solve()
	}
	if err := w.Flush(); err != nil {
		f.Fatal(err)
	}
	base := buf.Bytes()
	f.Add(0, byte(' '))
	f.Add(1, byte('-'))
	f.Add(2, byte('9'))
	f.Fuzz(func(t *testing.T, pos int, b byte) {
		if len(base) == 0 {
			t.Skip()
		}
		mut := append([]byte(nil), base...)
		mut[abs(pos)%len(mut)] = b
		_, _ = Check(formula, bytes.NewReader(mut)) // must not panic
	})
}

func phpUnsatFuzz() *cnf.Formula { return php(4, 3) }

func abs(x int) int {
	if x < 0 {
		return -x
	}
	return x
}

// FuzzCheckMatchesReference runs Check, CheckText and CheckBinary beside
// the reference checker (check_reference_test.go) on a small formula
// decoded from spec and raw proof bytes, read both as text and as binary:
// the results, whether there is an error, and the error texts must agree.
func FuzzCheckMatchesReference(f *testing.F) {
	for _, s := range []struct {
		formula *cnf.Formula
		proof   string
	}{
		{impl2(), "d 1 3 0\nd 2 1 0\nd 1 2 0\n2 0\n"},                 // deleting absent clauses
		{impl2(), "1 2 0\n2 1 1 0\nd 1 2 0\nd 2 1 0\nd 1 2 0\n2 0\n"}, // duplicates deleted newest first
		{xor1(), "x 1 2 0\nx -1 -2 0\nx 3 0\n"},                       // x records
		{impl2(), "1 -1 0\nd 2 -2 0\n2 0\n"},                          // tautologies
		{square(), "2\u00a00\u3000\n\u20280\u0085"},                   // Unicode spaces
		{square(), "+2 0 +0\n"},                                       // + signs
		{square(), "0002 -0001 00\n-0 \n"},                            // leading zeros
		{square(), "2147483650 0\n0\n"},                               // literals that alias small ones
		{square(), "-2147483650 0\n9223372036854775807 0\n"},
		{square(), "-9223372036854775808 0\n99999999999999999999 0\n"},
		{square(), "a\x84\x80\x80\x80\x10\x00a\x00"},
		{square(), "a\xff\xff\xff\xff\x1f\x00a\x00"},
		{square(), "a\x84\x80\x80\x80\x80\x01\x00"}, // varint overflow
		{square(), "d 2 0 x 0 d"},
	} {
		f.Add(encodeFormula(s.formula), []byte(s.proof))
	}
	spaced, deletions := spacedSquare() // compacts the arena
	f.Add(encodeFormula(spaced), []byte(deletions+"d 2 1 0\n2 0\n0\n"))
	f.Add(encodeFormula(spaced), []byte(deletions+"d 2 1 0\nd 1 2 0\n2 0\n0\n"))
	for _, tc := range []struct {
		formula *cnf.Formula
		profile sat.Profile
	}{
		{php(4, 3), sat.ProfileMiniSat},
		{parityBlend(5), sat.ProfileMiniSat},
		{parityBlend(5), sat.ProfileCMS},
	} {
		for _, binary := range []bool{false, true} {
			_, pf := solveWithProof(f, tc.formula, tc.profile, false, binary)
			f.Add(encodeFormula(tc.formula), pf)
		}
	}
	f.Fuzz(func(t *testing.T, spec, proof []byte) {
		formula := decodeFormula(spec)
		for _, form := range []struct {
			name     string
			got, ref func(*cnf.Formula, io.Reader) (*CheckResult, error)
		}{
			{"auto", Check, refCheck},
			{"text", CheckText, refCheckText},
			{"binary", CheckBinary, refCheckBinary},
		} {
			got, gotErr := form.got(formula, bytes.NewReader(proof))
			want, wantErr := form.ref(formula, bytes.NewReader(proof))
			switch {
			case (gotErr == nil) != (wantErr == nil):
				t.Fatalf("%s: error %v, reference %v", form.name, gotErr, wantErr)
			case gotErr != nil && gotErr.Error() != wantErr.Error():
				t.Fatalf("%s: error %q, reference %q", form.name, gotErr, wantErr)
			case gotErr == nil && *got != *want:
				t.Fatalf("%s: %+v, reference %+v", form.name, *got, *want)
			}
		}
	})
}

// Formula specs: the first byte's low four bits are the header's variable
// count, which clause literals may exceed. Each later byte below 0xfd
// appends literal b%32 (variables 0 to 15) to the open constraint; 0xff
// closes it as a clause, 0xfe and 0xfd as an XOR row of its literals'
// variables with parity 1 and 0. An unclosed constraint is dropped.
const (
	specClause = 0xff
	specXor1   = 0xfe
	specXor0   = 0xfd
)

func decodeFormula(spec []byte) *cnf.Formula {
	f := &cnf.Formula{}
	if len(spec) == 0 {
		return f
	}
	f.NumVars = int(spec[0] & 15)
	var lits []cnf.Lit
	for _, b := range spec[1:] {
		switch b {
		case specClause:
			f.Clauses = append(f.Clauses, append(cnf.Clause(nil), lits...))
		case specXor1, specXor0:
			x := cnf.XorClause{RHS: b == specXor1}
			for _, l := range lits {
				x.Vars = append(x.Vars, l.Var())
			}
			f.Xors = append(f.Xors, x)
		default:
			lits = append(lits, cnf.Lit(b%32))
			continue
		}
		lits = lits[:0]
	}
	return f
}

// encodeFormula is decodeFormula's inverse for formulas over at most 15
// variables.
func encodeFormula(f *cnf.Formula) []byte {
	spec := []byte{byte(f.NumVars)}
	for _, c := range f.Clauses {
		for _, l := range c {
			spec = append(spec, byte(l))
		}
		spec = append(spec, specClause)
	}
	for _, x := range f.Xors {
		for _, v := range x.Vars {
			spec = append(spec, byte(cnf.MkLit(v, false)))
		}
		if x.RHS {
			spec = append(spec, specXor1)
		} else {
			spec = append(spec, specXor0)
		}
	}
	return spec
}

// FuzzCheckPicksReader checks the form Check picks: on a text proof,
// whatever spaces bufio.ScanWords skips separate its tokens, Check gives
// CheckText's result and error, and on the binary writer's output of the
// same records it gives CheckBinary's. The records come from data: a kind
// byte, a length byte, then a byte per literal that draws a small variable
// or one of the literals whose varint reads as text, and a byte per token
// that picks its separator and spelling.
func FuzzCheckPicksReader(f *testing.F) {
	spaces := scanWordsSpaces()
	for _, sp := range spaces {
		if r, _ := utf8.DecodeRuneInString(sp); !unicode.IsSpace(r) {
			f.Fatalf("bufio.ScanWords splits on %U, unicode.IsSpace does not", r)
		}
	}
	if n := countIsSpace(); n != len(spaces) {
		f.Fatalf("unicode.IsSpace holds for %d runes, bufio.ScanWords splits on %d", n, len(spaces))
	}
	// The square's proof "2 0 0" separated by \v, \f, U+0085 and U+00A0.
	for _, sp := range []byte{2, 3, 6, 7} {
		f.Add([]byte{0, 1, 2, 0, sp, sp, 0, 0, sp})
	}
	// A deletion first, of literals whose varints read as text, spelt with
	// a sign and with leading zeros and separated by U+00A0.
	f.Add([]byte{1, 2, 0x81, 0x82, 7, 1, 7, 2, 7, 7})
	// A justification first, of 3-, 4- and 5-byte literals.
	f.Add([]byte{2, 3, 0x94, 0x95, 0x96, 8, 0, 9, 0, 10, 0, 11, 12})
	// A long deletion first, its literals all text-like.
	long := []byte{1, 31}
	for i := 0; i < 31; i++ {
		long = append(long, 0x80+byte(i))
	}
	f.Add(long)
	formula := phpFuzz()
	f.Fuzz(func(t *testing.T, data []byte) {
		text, bin := renderRecords(data, spaces)
		for _, form := range []struct {
			name   string
			proof  []byte
			reader func(*cnf.Formula, io.Reader) (*CheckResult, error)
		}{
			{"text", text, CheckText},
			{"binary", bin, CheckBinary},
		} {
			got, gotErr := Check(formula, bytes.NewReader(form.proof))
			want, wantErr := form.reader(formula, bytes.NewReader(form.proof))
			switch {
			case (gotErr == nil) != (wantErr == nil):
				t.Fatalf("%s %q: Check error %v, reader %v", form.name, form.proof, gotErr, wantErr)
			case gotErr != nil && gotErr.Error() != wantErr.Error():
				t.Fatalf("%s %q: Check error %q, reader %q", form.name, form.proof, gotErr, wantErr)
			case gotErr == nil && *got != *want:
				t.Fatalf("%s %q: Check %+v, reader %+v", form.name, form.proof, *got, *want)
			}
		}
	})
}

// scanWordsSpaces lists, as strings, every rune bufio.ScanWords splits
// on, found by asking it.
func scanWordsSpaces() []string {
	var out []string
	for r := rune(0); r <= unicode.MaxRune; r++ {
		if !utf8.ValidRune(r) {
			continue
		}
		sp := string(r)
		if _, tok, _ := bufio.ScanWords([]byte("1"+sp+"2"), true); string(tok) == "1" {
			out = append(out, sp)
		}
	}
	return out
}

// countIsSpace counts the runes unicode.IsSpace holds for, which
// looksBinary takes as the text separators.
func countIsSpace() int {
	n := 0
	for r := rune(0); r <= unicode.MaxRune; r++ {
		if unicode.IsSpace(r) {
			n++
		}
	}
	return n
}

// textLikeLits are literals whose binary varints read as text: the codes
// (literal + 2) of the ASCII digits, signs, tags and spaces, and the
// smallest 3-, 4- and 5-byte ones.
var textLikeLits = func() []cnf.Lit {
	var out []cnf.Lit
	for _, c := range "\t\n\v\f\r +-0123456789dx" {
		out = append(out, cnf.Lit(c-2))
	}
	return append(out, 148162-2, 18874466-2, 2427486914-2)
}()

// renderRecords decodes proof records from data and writes them as text,
// separated by spaces[i] for data-chosen i, and through the binary writer.
func renderRecords(data []byte, spaces []string) (text, bin []byte) {
	next := func() byte {
		if len(data) == 0 {
			return 0
		}
		b := data[0]
		data = data[1:]
		return b
	}
	var tb strings.Builder
	var bb bytes.Buffer
	bw := NewBinaryWriter(&bb)
	sep := func() {
		b := next()
		tb.WriteString(spaces[int(b)%len(spaces)])
		if b&0x80 != 0 {
			tb.WriteString(spaces[int(b>>1)%len(spaces)])
		}
	}
	if len(data) > 0 && data[0] >= 0xf0 {
		sep() // a proof may start with spaces
	}
	var lits []cnf.Lit
	for recs := 0; len(data) > 0 && recs < 64; recs++ {
		kind := "adx"[next()%3]
		lits = lits[:0]
		for n := next() % 32; n > 0; n-- {
			b := next()
			if b&0x80 != 0 {
				lits = append(lits, textLikeLits[int(b&0x7f)%len(textLikeLits)])
			} else {
				lits = append(lits, cnf.Lit(b&0x0f))
			}
		}
		switch kind {
		case 'a':
			bw.Learn(lits)
		case 'd':
			bw.Delete(lits)
			tb.WriteByte('d')
			sep()
		case 'x':
			bw.Justify(lits)
			tb.WriteByte('x')
			sep()
		}
		for _, l := range lits {
			d := l.Dimacs()
			if d < 0 {
				tb.WriteByte('-')
				d = -d
			}
			switch next() % 4 {
			case 1:
				tb.WriteByte('+')
			case 2:
				tb.WriteString("00")
			}
			tb.WriteString(strconv.Itoa(d))
			sep()
		}
		tb.WriteByte('0')
		sep()
	}
	if err := bw.Flush(); err != nil {
		panic(err)
	}
	return []byte(tb.String()), bb.Bytes()
}
