package anf

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"slices"
	"strconv"
	"unicode"
	"unicode/utf8"
)

// MaxVarIndex bounds the variable indices the parser accepts. Downstream
// passes allocate dense per-variable tables, so an input naming
// x4000000000 must fail here with an error instead of OOM-ing a solver
// worker — the cap matters for service deployments that parse untrusted
// payloads.
const MaxVarIndex = 1 << 24

// maxLineBytes caps one line of ReadSystem input.
const maxLineBytes = 1 << 24

// ParsePoly parses a polynomial in the textual ANF format used throughout
// this repository (and by the original Bosphorus tool):
//
//	x1*x2 + x3 + 1
//
// Terms are separated by "+" (GF(2) addition / XOR); variables within a
// term are separated by "*"; "0" and "1" are the constants. Whitespace is
// ignored. "⊕" is accepted as a synonym for "+".
func ParsePoly(s string) (Poly, error) {
	var pr polyReader
	return pr.parse([]byte(s))
}

// MustParsePoly is ParsePoly that panics on error; for tests and examples.
func MustParsePoly(s string) Poly {
	p, err := ParsePoly(s)
	if err != nil {
		panic(err)
	}
	return p
}

// ReadSystem parses a polynomial system: one polynomial equation per line,
// '#' and 'c' starting comments, blank lines skipped. A line longer than
// 16 MiB, invalid UTF-8, a malformed polynomial or an index above
// MaxVarIndex is an error that names its line.
func ReadSystem(r io.Reader) (*System, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(nil, maxLineBytes)
	var pr polyReader
	sys := NewSystem()
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := sc.Bytes()
		if !utf8.Valid(line) {
			return nil, fmt.Errorf("line %d: invalid UTF-8", lineNo)
		}
		line = bytes.TrimSpace(line)
		if len(line) == 0 || line[0] == '#' || line[0] == 'c' && (len(line) == 1 || line[1] == ' ') {
			continue
		}
		p, err := pr.parse(line)
		if err != nil {
			return nil, fmt.Errorf("line %d: %w", lineNo, err)
		}
		sys.Add(p)
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	return sys, nil
}

// WriteSystem writes the system in the same one-polynomial-per-line format
// accepted by ReadSystem.
func WriteSystem(w io.Writer, sys *System) error {
	bw := bufio.NewWriter(w)
	b := append(bw.AvailableBuffer(), "# ANF system: "...)
	b = strconv.AppendInt(b, int64(sys.Len()), 10)
	b = append(b, " equations, "...)
	b = strconv.AppendInt(b, int64(sys.NumVars()), 10)
	b = append(b, " variables\n"...)
	bw.Write(b)
	for _, p := range sys.polys {
		if p.IsZero() {
			continue
		}
		b = append(p.appendText(bw.AvailableBuffer()), '\n')
		if _, err := bw.Write(b); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// polyReader is the byte-level parser behind ParsePoly and ReadSystem. It
// reads a line in one left-to-right pass and carves what it builds from
// slabs it owns: each monomial's variables are a capped sub-slice of a Var
// slab and each polynomial's terms a capped sub-slice of a Monomial slab,
// so a system costs a few allocations per slab chunk instead of several
// per term. The regions are disjoint and
// capped, so appending to one (or rewriting a polynomial in place, as
// SubstituteInPlace does) never touches another.
type polyReader struct {
	vars  []Var      // slab the monomials' variables are carved from
	terms []Monomial // slab the polynomials' terms are carved from
	fac   []Var      // factors of the term being read
	line  []Monomial // terms of the polynomial being read
}

// maxSlabChunk caps the element count of a slab chunk: chunks double from
// a few elements, so a one-line ParsePoly stays small and a large system
// needs a handful of allocations, with at most one chunk partly unused.
const maxSlabChunk = 1 << 14

// parse reads one polynomial from b: terms separated by '+' or '⊕', each
// the constant 0 or 1 or a '*'-product of x<index> factors, with Unicode
// whitespace allowed around every term and factor.
func (pr *polyReader) parse(b []byte) (Poly, error) {
	pr.line = pr.line[:0]
	for i := 0; ; i += sepLen(b, i) {
		i = skipSpace(b, i)
		if atTermEnd(b, i) {
			return Poly{}, fmt.Errorf("anf: empty term in %q", b)
		}
		var err error
		if i, err = pr.readTerm(b, i); err != nil {
			return Poly{}, err
		}
		if i == len(b) {
			return pr.carvePoly(), nil
		}
	}
}

// readTerm reads the term that starts at b[i] and appends it to the line
// unless it is the constant 0. It returns the index of the separator or
// end of input that follows the term.
func (pr *polyReader) readTerm(b []byte, i int) (int, error) {
	if c := b[i]; c == '0' || c == '1' {
		if j := skipSpace(b, i+1); atTermEnd(b, j) {
			if c == '1' {
				pr.line = append(pr.line, One)
			}
			return j, nil
		}
	}
	pr.fac = pr.fac[:0]
	for {
		v, end, err := readVar(b, i)
		if err != nil {
			return 0, fmt.Errorf("anf: bad factor %q in %q: %w", factorAt(b, i), b, err)
		}
		pr.fac = append(pr.fac, v)
		j := skipSpace(b, end)
		if j < len(b) && b[j] == '*' {
			i = skipSpace(b, j+1)
			continue
		}
		if !atTermEnd(b, j) {
			return 0, fmt.Errorf("anf: bad factor %q in %q: expected x<index>", factorAt(b, i), b)
		}
		pr.line = append(pr.line, Monomial{vars: pr.carveVars(pr.fac)})
		return j, nil
	}
}

// carveVars sorts and deduplicates a term's factors (x·x = x) and copies
// them into the Var slab.
func (pr *polyReader) carveVars(fac []Var) []Var {
	slices.Sort(fac)
	return carve(&pr.vars, slices.Compact(fac))
}

// carvePoly puts the line's terms in canonical order (descending
// graded-lex, equal terms cancelled in pairs) and copies them into the
// Monomial slab. Input written by WriteSystem is already canonical and
// skips the sort.
func (pr *polyReader) carvePoly() Poly {
	ts := pr.line
	for k := 1; k < len(ts); k++ {
		if ts[k-1].Compare(ts[k]) <= 0 {
			ts = sortCancel(ts)
			break
		}
	}
	if len(ts) == 0 {
		return Poly{}
	}
	return Poly{terms: carve(&pr.terms, ts)}
}

// carve copies xs to the end of the slab *s, starting a new chunk when
// the current one is full, and returns the copy as a capped sub-slice.
func carve[T any](s *[]T, xs []T) []T {
	if cap(*s)-len(*s) < len(xs) {
		*s = make([]T, 0, max(len(xs), min(2*cap(*s), maxSlabChunk), 16))
	}
	a := len(*s)
	*s = append(*s, xs...)
	return (*s)[a:len(*s):len(*s)]
}

// readVar reads the factor x<index> (or X<index>) at b[i:] and returns
// the index just past it.
func readVar(b []byte, i int) (Var, int, error) {
	if i >= len(b) || b[i] != 'x' && b[i] != 'X' {
		return 0, 0, fmt.Errorf("expected x<index>")
	}
	end, v := i+1, 0
	for ; end < len(b) && '0' <= b[end] && b[end] <= '9'; end++ {
		if v = 10*v + int(b[end]-'0'); v > MaxVarIndex {
			return 0, 0, fmt.Errorf("variable index out of range (max %d)", MaxVarIndex)
		}
	}
	if end == i+1 {
		return 0, 0, fmt.Errorf("expected x<index>")
	}
	return Var(v), end, nil
}

// skipSpace returns the index of the first byte at or after i that does
// not start a Unicode whitespace character.
func skipSpace(b []byte, i int) int {
	for i < len(b) {
		if c := b[i]; c < utf8.RuneSelf {
			if c != ' ' && (c < '\t' || c > '\r') {
				return i
			}
			i++
			continue
		}
		r, size := utf8.DecodeRune(b[i:])
		if !unicode.IsSpace(r) {
			return i
		}
		i += size
	}
	return i
}

// oplus is the UTF-8 encoding of "⊕", the synonym of '+'.
const oplus = "⊕"

// sepLen returns the length of the term separator at b[i:] ('+' or '⊕'),
// or 0 if there is none.
func sepLen(b []byte, i int) int {
	switch {
	case i < len(b) && b[i] == '+':
		return 1
	case len(b)-i >= len(oplus) && string(b[i:i+len(oplus)]) == oplus:
		return len(oplus)
	}
	return 0
}

// atTermEnd reports whether b[i:] is empty or starts with a separator.
func atTermEnd(b []byte, i int) bool { return i == len(b) || sepLen(b, i) > 0 }

// factorAt returns the factor text at b[i:] for an error message: up to
// the next '*' or separator, trimmed.
func factorAt(b []byte, i int) []byte {
	j := i
	for j < len(b) && b[j] != '*' && sepLen(b, j) == 0 {
		j++
	}
	return bytes.TrimSpace(b[i:j])
}
