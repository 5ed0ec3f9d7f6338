package anf

import (
	"bufio"
	"bytes"
	"errors"
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
// MaxVarIndex is an error that names its line. It is ScanSystem with a
// builder that copies each equation into storage of its own.
func ReadSystem(r io.Reader) (*System, error) {
	sys := NewSystem()
	var keep slabs
	if err := ScanSystem(r, func(p Poly) { sys.Add(keep.poly(p)) }); err != nil {
		return nil, err
	}
	return sys, nil
}

// ScanSystem reads a polynomial system exactly as ReadSystem does — the
// same grammar, caps and line-numbered errors — without building it: it
// hands eq each equation that is not the zero polynomial, in input order
// and canonical term order, so every equation eq sees has at least one
// term. The polynomial lives in storage the scan reuses for the next
// line, so it is valid only until eq returns.
func ScanSystem(r io.Reader, eq func(Poly)) error {
	sc := bufio.NewScanner(r)
	sc.Buffer(nil, maxLineBytes)
	var pr polyReader
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := sc.Bytes()
		if !utf8.Valid(line) {
			return fmt.Errorf("line %d: invalid UTF-8", lineNo)
		}
		line = bytes.TrimSpace(line)
		if len(line) == 0 || line[0] == '#' || line[0] == 'c' && (len(line) == 1 || line[1] == ' ') {
			continue
		}
		p, err := pr.parse(line)
		if err != nil {
			return fmt.Errorf("line %d: %w", lineNo, err)
		}
		if !p.IsZero() {
			eq(p)
		}
	}
	return sc.Err()
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

// polyReader is the byte-level parser behind ParsePoly and ScanSystem. It
// reads a line in one left-to-right pass into two buffers it reuses from
// line to line: the variables of the line's monomials, each monomial a
// capped sub-slice of them, and the line's terms.
type polyReader struct {
	vars  []Var
	terms []Monomial
}

// parse reads one polynomial from b: terms separated by '+' or '⊕', each
// the constant 0 or 1 or a '*'-product of x<index> factors, with Unicode
// whitespace allowed around every term and factor. The result lives in
// pr's buffers until the next parse.
func (pr *polyReader) parse(b []byte) (Poly, error) {
	pr.vars, pr.terms = pr.vars[:0], pr.terms[:0]
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
			return pr.canonical(), nil
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
				pr.terms = append(pr.terms, One)
			}
			return j, nil
		}
	}
	// The factors go to the end of pr.vars; a term written in ascending
	// order, as WriteSystem writes it, needs no sort.
	vars, start, sorted := pr.vars, len(pr.vars), true
	for {
		v, end, err := readVar(b, i)
		if err != nil {
			return 0, fmt.Errorf("anf: bad factor %q in %q: %w", factorAt(b, i), b, err)
		}
		sorted = sorted && (len(vars) == start || vars[len(vars)-1] < v)
		vars = append(vars, v)
		j := skipSpace(b, end)
		if j < len(b) && b[j] == '*' {
			i = skipSpace(b, j+1)
			continue
		}
		if !atTermEnd(b, j) {
			return 0, fmt.Errorf("anf: bad factor %q in %q: expected x<index>", factorAt(b, i), b)
		}
		if !sorted { // sort and deduplicate (x·x = x) in place
			slices.Sort(vars[start:])
			vars = vars[:start+len(slices.Compact(vars[start:]))]
		}
		pr.vars = vars
		pr.terms = append(pr.terms, Monomial{vars: vars[start:len(vars):len(vars)]})
		return j, nil
	}
}

// canonical puts the line's terms in canonical order (descending
// graded-lex, equal terms cancelled in pairs) in place. Input written by
// WriteSystem is already canonical and skips the sort.
func (pr *polyReader) canonical() Poly {
	ts := pr.terms
	for k := 1; k < len(ts); k++ {
		if ts[k-1].Compare(ts[k]) <= 0 {
			ts = sortCancel(ts)
			break
		}
	}
	if len(ts) == 0 {
		return Poly{}
	}
	return Poly{terms: ts[:len(ts):len(ts)]}
}

// slabs is the storage ReadSystem keeps equations in: each monomial's
// variables are a capped sub-slice of a Var slab and each polynomial's
// terms a capped sub-slice of a Monomial slab, so a system costs a few
// allocations per slab chunk instead of several per term. The regions are
// disjoint and capped, so appending to one (or rewriting a polynomial in
// place, as SubstituteInPlace does) never touches another.
type slabs struct {
	vars  []Var
	terms []Monomial
}

// maxSlabChunk caps the element count of a slab chunk: chunks double from
// a few elements, so a small system stays small and a large one needs a
// handful of allocations, with at most one chunk partly unused.
const maxSlabChunk = 1 << 14

// poly copies p, whose storage the scan is about to reuse, into the slabs.
func (s *slabs) poly(p Poly) Poly {
	ts := carve(&s.terms, p.terms)
	for i := range ts {
		if len(ts[i].vars) > 0 {
			ts[i].vars = carve(&s.vars, ts[i].vars)
		}
	}
	return Poly{terms: ts}
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

// Factor errors, shared so that readVar stays small enough to inline.
var (
	errExpectVar = errors.New("expected x<index>")
	errVarRange  = fmt.Errorf("variable index out of range (max %d)", MaxVarIndex)
)

// readVar reads the factor x<index> (or X<index>) at b[i:] and returns
// the index just past it.
func readVar(b []byte, i int) (Var, int, error) {
	if i >= len(b) || b[i]|0x20 != 'x' { // 'x' or 'X'
		return 0, 0, errExpectVar
	}
	end, v := i+1, 0
	for ; end < len(b) && b[end]-'0' <= 9; end++ {
		if v = 10*v + int(b[end]-'0'); v > MaxVarIndex {
			return 0, 0, errVarRange
		}
	}
	if end == i+1 {
		return 0, 0, errExpectVar
	}
	return Var(v), end, nil
}

// skipSpace returns the index of the first byte at or after i that does
// not start a Unicode whitespace character. The common case, a printable
// ASCII byte, returns at once.
func skipSpace(b []byte, i int) int {
	if i < len(b) && b[i]-'!' < utf8.RuneSelf-'!' {
		return i
	}
	return skipSpaces(b, i)
}

func skipSpaces(b []byte, i int) int {
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
	if i < len(b) {
		switch b[i] {
		case '+':
			return 1
		case oplus[0]:
			if string(b[i:min(i+len(oplus), len(b))]) == oplus {
				return len(oplus)
			}
		}
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
