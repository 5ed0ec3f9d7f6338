package cnf

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"strconv"
	"strings"
	"unicode"
	"unicode/utf8"
)

// MaxVar bounds the variable indices ReadDimacs accepts (whether declared
// in the header or appearing as literals). Inputs beyond it are rejected
// with an error rather than forcing downstream passes to allocate
// per-variable tables for absurd index spaces — a malformed or hostile
// service payload must fail in the parser, not OOM a solver worker.
const MaxVar = 1 << 26

// ReadDimacs parses a DIMACS CNF file. It accepts:
//   - "c ..." comment lines,
//   - a "p cnf <vars> <clauses>" header (optional; inferred if absent),
//   - clause lines of whitespace-separated literals terminated by 0,
//   - CryptoMiniSat-style XOR lines starting with "x" ("x1 2 -3 0"),
//   - clauses spanning multiple lines.
//
// Malformed input — truncated or non-numeric headers, literals outside
// [-MaxVar, MaxVar] or beyond the declared variable count, non-UTF-8
// bytes — returns an error; the reader never panics (see FuzzReadDimacs).
// It is ScanDimacs with a builder that copies each clause and XOR row.
func ReadDimacs(r io.Reader) (*Formula, error) {
	f := &Formula{}
	n, err := ScanDimacs(r, func(c Clause) {
		f.Clauses = append(f.Clauses, append(Clause(nil), c...))
	}, func(x XorClause) {
		f.Xors = append(f.Xors, XorClause{Vars: append([]Var(nil), x.Vars...), RHS: x.RHS})
	})
	if err != nil {
		return nil, err
	}
	f.NumVars = n
	return f, nil
}

// ScanDimacs reads DIMACS text exactly as ReadDimacs does — the same
// grammar, limits and line-numbered errors — without building a Formula:
// it hands clause each clause and xor each XOR row, in input order, and
// returns the variable count ReadDimacs would set. The slices it passes
// live in storage the scan reuses, so they are valid only until the
// callback returns.
func ScanDimacs(r io.Reader, clause func(Clause), xor func(XorClause)) (numVars int, err error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(nil, 1<<26) // grow from the scanner's default up to 64 MiB lines
	var cur Clause
	var x XorClause
	inXor := false
	declaredVars := 0
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := bytes.TrimSpace(sc.Bytes())
		if !utf8.Valid(line) {
			return 0, fmt.Errorf("dimacs line %d: invalid UTF-8", lineNo)
		}
		if len(line) == 0 || line[0] == 'c' {
			continue
		}
		if line[0] == 'p' {
			if declaredVars, err = readHeader(string(line)); err != nil {
				return 0, fmt.Errorf("dimacs line %d: %w", lineNo, err)
			}
			continue
		}
		if line[0] == 'x' {
			if len(cur) > 0 || inXor {
				return 0, fmt.Errorf("dimacs line %d: xor line inside unterminated clause", lineNo)
			}
			inXor = true
			x = XorClause{Vars: x.Vars[:0], RHS: true}
			line = line[1:]
		}
		for i := 0; ; {
			var tok []byte
			if tok, i = nextField(line, i); tok == nil {
				break
			}
			d, err := strconv.Atoi(string(tok))
			if err != nil {
				return 0, fmt.Errorf("dimacs line %d: bad literal %q", lineNo, tok)
			}
			if d == 0 {
				if inXor {
					xor(x)
					inXor = false
				} else {
					clause(cur)
					cur = cur[:0]
				}
				continue
			}
			v := d
			if v < 0 {
				v = -v
			}
			if v < 0 || v > MaxVar { // v < 0: -d overflowed (d == MinInt)
				return 0, fmt.Errorf("dimacs line %d: literal %d out of range (max variable %d)", lineNo, d, MaxVar)
			}
			if declaredVars > 0 && v > declaredVars {
				return 0, fmt.Errorf("dimacs line %d: literal %d exceeds declared variable count %d", lineNo, d, declaredVars)
			}
			numVars = max(numVars, v)
			if inXor {
				x.Vars = append(x.Vars, Var(v-1))
				x.RHS = x.RHS != (d < 0)
			} else {
				l, _ := LitFromDimacs(d)
				cur = append(cur, l)
			}
		}
	}
	if err := sc.Err(); err != nil {
		return 0, err
	}
	if len(cur) > 0 || inXor && len(x.Vars) > 0 {
		return 0, fmt.Errorf("dimacs: unterminated clause at EOF")
	}
	return max(numVars, declaredVars), nil
}

// readHeader checks a "p cnf <vars> <clauses>" line and returns its
// variable count.
func readHeader(line string) (int, error) {
	fields := strings.Fields(line)
	if len(fields) < 4 || fields[1] != "cnf" {
		return 0, fmt.Errorf("truncated or bad problem line %q", line)
	}
	n, err := strconv.Atoi(fields[2])
	if err != nil {
		return 0, err
	}
	if _, err := strconv.Atoi(fields[3]); err != nil {
		return 0, err
	}
	if n < 0 || n > MaxVar {
		return 0, fmt.Errorf("declared variable count %d out of range [0, %d]", n, MaxVar)
	}
	return n, nil
}

// nextField returns the first whitespace-separated field of b at or after
// i and the index just past it, or nil when only whitespace is left. It
// splits where strings.Fields does: at every Unicode space.
func nextField(b []byte, i int) ([]byte, int) {
	for i < len(b) {
		if c := b[i]; c < utf8.RuneSelf {
			if !asciiSpace(c) {
				break
			}
			i++
			continue
		}
		r, size := utf8.DecodeRune(b[i:])
		if !unicode.IsSpace(r) {
			break
		}
		i += size
	}
	if i == len(b) {
		return nil, i
	}
	j := i
	for j < len(b) {
		if c := b[j]; c < utf8.RuneSelf {
			if asciiSpace(c) {
				break
			}
			j++
			continue
		}
		r, size := utf8.DecodeRune(b[j:])
		if unicode.IsSpace(r) {
			break
		}
		j += size
	}
	return b[i:j], j
}

func asciiSpace(c byte) bool { return c == ' ' || '\t' <= c && c <= '\r' }

// WriteDimacs writes the formula in DIMACS format, XOR clauses as "x" lines.
func WriteDimacs(w io.Writer, f *Formula) error {
	bw := bufio.NewWriter(w)
	b := append(bw.AvailableBuffer(), "p cnf "...)
	b = strconv.AppendInt(b, int64(f.NumVars), 10)
	b = append(b, ' ')
	b = strconv.AppendInt(b, int64(len(f.Clauses)+len(f.Xors)), 10)
	bw.Write(append(b, '\n'))
	for _, c := range f.Clauses {
		b = bw.AvailableBuffer()
		for _, l := range c {
			b = append(strconv.AppendInt(b, int64(l.Dimacs()), 10), ' ')
		}
		if _, err := bw.Write(append(b, "0\n"...)); err != nil {
			return err
		}
	}
	for _, x := range f.Xors {
		b = append(bw.AvailableBuffer(), 'x')
		for i, v := range x.Vars {
			d := int64(v) + 1
			if i == len(x.Vars)-1 && !x.RHS {
				d = -d
			}
			b = append(strconv.AppendInt(b, d, 10), ' ')
		}
		if _, err := bw.Write(append(b, "0\n"...)); err != nil {
			return err
		}
	}
	return bw.Flush()
}
