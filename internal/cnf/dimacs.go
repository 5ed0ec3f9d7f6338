package cnf

import (
	"bufio"
	"fmt"
	"io"
	"strconv"
	"strings"
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
func ReadDimacs(r io.Reader) (*Formula, error) {
	f := &Formula{}
	sc := bufio.NewScanner(r)
	sc.Buffer(nil, 1<<26) // grow from the scanner's default up to 64 MiB lines
	var cur []Lit
	var curXor []int
	inXor := false
	declaredVars := 0
	lineNo := 0
	finishClause := func() error {
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
			return nil
		}
		f.Clauses = append(f.Clauses, append(Clause(nil), cur...))
		cur = cur[:0]
		return nil
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
				if err := finishClause(); err != nil {
					return nil, err
				}
				continue
			}
			v := d
			if v < 0 {
				v = -v
			}
			if v < 0 || v > MaxVar { // v < 0: -d overflowed (d == MinInt)
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
