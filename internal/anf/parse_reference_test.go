package anf

import (
	"bufio"
	"fmt"
	"io"
	"strconv"
	"strings"
	"unicode/utf8"
)

// This file keeps the string-splitting reader that ReadSystem and
// ParsePoly replaced, as the reference the byte-level parser is
// differentially tested against (FuzzParsePoly, FuzzReadSystem,
// TestReaderMatchesReference). It splits each line on "+" and "*",
// trims every piece with strings.TrimSpace, builds each term with
// NewMonomial and each polynomial with FromMonomials, and adds the
// equations one System.Add at a time.

func refParsePoly(s string) (Poly, error) {
	s = strings.ReplaceAll(s, "⊕", "+")
	var monos []Monomial
	for _, term := range strings.Split(s, "+") {
		term = strings.TrimSpace(term)
		if term == "" {
			return Zero(), fmt.Errorf("anf: empty term in %q", s)
		}
		switch term {
		case "0":
			continue
		case "1":
			monos = append(monos, One)
			continue
		}
		var vars []Var
		for _, f := range strings.Split(term, "*") {
			f = strings.TrimSpace(f)
			v, err := refParseVar(f)
			if err != nil {
				return Zero(), fmt.Errorf("anf: bad factor %q in %q: %w", f, s, err)
			}
			vars = append(vars, v)
		}
		monos = append(monos, NewMonomial(vars...))
	}
	return FromMonomials(monos...), nil
}

func refParseVar(s string) (Var, error) {
	if len(s) < 2 || (s[0] != 'x' && s[0] != 'X') {
		return 0, fmt.Errorf("expected x<index>")
	}
	n, err := strconv.ParseUint(s[1:], 10, 32)
	if err != nil {
		return 0, err
	}
	if n > MaxVarIndex {
		return 0, fmt.Errorf("variable index %d out of range (max %d)", n, MaxVarIndex)
	}
	return Var(n), nil
}

func refReadSystem(r io.Reader) (*System, error) {
	sys := NewSystem()
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<20), 1<<24)
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := strings.TrimSpace(sc.Text())
		if !utf8.ValidString(line) {
			return nil, fmt.Errorf("line %d: invalid UTF-8", lineNo)
		}
		if line == "" || strings.HasPrefix(line, "#") || strings.HasPrefix(line, "c ") || line == "c" {
			continue
		}
		p, err := refParsePoly(line)
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

// refWriteSystem is the fmt-based writer WriteSystem replaced; its bytes
// are the format's golden.
func refWriteSystem(w io.Writer, sys *System) error {
	bw := bufio.NewWriter(w)
	fmt.Fprintf(bw, "# ANF system: %d equations, %d variables\n", sys.Len(), sys.NumVars())
	for _, p := range sys.Polys() {
		if _, err := fmt.Fprintln(bw, refPolyString(p)); err != nil {
			return err
		}
	}
	return bw.Flush()
}

func refPolyString(p Poly) string {
	if p.IsZero() {
		return "0"
	}
	parts := make([]string, len(p.terms))
	for i, t := range p.terms {
		parts[i] = refMonomialString(t)
	}
	return strings.Join(parts, " + ")
}

func refMonomialString(m Monomial) string {
	if m.IsOne() {
		return "1"
	}
	parts := make([]string, len(m.vars))
	for i, v := range m.vars {
		parts[i] = fmt.Sprintf("x%d", v)
	}
	return strings.Join(parts, "*")
}
