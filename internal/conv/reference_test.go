package conv

import (
	"bytes"
	"fmt"
	"math/rand"
	"sort"
	"testing"

	"repro/internal/anf"
	"repro/internal/cnf"
	"repro/internal/minimize"
)

// referenceANFToCNF is ANFToCNF with the Karnaugh path of the plain
// encoder: variables gathered through a map, the truth table read by 2^n
// Eval calls, one Minimize run per polynomial and one AddClause per cube.
// Everything else is the production converter, so the two outputs must be
// byte-identical.
func referenceANFToCNF(sys *anf.System, opts Options) *cnf.Formula {
	c := newConverter(sys, opts)
	for _, p := range sys.Polys() {
		switch {
		case p.IsZero():
			continue
		case p.IsOne():
			c.f.AddClause()
			continue
		}
		vars := referenceVars(p)
		if len(vars) <= c.opts.KarnaughK {
			referenceKarnaugh(c.f, p, vars)
			continue
		}
		c.addTseitin(p)
	}
	return c.f
}

func referenceVars(p anf.Poly) []anf.Var {
	seen := map[anf.Var]struct{}{}
	for _, t := range p.Terms() {
		for _, v := range t.Vars() {
			seen[v] = struct{}{}
		}
	}
	out := make([]anf.Var, 0, len(seen))
	for v := range seen {
		out = append(out, v)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

func referenceKarnaugh(f *cnf.Formula, p anf.Poly, vars []anf.Var) {
	n := len(vars)
	idx := map[anf.Var]int{}
	for i, v := range vars {
		idx[v] = i
	}
	var onset []uint32
	for m := uint32(0); m < 1<<uint(n); m++ {
		if p.Eval(func(v anf.Var) bool { return m>>uint(idx[v])&1 == 1 }) {
			onset = append(onset, m)
		}
	}
	for _, cube := range minimize.Minimize(n, onset) {
		var lits []cnf.Lit
		for i, v := range vars {
			if cube.Mask>>uint(i)&1 == 0 {
				continue
			}
			lits = append(lits, cnf.MkLit(cnf.Var(v), cube.Val>>uint(i)&1 == 1))
		}
		f.AddClause(lits...)
	}
}

func dimacs(t testing.TB, f *cnf.Formula) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := cnf.WriteDimacs(&buf, f); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// checkMatchesReference fails unless ANFToCNF and the reference encoder
// write the same DIMACS for sys under opts.
func checkMatchesReference(t testing.TB, name string, sys *anf.System, opts Options) {
	t.Helper()
	got, _ := ANFToCNF(sys, opts)
	want := referenceANFToCNF(sys, opts)
	if g, w := dimacs(t, got), dimacs(t, want); !bytes.Equal(g, w) {
		t.Fatalf("%s K=%d native=%v: DIMACS differs from the reference (%d vs %d bytes)",
			name, opts.KarnaughK, opts.NativeXor, len(g), len(w))
	}
}

var referenceKs = []int{0, 1, 4, 8, 20}

func TestANFToCNFMatchesReference(t *testing.T) {
	inputs := convInputs()
	if testing.Short() {
		inputs = inputs[1:] // the Bitcoin input is the slow one
	}
	// x0x1x2 over three variables and x0x1x2(1 + x3) over four have the
	// same packed table (only entry 7 is set) but different covers, so
	// the memo key must hold the variable count.
	shared := anf.NewSystem()
	shared.Add(anf.MustParsePoly("x0*x1*x2"))
	shared.Add(anf.MustParsePoly("x0*x1*x2*x3 + x0*x1*x2"))
	inputs = append(inputs, namedSystem{"shared-table", shared})
	for _, in := range inputs {
		for _, k := range referenceKs {
			for _, native := range []bool{false, true} {
				opts := DefaultOptions()
				opts.KarnaughK = k
				opts.NativeXor = native
				checkMatchesReference(t, in.name, in.sys, opts)
			}
		}
	}
}

// randomMixedSystem draws polynomials over few and over many variables,
// repeats some of them (the memo's hits), and adds constants.
func randomMixedSystem(rng *rand.Rand) *anf.System {
	nVars := 4 + rng.Intn(21)
	sys := anf.NewSystem()
	sys.SetNumVars(nVars)
	var polys []anf.Poly
	for i := 0; i < 1+rng.Intn(30); i++ {
		switch r := rng.Intn(10); {
		case r == 0 && len(polys) > 0:
			polys = append(polys, polys[rng.Intn(len(polys))]) // duplicate
		case r == 1:
			polys = append(polys, anf.Constant(rng.Intn(2) == 1))
		default:
			width := 1 + rng.Intn(min(nVars, 12))
			pool := rng.Perm(nVars)[:width]
			var monos []anf.Monomial
			for j := 0; j < 1+rng.Intn(8); j++ {
				var vs []anf.Var
				for d := rng.Intn(4); d > 0; d-- {
					vs = append(vs, anf.Var(pool[rng.Intn(width)]))
				}
				monos = append(monos, anf.NewMonomial(vs...))
			}
			polys = append(polys, anf.FromMonomials(monos...))
		}
	}
	for _, p := range polys {
		sys.Add(p)
	}
	return sys
}

func TestANFToCNFRandomMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	for trial := 0; trial < 200; trial++ {
		sys := randomMixedSystem(rng)
		for _, k := range referenceKs {
			opts := DefaultOptions()
			opts.KarnaughK = k
			opts.NativeXor = trial%2 == 1
			opts.CutLen = 3 + rng.Intn(4)
			checkMatchesReference(t, fmt.Sprintf("trial %d", trial), sys, opts)
		}
	}
}

// fuzzSystem decodes bytes into a small system and conversion options.
// data[0] picks K, NativeXor, L and a variable stride; every following
// pair of bytes is one term, a mask over ten variables, and a set top bit
// ends the polynomial.
func fuzzSystem(data []byte) (*anf.System, Options) {
	opts := DefaultOptions()
	if len(data) == 0 {
		return anf.NewSystem(), opts
	}
	h := data[0]
	opts.KarnaughK = referenceKs[int(h&7)%len(referenceKs)]
	opts.NativeXor = h&8 != 0
	opts.CutLen = 3 + int(h>>4&3)
	stride := []int{1, 2, 3, 5}[h>>6]
	sys := anf.NewSystem()
	var monos []anf.Monomial
	data = data[1:]
	for len(data) >= 2 {
		mask := (int(data[0]) | int(data[1])<<8) & 0x3ff
		var vs []anf.Var
		for i := 0; i < 10; i++ {
			if mask>>uint(i)&1 == 1 {
				vs = append(vs, anf.Var(i*stride))
			}
		}
		monos = append(monos, anf.NewMonomial(vs...))
		if data[1]&0x80 != 0 {
			sys.Add(anf.FromMonomials(monos...))
			monos = monos[:0]
		}
		data = data[2:]
	}
	sys.Add(anf.FromMonomials(monos...))
	return sys, opts
}

func FuzzANFToCNF(f *testing.F) {
	f.Add([]byte{0x03, 0x05, 0x00, 0x06, 0x80, 0x05, 0x00, 0x06, 0x80})
	f.Add([]byte{0x1b, 0x07, 0x00, 0x01, 0x01, 0x00, 0x80, 0xff, 0x83})
	f.Add([]byte{0xc4, 0x11, 0x00, 0x22, 0x00, 0x40, 0x01, 0x00, 0x80, 0x0f, 0x82})
	f.Fuzz(func(t *testing.T, data []byte) {
		sys, opts := fuzzSystem(data)
		checkMatchesReference(t, "fuzz", sys, opts)
	})
}

// K above the minimizer's limit acts as the limit: a polynomial over 21
// variables takes the Tseitin path instead of crashing the minimizer.
func TestKarnaughKClampedToMinimizer(t *testing.T) {
	p := anf.Zero()
	for i := 0; i <= minimize.MaxVars; i++ {
		p = p.Add(anf.VarPoly(anf.Var(i)))
	}
	p = p.Add(anf.MustParsePoly("x0*x1 + 1"))
	at := func(k int) []byte {
		opts := DefaultOptions()
		opts.KarnaughK = k
		f, _ := PolyToCNF(p, opts)
		return dimacs(t, f)
	}
	if got, want := at(minimize.MaxVars+4), at(minimize.MaxVars); !bytes.Equal(got, want) {
		t.Fatal("K above the minimizer's limit converted differently from K at the limit")
	}
}
