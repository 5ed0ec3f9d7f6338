package sat

import (
	"math/rand"
	"reflect"
	"sort"
	"testing"

	"repro/internal/cnf"
	"repro/internal/gf2"
)

// pivotMapEliminate is the Gauss side-car's elimination before it moved
// onto the gf2 M4R kernel, kept as the differential reference: a forward
// pass that reduces each row against a map of pivots keyed by leading
// column (returning the lone row 0 = 1 on the first contradiction), then
// back-substitution in leading-column order. Columns are the variables in
// order of first appearance.
func pivotMapEliminate(raw []xorRow) []xorRow {
	varSet := map[cnf.Var]int{}
	var vars []cnf.Var
	for _, r := range raw {
		for _, v := range r.vars {
			if _, ok := varSet[v]; !ok {
				varSet[v] = len(vars)
				vars = append(vars, v)
			}
		}
	}
	ncols := len(vars)
	type packed struct {
		bits []uint64
		rhs  bool
	}
	pivots := map[int]*packed{}
	var order []int
	for _, r := range raw {
		p := packed{bits: make([]uint64, gf2.Words(ncols)), rhs: r.rhs}
		for _, v := range r.vars {
			gf2.XorBit(p.bits, varSet[v])
		}
		for {
			l := gf2.FirstSetBit(p.bits)
			if l < 0 {
				break
			}
			piv, ok := pivots[l]
			if !ok {
				cp := p
				pivots[l] = &cp
				order = append(order, l)
				break
			}
			for w := range p.bits {
				p.bits[w] ^= piv.bits[w]
			}
			p.rhs = p.rhs != piv.rhs
		}
		if gf2.FirstSetBit(p.bits) < 0 && p.rhs {
			return []xorRow{{rhs: true}}
		}
	}
	sort.Ints(order)
	for i := len(order) - 1; i >= 0; i-- {
		piv := pivots[order[i]]
		for _, l2 := range order[:i] {
			p2 := pivots[l2]
			if gf2.TestBit(p2.bits, order[i]) {
				for w := range p2.bits {
					p2.bits[w] ^= piv.bits[w]
				}
				p2.rhs = p2.rhs != piv.rhs
			}
		}
	}
	out := make([]xorRow, 0, len(order))
	for _, l := range order {
		p := pivots[l]
		var vs []cnf.Var
		for c := 0; c < ncols; c++ {
			if gf2.TestBit(p.bits, c) {
				vs = append(vs, vars[c])
			}
		}
		out = append(out, xorRow{vars: vs, rhs: p.rhs})
	}
	return out
}

// randomXorRows draws nRows rows of 1..maxWidth distinct variables out of
// nVars, each sorted ascending as addRow stores them. With planted set the
// RHS comes from a hidden assignment, so the rows are consistent;
// otherwise it is random.
func randomXorRows(rng *rand.Rand, nVars, nRows, maxWidth int, planted bool) []xorRow {
	sol := make([]bool, nVars)
	for v := range sol {
		sol[v] = rng.Intn(2) == 1
	}
	rows := make([]xorRow, nRows)
	for i := range rows {
		width := 1 + rng.Intn(maxWidth)
		if width > nVars {
			width = nVars
		}
		vs := make([]cnf.Var, 0, width)
		for _, v := range rng.Perm(nVars)[:width] {
			vs = append(vs, cnf.Var(v))
		}
		sort.Slice(vs, func(a, b int) bool { return vs[a] < vs[b] })
		rhs := rng.Intn(2) == 1
		if planted {
			rhs = false
			for _, v := range vs {
				rhs = rhs != sol[v]
			}
		}
		rows[i] = xorRow{vars: vs, rhs: rhs}
	}
	return rows
}

// The side-car's elimination must return exactly what the pivot-map loop
// returned: the same rows in the same order, the same variable order
// inside each row (it sets the literal order of every reason clause, and
// so the CDCL search), the same RHS, and the lone 0 = 1 row on
// contradictory input.
func TestGaussEliminateMatchesPivotMap(t *testing.T) {
	rng := rand.New(rand.NewSource(15))
	contradictions := 0
	for trial := 0; trial < 2400; trial++ {
		nVars := 1 + rng.Intn(150)
		nRows := 1 + rng.Intn(120)
		planted := trial%2 == 0
		raw := randomXorRows(rng, nVars, nRows, 1+rng.Intn(12), planted)
		want := pivotMapEliminate(raw)
		g := &gauss{raw: raw}
		got := g.eliminate()
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("trial %d (%d vars, %d rows, planted %t): eliminate differs from the pivot-map loop:\ngot  %v\nwant %v",
				trial, nVars, nRows, planted, got, want)
		}
		if planted && len(got) == 1 && len(got[0].vars) == 0 {
			t.Fatalf("trial %d: planted rows reduced to 0 = 1", trial)
		}
		if len(got) == 1 && len(got[0].vars) == 0 {
			contradictions++
		}
	}
	if contradictions == 0 {
		t.Fatal("no random system was contradictory; the 0 = 1 path went untested")
	}
}

// plantedWideXors is the measured XOR regime: nRows rows of exactly width
// distinct variables out of nVars, consistent with a hidden assignment.
// Its UNSAT twin repeats the first row's variables in place of the last
// row, with the opposite RHS.
func plantedWideXors(rng *rand.Rand, nVars, nRows, width int) (sat, unsat []xorRow) {
	sol := make([]bool, nVars)
	for v := range sol {
		sol[v] = rng.Intn(2) == 1
	}
	sat = make([]xorRow, nRows)
	for i := range sat {
		var vs []cnf.Var
		rhs := false
		for _, v := range rng.Perm(nVars)[:width] {
			vs = append(vs, cnf.Var(v))
			rhs = rhs != sol[v]
		}
		sat[i] = xorRow{vars: vs, rhs: rhs}
	}
	unsat = append([]xorRow(nil), sat...)
	unsat[nRows-1] = xorRow{vars: sat[0].vars, rhs: !sat[0].rhs}
	return sat, unsat
}

// Wide XOR rows are where Gauss earns its code: on a planted width-16
// system of 180 rows over 200 variables every row lands in the side-car,
// the SAT instance is decided within 1000 conflicts, and the UNSAT twin is
// refuted by the elimination alone, before any conflict. Native parity
// clauses on their own need tens of thousands of conflicts on the twin.
func TestGaussWideXorRegime(t *testing.T) {
	const nVars, nRows, width = 200, 180, 16
	satRows, unsatRows := plantedWideXors(rand.New(rand.NewSource(16)), nVars, nRows, width)
	load := func(rows []xorRow) *Solver {
		s := New(DefaultOptions(ProfileCMS))
		for _, r := range rows {
			if !s.AddXor(r.rhs, r.vars...) {
				t.Fatal("AddXor rejected a wide row at level 0")
			}
		}
		st := s.Snapshot()
		if st.XorRows != nRows || st.ParityClauses != 0 {
			t.Fatalf("XorRows %d, ParityClauses %d; want every row in Gauss (%d, 0)",
				st.XorRows, st.ParityClauses, nRows)
		}
		return s
	}

	s := load(satRows)
	if got := s.SolveLimited(1000); got != Sat {
		t.Fatalf("planted width-%d system: %v within 1000 conflicts, want SAT", width, got)
	}
	model := s.Model()
	for i, r := range satRows {
		parity := false
		for _, v := range r.vars {
			parity = parity != model[v]
		}
		if parity != r.rhs {
			t.Fatalf("model violates row %d", i)
		}
	}

	s = load(unsatRows)
	if got := s.Solve(); got != Unsat {
		t.Fatalf("UNSAT twin: %v, want UNSAT", got)
	}
	if c := s.Snapshot().Conflicts; c != 0 {
		t.Fatalf("UNSAT twin refuted after %d conflicts, want 0 (by elimination)", c)
	}
}
