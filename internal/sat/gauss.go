package sat

import (
	"sort"

	"repro/internal/cnf"
	"repro/internal/gf2"
)

// gauss is the XOR-constraint component of the CMS solver profile. At the
// start of each solve it runs Gauss–Jordan elimination over the XOR rows
// (CryptoMiniSat's signature "native GJE"), then during search it keeps a
// per-row count of unassigned variables and the parity of the assigned
// ones, implying the last variable of a row (with an on-the-fly reason
// clause) and detecting parity conflicts.
type gauss struct {
	s    *Solver
	raw  []xorRow // rows as added, before elimination
	rows []*xorRow
	occ  map[cnf.Var][]*xorRow
	pos  int // number of trail literals already observed
	// buf assembles reason/conflict literals before they are copied into
	// the clause arena, so steady-state propagation allocates nothing on
	// the Go heap.
	buf []cnf.Lit
}

type xorRow struct {
	vars        []cnf.Var
	rhs         bool
	nUnassigned int
	parity      bool // XOR of the values of currently assigned vars
}

func newGauss(s *Solver) *gauss {
	return &gauss{s: s, occ: map[cnf.Var][]*xorRow{}}
}

// addRow records an XOR constraint. Duplicate variables cancel in pairs.
// Returns false if the row is the immediate contradiction 0 = 1.
func (g *gauss) addRow(vars []cnf.Var, rhs bool) bool {
	counts := map[cnf.Var]int{}
	for _, v := range vars {
		counts[v]++
	}
	var vs []cnf.Var
	for v, c := range counts {
		if c%2 == 1 {
			vs = append(vs, v)
		}
	}
	sort.Slice(vs, func(i, j int) bool { return vs[i] < vs[j] })
	if len(vs) == 0 {
		if rhs {
			g.s.ok = false
			g.s.logJustify(nil)
			return false
		}
		return true
	}
	g.raw = append(g.raw, xorRow{vars: vs, rhs: rhs})
	return true
}

// NumXorRows reports the number of XOR rows currently stored (raw, before
// elimination). Exposed for tests and statistics.
func (s *Solver) NumXorRows() int {
	if s.gauss == nil {
		return 0
	}
	return len(s.gauss.raw)
}

// initialize runs Gauss–Jordan elimination over the raw rows and prepares
// the propagation state. It may enqueue implied units (single-variable
// rows). Returns lFalse if the rows are contradictory by themselves.
func (g *gauss) initialize() lbool {
	g.pos = 0
	g.rows = g.rows[:0]
	g.occ = map[cnf.Var][]*xorRow{}
	if len(g.raw) == 0 {
		g.pos = len(g.s.trail)
		return lTrue
	}
	rows := g.eliminate()
	for _, r := range rows {
		switch len(r.vars) {
		case 0:
			if r.rhs {
				g.s.logJustify(nil)
				return lFalse
			}
		case 1:
			// Unit row: fix the variable at level 0.
			l := cnf.MkLit(r.vars[0], !r.rhs)
			g.s.logJustify([]cnf.Lit{l})
			if g.s.valueLit(l) == lFalse {
				return lFalse
			}
			if !g.s.enqueue(l, NullRef) {
				return lFalse
			}
		default:
			row := &xorRow{vars: r.vars, rhs: r.rhs, nUnassigned: len(r.vars)}
			g.rows = append(g.rows, row)
			for _, v := range row.vars {
				g.occ[v] = append(g.occ[v], row)
			}
		}
	}
	return lUndef
}

// eliminate runs Gauss–Jordan elimination over the raw rows with the gf2
// M4R kernel: column c holds the c-th variable in order of first
// appearance, and the RHS is the last column. It returns the nonzero
// reduced rows by leading column, each listing its variables in column
// order, or the lone row 0 = 1 if the rows contradict each other. Very
// large systems (dense work beyond ~2^26 word operations) skip the
// elimination — the rows still propagate, they are just not inter-reduced
// first, the same size guard real CMS applies to its Gaussian component.
func (g *gauss) eliminate() []xorRow {
	col := map[cnf.Var]int{}
	var vars []cnf.Var
	for _, r := range g.raw {
		for _, v := range r.vars {
			if _, ok := col[v]; !ok {
				col[v] = len(vars)
				vars = append(vars, v)
			}
		}
	}
	ncols := len(vars)
	if est := uint64(len(g.raw)) * uint64(len(g.raw)) * uint64(ncols/64+1); est > 1<<26 {
		return g.raw
	}
	m := gf2.NewMatrix(len(g.raw), ncols+1)
	for i, r := range g.raw {
		row := m.Row(i)
		for _, v := range r.vars {
			gf2.XorBit(row, col[v])
		}
		if r.rhs {
			gf2.XorBit(row, ncols)
		}
	}
	rank := m.RREFM4R()
	if rank > 0 && m.LeadingCol(rank-1) == ncols {
		return []xorRow{{rhs: true}}
	}
	out := make([]xorRow, rank)
	for i := range out {
		gf2.ForEachSetBit(m.Row(i), func(c int) {
			if c < ncols {
				out[i].vars = append(out[i].vars, vars[c])
			} else {
				out[i].rhs = true
			}
		})
	}
	return out
}

// advance observes trail literals not yet seen, updating row counters and
// enqueueing implications. It returns a conflict clause if a row's parity
// is violated, plus whether any progress was made.
func (g *gauss) advance() (ClauseRef, bool) {
	progressed := false
	for g.pos < len(g.s.trail) {
		l := g.s.trail[g.pos]
		g.pos++
		progressed = true
		v := l.Var()
		val := !l.Neg()
		// Counter updates must cover the literal's whole occurrence list
		// even when a conflict is found part-way: pos has already advanced
		// past the literal, so backtracking will undo the updates for every
		// row in the list.
		conflict := NullRef
		for _, row := range g.occ[v] {
			row.nUnassigned--
			if val {
				row.parity = !row.parity
			}
			if conflict != NullRef {
				continue
			}
			switch {
			case row.nUnassigned == 0 && row.parity != row.rhs:
				conflict = g.conflictClause(row)
			case row.nUnassigned == 1:
				conflict = g.imply(row)
			}
		}
		if conflict != NullRef {
			return conflict, true
		}
	}
	return NullRef, progressed
}

// imply enqueues the forced value of the single unassigned variable of the
// row, materializing the reason as a temp clause in the arena (freed by
// cancelUntil when the variable unassigns). Returns a conflict clause if
// the forced literal is already false (cannot normally happen, defensive).
func (g *gauss) imply(row *xorRow) ClauseRef {
	var u cnf.Var
	found := false
	for _, v := range row.vars {
		if g.s.assigns[v] == lUndef {
			u = v
			found = true
			break
		}
	}
	if !found {
		return NullRef // raced with this very advance loop; counter catches up
	}
	val := row.rhs != row.parity
	l := cnf.MkLit(u, !val)
	g.buf = append(g.buf[:0], l)
	for _, v := range row.vars {
		if v == u {
			continue
		}
		g.buf = append(g.buf, cnf.MkLit(v, g.s.assigns[v] == lTrue))
	}
	// The reason clause is entailed by the row (vars, rhs), which lies in
	// the span of the input XOR rows — log it so conflict analysis that
	// resolves on it stays checkable.
	g.s.logJustify(g.buf)
	reason := g.s.ca.alloc(g.buf, false, true)
	if g.s.valueLit(l) == lFalse {
		return reason
	}
	g.s.enqueue(l, reason)
	return NullRef
}

// conflictClause materializes the clause forbidding the current (violating)
// assignment of the row's variables: every literal is false right now. The
// clause is an arena temp; the caller of propagate releases it.
func (g *gauss) conflictClause(row *xorRow) ClauseRef {
	g.buf = g.buf[:0]
	for _, v := range row.vars {
		g.buf = append(g.buf, cnf.MkLit(v, g.s.assigns[v] == lTrue))
	}
	g.s.logJustify(g.buf)
	return g.s.ca.alloc(g.buf, false, true)
}

// unassign undoes the counter updates for literal l (called during
// backtracking for literals the component has observed).
func (g *gauss) unassign(l cnf.Lit) {
	v := l.Var()
	val := !l.Neg()
	for _, row := range g.occ[v] {
		row.nUnassigned++
		if val {
			row.parity = !row.parity
		}
	}
}
