package core

import (
	"context"
	"math/rand"
	"sort"

	"repro/internal/anf"
	"repro/internal/gf2"
)

// ctxCanceled reports whether a (possibly nil) context has been cancelled
// — the shared interrupt probe of the technique implementations.
func ctxCanceled(ctx context.Context) bool {
	return ctx != nil && ctx.Err() != nil
}

// XLConfig parameterizes eXtended Linearization (§II-B).
type XLConfig struct {
	// M bounds the linearized size of the subsampled system: rows·cols ≲ 2^M.
	M int
	// DeltaM bounds the expansion: the expanded system stays ≲ 2^(M+DeltaM).
	DeltaM int
	// Deg is D, the maximum degree of the multiplier monomials (the paper
	// runs with D = 1: multiply by 1 and by each single variable).
	Deg int
	// Context, when non-nil, cancels the pass: RunXL polls it at expansion
	// and elimination boundaries and returns nil facts promptly after
	// cancellation. A nil Context never cancels.
	Context context.Context
	// Rand drives the uniform subsampling.
	Rand *rand.Rand
}

// DefaultXLConfig returns the paper's §IV parameters, with M scaled to
// laptop runs (the paper's M=30 assumes a large-memory machine; results
// are insensitive for our instance sizes).
func DefaultXLConfig(rng *rand.Rand) XLConfig {
	return XLConfig{M: 20, DeltaM: 4, Deg: 1, Rand: rng}
}

// RunXL performs one XL pass over the system and returns the learnt facts:
// linear polynomials and monomial-plus-one polynomials read off the
// Gauss–Jordan-reduced linearization (Table I's "retained" rows).
func RunXL(sys *anf.System, cfg XLConfig) []anf.Poly {
	return runXL(sys, cfg, nil)
}

// runXL is the XL pass. A non-nil w also gets a witness per learnt fact: a
// GF(2) combination of multiplier·slot-polynomial products, read off the
// ops matrix of the tracked elimination.
func runXL(sys *anf.System, cfg XLConfig, w *witnessLog) []anf.Poly {
	if cfg.Deg < 0 {
		cfg.Deg = 1
	}
	if ctxCanceled(cfg.Context) {
		return nil
	}
	track := w != nil
	polys, slots := subsample(sys, cfg.M, cfg.Rand, track)
	if len(polys) == 0 {
		return nil
	}
	// Expand in ascending degree order by monomials up to degree D, while
	// the linearized size stays under 2^(M+DeltaM). All expanded
	// polynomials are interned into a pass-local monomial table as they are
	// produced, which both tracks the distinct-monomial count incrementally
	// (the old implementation re-counted from scratch) and pre-computes the
	// integer column IDs the linearization step indexes by.
	sort.Stable(byDeg{polys, slots})
	limit := uint64(1) << uint(cfg.M+cfg.DeltaM)
	scratch := getLinScratch()
	defer putLinScratch(scratch)
	tab := scratch.tab
	expanded := make([]anf.Poly, 0, 2*len(polys))
	// srcs[r], tracked only: expanded row r is mult · the polynomial of slot.
	type rowSrc struct {
		slot int
		mult anf.Monomial
	}
	var srcs []rowSrc
	push := func(q anf.Poly, i int, mult anf.Monomial) {
		expanded = append(expanded, q)
		scratch.ids = tab.AppendTermIDs(scratch.ids, q)
		if track {
			srcs = append(srcs, rowSrc{slot: slots[i], mult: mult})
		}
	}
	for i, p := range polys {
		push(p, i, anf.One)
	}
	// Collect the variables of the sampled subsystem as degree-1
	// multipliers (D = 1); for D > 1, products of those variables.
	vars := collectVars(polys)
	multipliers := buildMultipliers(vars, cfg.Deg)
expansion:
	for i, p := range polys {
		if ctxCanceled(cfg.Context) {
			return nil
		}
		for _, m := range multipliers {
			q := p.MulMonomial(m)
			if q.IsZero() {
				continue
			}
			push(q, i, m)
			if uint64(len(expanded))*uint64(tab.Len()) > limit {
				break expansion
			}
		}
	}
	if ctxCanceled(cfg.Context) {
		return nil
	}
	rows, ops := gjeRowsIDs(expanded, scratch.ids, tab, track, scratch)
	var facts []anf.Poly
	for r, p := range rows {
		if !(p.IsLinear() || p.IsMonomialPlusOne() || p.IsOne()) {
			continue
		}
		facts = append(facts, p)
		if track {
			var wit []SlotTerm
			for j, src := range srcs {
				if ops.Get(r, j) {
					wit = append(wit, SlotTerm{Mult: anf.FromMonomials(src.mult), Slot: src.slot})
				}
			}
			w.record(canonSlotTerms(wit), "gje row")
		}
	}
	return facts
}

// subsample uniformly picks equations until the linearized size
// (rows × distinct monomials) reaches about 2^M (§II-B: m′·n′ ≳ 2^M). The
// distinct-monomial count runs over the system's interned IDs — a bitmap
// probe per term instead of the string-keyed map the seed used. With
// withSlots it also returns the equation slot of each pick, which
// provenance witnesses refer to; the random stream is the same either way.
func subsample(sys *anf.System, m int, rng *rand.Rand, withSlots bool) ([]anf.Poly, []int) {
	// Warm the table before snapshotting: MonoTable() rewrites the stored
	// polynomials with canonical interned terms, so the polys we pull carry
	// their IDs and every ID() below is an O(1) fast-path hit.
	tab := sys.MonoTable()
	all := sys.Polys()
	if len(all) == 0 {
		return nil, nil
	}
	var allSlots, slots []int // allSlots[k]: the slot holding all[k]
	if withSlots {
		for i := 0; i < sys.RawLen(); i++ {
			if !sys.At(i).IsZero() {
				allSlots = append(allSlots, i)
			}
		}
	}
	target := uint64(1) << uint(m)
	perm := rng.Perm(len(all))
	seen := make([]bool, tab.Len())
	distinct := 0
	var out []anf.Poly
	for _, idx := range perm {
		p := all[idx]
		out = append(out, p)
		if withSlots {
			slots = append(slots, allSlots[idx])
		}
		for _, t := range p.Terms() {
			if id := tab.ID(t); !seen[id] {
				seen[id] = true
				distinct++
			}
		}
		if uint64(len(out))*uint64(distinct) >= target {
			break
		}
	}
	return out, slots
}

// byDeg stably orders a subsample by degree, carrying its slots along
// when they are tracked.
type byDeg struct {
	polys []anf.Poly
	slots []int
}

func (s byDeg) Len() int           { return len(s.polys) }
func (s byDeg) Less(i, j int) bool { return s.polys[i].Deg() < s.polys[j].Deg() }
func (s byDeg) Swap(i, j int) {
	s.polys[i], s.polys[j] = s.polys[j], s.polys[i]
	if s.slots != nil {
		s.slots[i], s.slots[j] = s.slots[j], s.slots[i]
	}
}

func collectVars(polys []anf.Poly) []anf.Var {
	seen := map[anf.Var]struct{}{}
	for _, p := range polys {
		for _, v := range p.Vars() {
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

// buildMultipliers returns all monomials of degree 1..deg over vars.
func buildMultipliers(vars []anf.Var, deg int) []anf.Monomial {
	var out []anf.Monomial
	var cur []anf.Var
	var rec func(start, d int)
	rec = func(start, d int) {
		if len(cur) > 0 {
			out = append(out, anf.NewMonomial(cur...))
		}
		if d == 0 {
			return
		}
		for i := start; i < len(vars); i++ {
			cur = append(cur, vars[i])
			rec(i+1, d-1)
			cur = cur[:len(cur)-1]
		}
	}
	rec(0, deg)
	return out
}

// gjeRows linearizes the polynomials (one column per distinct monomial,
// constant column last), runs Gauss–Jordan elimination, and returns every
// nonzero reduced row as a polynomial, plus the ops matrix when track is
// set (see gjeRowsIDs). The interning table and ID buffers come from the
// pooled scratch: ElimLin calls this once per substitution round, and the
// reset-not-reallocate lifecycle keeps the rounds allocation-light.
func gjeRows(polys []anf.Poly, track bool) ([]anf.Poly, *gf2.Matrix) {
	scratch := getLinScratch()
	defer putLinScratch(scratch)
	tab := scratch.tab
	for _, p := range polys {
		scratch.ids = tab.AppendTermIDs(scratch.ids, p)
	}
	return gjeRowsIDs(polys, scratch.ids, tab, track, scratch)
}

// gjeRowsIDs is the linearize→eliminate→extract kernel. ids holds the
// term IDs of every polynomial, concatenated in row order (row r owns the
// next polys[r].NumTerms() entries), with every ID already interned in
// tab — so each column index is an integer array lookup and the hot path
// does no string hashing at all. Untracked, the M4R kernel eliminates
// and ops is nil. Tracked, the plain elimination also returns ops, whose
// row r writes reduced row r as a combination of the input polynomials.
// The RREF is unique, so the rows are the same.
func gjeRowsIDs(polys []anf.Poly, ids []uint32, tab *anf.MonoTable, track bool, s *linScratch) ([]anf.Poly, *gf2.Matrix) {
	mat, order, monos := linearize(polys, ids, tab, s)
	var rank int
	var ops *gf2.Matrix
	if track {
		rank, ops = mat.RREFTracked()
	} else {
		rank = mat.RREFM4R()
	}
	return extractRows(mat, rank, order, monos), ops
}

// linearize builds the GF(2) matrix of the polynomials: one column per
// distinct monomial, sorted descending (leading terms first) so the
// reduction eliminates high-degree monomials first, mirroring Table I.
func linearize(polys []anf.Poly, ids []uint32, tab *anf.MonoTable, s *linScratch) (*gf2.Matrix, []uint32, []anf.Monomial) {
	monos := tab.Monos()
	order, col := s.orderBufs(len(monos)) // col: monomial ID → matrix column
	for i := range order {
		order[i] = uint32(i)
	}
	sort.Slice(order, func(i, j int) bool {
		return monos[order[i]].Compare(monos[order[j]]) > 0
	})
	for c, id := range order {
		col[id] = c
	}
	mat := gf2.NewMatrix(len(polys), len(monos))
	pos := 0
	for r, p := range polys {
		row := mat.Row(r)
		for n := p.NumTerms(); n > 0; n-- {
			c := col[ids[pos]]
			pos++
			gf2.XorBit(row, c)
		}
	}
	return mat, order, monos
}

// extractRows reads the first rank reduced rows back into polynomials.
func extractRows(mat *gf2.Matrix, rank int, order []uint32, monos []anf.Monomial) []anf.Poly {
	out := make([]anf.Poly, 0, rank)
	var terms []anf.Monomial
	for r := 0; r < rank; r++ {
		terms = terms[:0]
		gf2.ForEachSetBit(mat.Row(r), func(c int) {
			if c < len(order) {
				terms = append(terms, monos[order[c]])
			}
		})
		// Ascending columns are descending monomials — already the
		// canonical Poly term order, so skip FromMonomials' sort.
		out = append(out, anf.FromSortedMonomials(terms))
	}
	return out
}
