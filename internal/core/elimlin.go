package core

import (
	"context"
	"math/rand"

	"repro/internal/anf"
)

// ElimLinConfig parameterizes ElimLin (§II-C).
type ElimLinConfig struct {
	// M bounds the linearized size of the subsampled system, as in XL.
	M int
	// MaxRounds caps the GJE–substitute iterations (a safety valve; the
	// algorithm terminates when no linear equations remain).
	MaxRounds int
	// Context, when non-nil, cancels the run: RunElimLin polls it at every
	// GJE–substitute round boundary and before each substitution of a
	// round, and returns the facts learnt so far. A nil Context never
	// cancels.
	Context context.Context
	// Rand drives the subsampling.
	Rand *rand.Rand
}

// DefaultElimLinConfig mirrors the paper's settings with the scaled M.
func DefaultElimLinConfig(rng *rand.Rand) ElimLinConfig {
	return ElimLinConfig{M: 20, MaxRounds: 64, Rand: rng}
}

// RunElimLin performs the ElimLin algorithm on a random subset of the
// system and returns the linear equations learnt across all rounds. The
// input system is not modified: substitutions rewrite, in place, only the
// reduced rows each round's GJE produces.
func RunElimLin(sys *anf.System, cfg ElimLinConfig) []anf.Poly {
	return runElimLin(sys, cfg, nil)
}

// runElimLin is the ElimLin pass. A non-nil w also gets a witness per
// learnt equation. Witnesses thread through the rounds: a reduced row
// combines the witnesses of the working polynomials the tracked
// elimination lists for it, and substituting v := l ⊕ v into p rewrites
// p to p ⊕ A·l (A the cofactor of v in p), so the working witness gains
// A-scaled copies of l's witness.
func runElimLin(sys *anf.System, cfg ElimLinConfig, w *witnessLog) []anf.Poly {
	if cfg.MaxRounds <= 0 {
		cfg.MaxRounds = 64
	}
	track := w != nil
	work, slots := subsample(sys, cfg.M, cfg.Rand, track)
	if len(work) == 0 {
		return nil
	}
	wits := make([][]SlotTerm, len(slots)) // tracked only: work[i]'s witness
	for i, slot := range slots {
		wits[i] = []SlotTerm{{Mult: anf.OnePoly(), Slot: slot}}
	}
	var idx occIndex
	var learnt []anf.Poly
	for round := 0; round < cfg.MaxRounds; round++ {
		// A cancelled run returns what it has: learnt facts are valid the
		// moment the GJE round that produced them finishes, so partial
		// results are still sound to propagate.
		if ctxCanceled(cfg.Context) {
			return learnt
		}
		// Step (1): GJE on the linearization.
		reduced, combos := gjeRows(work, track)
		// Step (2): gather the linear equations.
		var linear, rest []anf.Poly
		var linWits, restWits [][]SlotTerm
		for r, p := range reduced {
			var wit []SlotTerm
			if track {
				for _, j := range combos[r] {
					wit = append(wit, wits[j]...)
				}
				wit = canonSlotTerms(wit)
			}
			switch {
			case p.IsZero():
			case p.IsLinear():
				linear = append(linear, p)
				if track {
					linWits = append(linWits, wit)
				}
			default:
				rest = append(rest, p)
				if track {
					restWits = append(restWits, wit)
				}
			}
		}
		if len(linear) == 0 {
			break
		}
		learnt = append(learnt, linear...)
		for _, wit := range linWits {
			w.record(wit, "gje row")
		}
		// Step (3): use each linear equation to eliminate one variable.
		var visit func(li, i int, v anf.Var)
		if track {
			visit = func(li, i int, v anf.Var) {
				a := cofactor(rest[i], v)
				restWits[i] = canonSlotTerms(scaleSlotTerms(restWits[i], linWits[li], a))
			}
		}
		if contra := idx.eliminate(cfg.Context, linear, rest, visit); contra >= 0 {
			// Contradiction: surface it as a learnt fact and stop.
			if track {
				w.record(linWits[contra], "gje contradiction")
			}
			return append(learnt, anf.OnePoly())
		}
		work, wits = rest, restWits
	}
	return learnt
}

// occIndex is the occurrence index behind ElimLin's step (3): for every
// variable, the remaining equations of the round (indices into rest) that
// contain it. It is built once per round, after the GJE, and kept exact
// through every substitution, so choosing the variable to eliminate reads
// list lengths, and a substitution visits only the equations that contain
// its variable. The rewrites happen in place: rest holds ElimLin's own
// polynomials, fresh from gjeRows, which nothing else references.
type occIndex struct {
	occ    [][]int32 // occ[u]: the equations containing u, in no set order
	mark   []uint32  // mark[u] == stamp: u seen by the current equation scan
	stamp  uint32
	before []anf.Var // variables of the equation being rewritten
	sub    anf.Substituter
}

// eliminate runs step (3) of one round: each linear equation l in turn
// eliminates its variable v occurring in the fewest equations of rest
// (first of l's variables on ties) by substituting v := l ⊕ v into them.
// visit, when non-nil, sees each (linear index, equation index, v) just
// before that equation is rewritten. eliminate returns the index of the
// first linear equation that is the contradiction 1, stopping there, or -1.
// It polls ctx before each linear equation and stops, returning -1, once
// ctx is done: a tracked substitution can be long, so waiting for the
// round to end could overrun a deadline by far.
func (x *occIndex) eliminate(ctx context.Context, linear, rest []anf.Poly, visit func(li, i int, v anf.Var)) int {
	x.build(rest)
	for li, l := range linear {
		if ctxCanceled(ctx) {
			return -1
		}
		if l.IsOne() {
			return li
		}
		vs := l.LinearVars()
		if len(vs) == 0 {
			continue
		}
		v := x.pick(vs)
		if x.count(v) == 0 {
			continue
		}
		// Solve l for v: v = l ⊕ v (the rest of the equation).
		rhs := l.Add(anf.VarPoly(v))
		eqs := x.occ[v]
		for _, i := range eqs {
			if visit != nil {
				visit(li, int(i), v)
			}
			x.substitute(rest, int(i), v, rhs)
		}
		x.occ[v] = eqs[:0]
	}
	return -1
}

// build indexes rest, reusing the lists of the previous round.
func (x *occIndex) build(rest []anf.Poly) {
	for u := range x.occ {
		x.occ[u] = x.occ[u][:0]
	}
	for i, p := range rest {
		x.stamp++
		for _, t := range p.Terms() {
			for _, u := range t.Vars() {
				if x.see(u) {
					x.occ[u] = append(x.occ[u], int32(i))
				}
			}
		}
	}
}

// count returns the number of equations containing u.
func (x *occIndex) count(u anf.Var) int {
	if int(u) >= len(x.occ) {
		return 0
	}
	return len(x.occ[u])
}

// pick returns the variable of vs (sorted ascending) occurring in the
// fewest equations, the first of them on ties.
func (x *occIndex) pick(vs []anf.Var) anf.Var {
	v := vs[0]
	for _, u := range vs[1:] {
		if x.count(u) < x.count(v) {
			v = u
		}
	}
	return v
}

// see marks u as seen by the current scan, growing the index to cover it,
// and reports whether this is the scan's first sighting.
func (x *occIndex) see(u anf.Var) bool {
	if int(u) >= len(x.occ) {
		n := max(int(u)+1, 2*len(x.occ))
		x.occ = append(x.occ, make([][]int32, n-len(x.occ))...)
		x.mark = append(x.mark, make([]uint32, n-len(x.mark))...)
	}
	if x.mark[u] == x.stamp {
		return false
	}
	x.mark[u] = x.stamp
	return true
}

// substitute rewrites rest[i] to rest[i][v := rhs] in place and moves
// equation i between the lists of the variables the rewrite added or
// dropped. v itself is dropped (rhs does not contain it); the caller
// clears v's list once every equation on it is rewritten.
func (x *occIndex) substitute(rest []anf.Poly, i int, v anf.Var, rhs anf.Poly) {
	x.stamp++
	x.before = x.before[:0]
	for _, t := range rest[i].Terms() {
		for _, u := range t.Vars() {
			if x.see(u) {
				x.before = append(x.before, u)
			}
		}
	}
	x.sub.SubstituteInPlace(&rest[i], v, rhs)
	x.stamp++
	for _, t := range rest[i].Terms() {
		for _, u := range t.Vars() {
			if int(u) < len(x.mark) && x.mark[u] == x.stamp-1 {
				x.mark[u] = x.stamp // kept
			} else if x.see(u) {
				x.occ[u] = append(x.occ[u], int32(i)) // added
			}
		}
	}
	for _, u := range x.before {
		if x.mark[u] == x.stamp || u == v {
			continue
		}
		// Dropped: every term containing u cancelled or was rewritten.
		l := x.occ[u]
		for k, e := range l {
			if int(e) == i {
				l[k] = l[len(l)-1]
				x.occ[u] = l[:len(l)-1]
				break
			}
		}
	}
}
