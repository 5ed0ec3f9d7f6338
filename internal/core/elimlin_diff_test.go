package core

import (
	"math/rand"
	"testing"

	"repro/internal/anf"
	bitcoin "repro/internal/ciphers/sha256"
	"repro/internal/ciphers/simon"
	"repro/internal/ciphers/sr"
)

// The differential pins below hold ElimLin's substitution step and
// VarState.NormalizePoly to their plainest form: after each GJE, every
// linear equation eliminates the variable a rescan of the remaining
// equations finds in the fewest of them, by a SubstituteVar sweep over
// all of them; normalization substitutes one bound variable at a time.
// The production code must learn the same facts, with the same witnesses,
// and normalize to the same polynomials.

// rescanPick returns the variable of vs (sorted ascending) occurring in
// the fewest polynomials of rest, first in vs on ties, counting every
// candidate in one pass over rest.
func rescanPick(vs []anf.Var, rest []anf.Poly) anf.Var {
	if len(vs) == 1 {
		return vs[0]
	}
	n := int(vs[len(vs)-1]) + 1
	counts := make([]int, n)
	lastSeen := make([]int, n) // polynomial index + 1 that last counted v
	cand := make([]bool, n)
	for _, v := range vs {
		cand[v] = true
	}
	for i, p := range rest {
		for _, t := range p.Terms() {
			for _, v := range t.Vars() {
				if int(v) < n && cand[v] && lastSeen[v] != i+1 {
					lastSeen[v] = i + 1
					counts[v]++
				}
			}
		}
	}
	best := vs[0]
	for _, v := range vs[1:] {
		if counts[v] < counts[best] {
			best = v
		}
	}
	return best
}

// sweepElimLin is the reference ElimLin loop.
func sweepElimLin(sys *anf.System, cfg ElimLinConfig) []anf.Poly {
	if cfg.MaxRounds <= 0 {
		cfg.MaxRounds = 64
	}
	work, _ := subsample(sys, cfg.M, cfg.Rand, false)
	if len(work) == 0 {
		return nil
	}
	var learnt []anf.Poly
	for round := 0; round < cfg.MaxRounds; round++ {
		var linear, rest []anf.Poly
		reduced, _ := gjeRows(work, false)
		for _, p := range reduced {
			switch {
			case p.IsZero():
			case p.IsLinear():
				linear = append(linear, p)
			default:
				rest = append(rest, p)
			}
		}
		if len(linear) == 0 {
			break
		}
		learnt = append(learnt, linear...)
		for _, l := range linear {
			if l.IsOne() {
				return append(learnt, anf.OnePoly())
			}
			vs := l.LinearVars()
			if len(vs) == 0 {
				continue
			}
			v := rescanPick(vs, rest)
			rhs := l.Add(anf.VarPoly(v))
			for i, p := range rest {
				rest[i] = p.SubstituteVar(v, rhs)
			}
		}
		work = rest
	}
	return learnt
}

// sweepElimLinProv is the reference ElimLin loop with witnesses.
func sweepElimLinProv(sys *anf.System, cfg ElimLinConfig) ([]anf.Poly, *witnessLog) {
	if cfg.MaxRounds <= 0 {
		cfg.MaxRounds = 64
	}
	w := &witnessLog{}
	work, slots := subsample(sys, cfg.M, cfg.Rand, true)
	if len(work) == 0 {
		return nil, w
	}
	wits := make([][]SlotTerm, len(work))
	for i, slot := range slots {
		wits[i] = []SlotTerm{{Mult: anf.OnePoly(), Slot: slot}}
	}
	var learnt []anf.Poly
	for round := 0; round < cfg.MaxRounds; round++ {
		reduced, ops := gjeRows(work, true)
		var linear, rest []anf.Poly
		var linWits, restWits [][]SlotTerm
		for r, p := range reduced {
			var w []SlotTerm
			for j := range work {
				if ops.Get(r, j) {
					w = append(w, wits[j]...)
				}
			}
			w = canonSlotTerms(w)
			switch {
			case p.IsZero():
			case p.IsLinear():
				linear = append(linear, p)
				linWits = append(linWits, w)
			default:
				rest = append(rest, p)
				restWits = append(restWits, w)
			}
		}
		if len(linear) == 0 {
			break
		}
		for i, l := range linear {
			learnt = append(learnt, l)
			w.record(linWits[i], "gje row")
		}
		for li, l := range linear {
			if l.IsOne() {
				w.record(linWits[li], "gje contradiction")
				return append(learnt, anf.OnePoly()), w
			}
			vs := l.LinearVars()
			if len(vs) == 0 {
				continue
			}
			v := rescanPick(vs, rest)
			rhs := l.Add(anf.VarPoly(v))
			for i, p := range rest {
				a := cofactor(p, v)
				rest[i] = p.SubstituteVar(v, rhs)
				if !a.IsZero() {
					restWits[i] = canonSlotTerms(scaleSlotTerms(restWits[i], linWits[li], a))
				}
			}
		}
		work = rest
		wits = restWits
	}
	return learnt, w
}

// perVarNormalize is the reference normalization: one substitution per
// bound variable, in ascending variable order.
func perVarNormalize(s *VarState, p anf.Poly) anf.Poly {
	for _, v := range p.Vars() {
		if int(v) >= s.NumVars() {
			continue
		}
		if val, ok := s.Value(v); ok {
			p = p.SubstituteConst(v, val)
			continue
		}
		if r := s.Find(v); r.V != v {
			p = p.SubstituteVar(v, r.Poly())
		}
	}
	return p
}

// elimLinDiffInputs returns the differential inputs for one seed: a
// Simon-[8,8] key recovery, a Bitcoin-[6] nonce search at 16 rounds, an
// SR instance and a planted random system.
func elimLinDiffInputs(seed int64) map[string]*anf.System {
	rng := rand.New(rand.NewSource(seed))
	return map[string]*anf.System{
		"simon":   simon.GenerateInstance(simon.Params{NPlaintexts: 8, Rounds: 8}, rng).Sys,
		"bitcoin": bitcoin.GenerateBitcoin(bitcoin.BitcoinParams{K: 6, Rounds: 16}, rng).Sys,
		"sr":      sr.GenerateInstance(sr.Params{N: 1, R: 2, C: 2, E: 4}, rng).Sys,
		"planted": randomPlantedSystem(rng, 10+rng.Intn(8)),
	}
}

func samePolys(a, b []anf.Poly) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if !a[i].Equal(b[i]) {
			return false
		}
	}
	return true
}

// sameWitnessed reports whether two tracked runs learnt the same facts
// with the same witnesses and notes, one of each per fact.
func sameWitnessed(a []anf.Poly, aw *witnessLog, b []anf.Poly, bw *witnessLog) bool {
	if !samePolys(a, b) || len(aw.wits) != len(a) || len(bw.wits) != len(b) ||
		len(aw.notes) != len(a) || len(bw.notes) != len(b) {
		return false
	}
	for i, wit := range aw.wits {
		if aw.notes[i] != bw.notes[i] || len(wit) != len(bw.wits[i]) {
			return false
		}
		for j, t := range wit {
			if t.Slot != bw.wits[i][j].Slot || !t.Mult.Equal(bw.wits[i][j].Mult) {
				return false
			}
		}
	}
	return true
}

// TestElimLinMatchesSweep runs ElimLin and the reference loop on each
// input as generated and as propagation leaves it (the system the
// fact-learning loop hands ElimLin), and normalizes every input
// polynomial against the propagation's state both ways. Provenance runs
// use M = 14: at M = 20 the witnesses of Simon and Bitcoin outgrow memory
// across the rounds, and SR's take most of the test's time.
func TestElimLinMatchesSweep(t *testing.T) {
	learnt := map[string]int{}
	for seed := int64(1); seed <= 20; seed++ {
		for name, sys := range elimLinDiffInputs(seed) {
			prop := NewPropagator(sys.Clone())
			if _, ok := prop.Propagate(); !ok {
				t.Fatalf("%s seed %d: propagation contradicted a satisfiable system", name, seed)
			}
			for _, p := range sys.Polys() {
				if got, want := prop.State.NormalizePoly(p), perVarNormalize(prop.State, p); !got.Equal(want) {
					t.Fatalf("%s seed %d: NormalizePoly(%s) = %s, per-variable %s", name, seed, p, got, want)
				}
			}
			for stage, work := range []*anf.System{sys, prop.Sys} {
				cfg := func(m int) ElimLinConfig {
					return ElimLinConfig{M: m, Rand: rand.New(rand.NewSource(seed))}
				}
				got, want := RunElimLin(work, cfg(20)), sweepElimLin(work, cfg(20))
				if !samePolys(got, want) {
					t.Fatalf("%s seed %d stage %d: RunElimLin learnt %d facts, reference %d (or different ones)",
						name, seed, stage, len(got), len(want))
				}
				var gotLog witnessLog
				gotProv := runElimLin(work, cfg(14), &gotLog)
				wantProv, wantLog := sweepElimLinProv(work, cfg(14))
				if !sameWitnessed(gotProv, &gotLog, wantProv, wantLog) {
					t.Fatalf("%s seed %d stage %d: tracked ElimLin facts or witnesses differ from the reference",
						name, seed, stage)
				}
				if !samePolys(gotProv, RunElimLin(work, cfg(14))) {
					t.Fatalf("%s seed %d stage %d: tracking changed the facts ElimLin learns", name, seed, stage)
				}
				learnt[name] += len(want)
			}
		}
	}
	for _, name := range []string{"simon", "bitcoin", "sr", "planted"} {
		if learnt[name] == 0 {
			t.Errorf("%s: ElimLin learnt nothing over 20 seeds; the pin is vacuous", name)
		}
	}
	t.Logf("facts learnt per family over 20 seeds: %v", learnt)
}

// deepCopyPolys copies polynomials down to their variable arrays.
func deepCopyPolys(ps []anf.Poly) []anf.Poly {
	out := make([]anf.Poly, len(ps))
	for i, p := range ps {
		ms := make([]anf.Monomial, len(p.Terms()))
		for k, m := range p.Terms() {
			ms[k] = anf.NewMonomial(m.Vars()...)
		}
		out[i] = anf.FromSortedMonomials(ms)
	}
	return out
}

// TestElimLinLeavesInputsAlone: ElimLin rewrites only its own working
// polynomials in place. The input system's polynomials (round 0 reads
// sys.Polys() directly) and the facts of earlier calls must still equal
// the deep copies taken before each call.
func TestElimLinLeavesInputsAlone(t *testing.T) {
	for seed := int64(1); seed <= 3; seed++ {
		for name, sys := range elimLinDiffInputs(seed) {
			prop := NewPropagator(sys.Clone())
			prop.Propagate()
			for _, work := range []*anf.System{sys, prop.Sys} {
				inputs := deepCopyPolys(work.Polys())
				var returned, copies [][]anf.Poly
				check := func(call string) {
					t.Helper()
					if !samePolys(work.Polys(), inputs) {
						t.Fatalf("%s seed %d: %s changed the input system", name, seed, call)
					}
					for k := range returned {
						if !samePolys(returned[k], copies[k]) {
							t.Fatalf("%s seed %d: %s changed the facts of call %d", name, seed, call, k)
						}
					}
				}
				for run := int64(0); run < 2; run++ {
					facts := RunElimLin(work, ElimLinConfig{M: 20, Rand: rand.New(rand.NewSource(seed + run))})
					check("RunElimLin")
					returned, copies = append(returned, facts), append(copies, deepCopyPolys(facts))
					provPolys := runElimLin(work, ElimLinConfig{M: 14, Rand: rand.New(rand.NewSource(seed + run))}, &witnessLog{})
					check("tracked ElimLin")
					returned, copies = append(returned, provPolys), append(copies, deepCopyPolys(provPolys))
				}
			}
		}
	}
}
