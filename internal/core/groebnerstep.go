package core

import (
	"math/rand"

	"repro/internal/anf"
	"repro/internal/groebner"
)

// GroebnerConfig parameterizes the optional Buchberger phase — the paper's
// §V discussion points out that with Bosphorus, Gröbner-basis computation
// "may now be applied in an iterative manner together with other solving
// techniques" instead of as a monolithic (and memory-hungry) solver. Like
// XL and ElimLin, the phase runs on a subsample under a strict work budget
// and only the cheap facts are retained.
type GroebnerConfig struct {
	// M bounds the linearized size of the subsample, as in XL/ElimLin.
	M int
	// Budget bounds the Buchberger work (see groebner.Options).
	Budget groebner.Options
	// Rand drives the subsampling.
	Rand *rand.Rand
}

// DefaultGroebnerConfig keeps the phase cheap: tiny subsamples, tight
// budgets — facts or fail-fast. (Buchberger cost is superlinear in every
// budget knob; these defaults keep the phase to a fraction of a second so
// it can run every iteration, per the §V "iterative manner" idea.)
func DefaultGroebnerConfig(rng *rand.Rand) GroebnerConfig {
	return GroebnerConfig{
		M:      10,
		Budget: groebner.Options{MaxBasis: 96, MaxTerms: 1 << 12, MaxReductions: 1 << 11},
		Rand:   rng,
	}
}

// RunGroebnerStep runs budgeted Buchberger on a subsample and harvests the
// same fact shapes as XL: linear polynomials, monomial ⊕ 1, and the
// contradiction 1.
func RunGroebnerStep(sys *anf.System, cfg GroebnerConfig) []anf.Poly {
	polys, _ := subsample(sys, cfg.M, cfg.Rand, false)
	if len(polys) == 0 {
		return nil
	}
	sub := anf.NewSystem()
	for _, p := range polys {
		sub.Add(p)
	}
	res := groebner.Basis(sub, cfg.Budget)
	if res.Contradiction {
		return []anf.Poly{anf.OnePoly()}
	}
	var facts []anf.Poly
	for _, g := range res.Basis {
		if g.IsLinear() || g.IsMonomialPlusOne() {
			facts = append(facts, g)
		}
	}
	return facts
}
