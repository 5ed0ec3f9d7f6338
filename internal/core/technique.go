package core

import (
	"context"
	"math/rand"

	"repro/internal/anf"
)

// Technique is a pluggable fact-learning component. The paper's §V
// discussion highlights that "it is relatively easy to include new solving
// techniques by plugging them as components into the workflow"; this
// interface is that plug point. A Technique inspects the master system
// (read-only) and returns learnt facts — polynomials implied by the
// system. Facts join the master through the usual dedup-and-propagate
// path, so a Technique never needs to worry about bookkeeping.
//
// The built-in phases (XL, ElimLin, the SAT step, the optional Buchberger
// phase) are hard-wired for fidelity with the paper's Fig. 1; extra
// techniques read the same iteration-start system as XL and ElimLin, and
// their facts merge after ElimLin's, in registration order.
type Technique interface {
	// Name identifies the technique in logs and statistics.
	Name() string
	// Learn returns facts implied by the system. Implementations must not
	// modify sys. The rng is seeded deterministically per run. The context
	// is the run's cancellation signal: long-running techniques should poll
	// ctx.Err() at internal boundaries and return (possibly partial) facts
	// promptly once it is non-nil — this is what lets a solver-service job
	// deadline or client disconnect actually free the worker.
	Learn(ctx context.Context, sys *anf.System, rng *rand.Rand) []anf.Poly
}

// TechniqueFunc adapts a function to the Technique interface.
type TechniqueFunc struct {
	// TechName is returned by Name.
	TechName string
	// Fn is invoked by Learn.
	Fn func(ctx context.Context, sys *anf.System, rng *rand.Rand) []anf.Poly
}

// Name implements Technique.
func (t TechniqueFunc) Name() string { return t.TechName }

// Learn implements Technique.
func (t TechniqueFunc) Learn(ctx context.Context, sys *anf.System, rng *rand.Rand) []anf.Poly {
	return t.Fn(ctx, sys, rng)
}

// BuchbergerTechnique wraps the budgeted Gröbner phase as a Technique —
// the concrete §V example ("using the Buchberger's algorithm as a
// preprocessor for SAT solving has previously been proposed, but with
// BOSPHORUS it may now be applied in an iterative manner").
func BuchbergerTechnique() Technique {
	return TechniqueFunc{
		TechName: "buchberger",
		Fn: func(ctx context.Context, sys *anf.System, rng *rand.Rand) []anf.Poly {
			if ctx.Err() != nil {
				return nil
			}
			return RunGroebnerStep(sys, DefaultGroebnerConfig(rng))
		},
	}
}
