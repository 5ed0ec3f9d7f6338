package core

import (
	"math/rand"
	"testing"

	"repro/internal/anf"
	"repro/internal/proof"
)

// randomPlantedSystem generates a system vanishing on a planted solution,
// so it is guaranteed satisfiable — the shape the differential test uses.
func randomPlantedSystem(rng *rand.Rand, nVars int) *anf.System {
	sol := make([]bool, nVars)
	for i := range sol {
		sol[i] = rng.Intn(2) == 1
	}
	sys := anf.NewSystem()
	sys.SetNumVars(nVars)
	for i := 0; i < nVars+3; i++ {
		var monos []anf.Monomial
		c := false
		for j := 0; j <= rng.Intn(3); j++ {
			var vs []anf.Var
			val := true
			for d := 0; d < 1+rng.Intn(2); d++ {
				v := anf.Var(rng.Intn(nVars))
				vs = append(vs, v)
				val = val && sol[v]
			}
			monos = append(monos, anf.NewMonomial(vs...))
			c = c != val
		}
		if c {
			monos = append(monos, anf.One)
		}
		sys.Add(anf.FromMonomials(monos...))
	}
	return sys
}

// Provenance tracking must be an observer: the engine with tracking on
// learns exactly the facts it learns with tracking off, with one learner
// at a time and with several at once.
func TestProvenanceDoesNotChangeResult(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	systems := []*anf.System{sysFrom(t, paperExample)}
	for i := 0; i < 6; i++ {
		systems = append(systems, randomPlantedSystem(rng, 4+rng.Intn(5)))
	}
	systems = append(systems, sysFrom(t, "x0*x1 + x0 + x1\nx0 + x1 + 1\nx1\nx0\n"))
	for si, sys := range systems {
		for _, workers := range []int{0, 3} {
			cfg := DefaultConfig()
			cfg.Seed = int64(si + 1)
			cfg.Workers = workers
			plain := Process(sys, cfg)
			cfg.Provenance = true
			tracked := Process(sys, cfg)
			if plain.Status != tracked.Status || plain.Iterations != tracked.Iterations {
				t.Fatalf("sys %d workers %d: status/iters diverge: %v/%d vs %v/%d",
					si, workers, plain.Status, plain.Iterations, tracked.Status, tracked.Iterations)
			}
			pf := [4]int{plain.XL.NewFacts, plain.ElimLin.NewFacts, plain.SAT.NewFacts, plain.PropagationFacts}
			tf := [4]int{tracked.XL.NewFacts, tracked.ElimLin.NewFacts, tracked.SAT.NewFacts, tracked.PropagationFacts}
			if pf != tf {
				t.Fatalf("sys %d workers %d: fact counts diverge: %v vs %v", si, workers, pf, tf)
			}
			pp, tp := plain.System.Polys(), tracked.System.Polys()
			if len(pp) != len(tp) {
				t.Fatalf("sys %d workers %d: system sizes diverge: %d vs %d", si, workers, len(pp), len(tp))
			}
			for i := range pp {
				if !pp[i].Equal(tp[i]) {
					t.Fatalf("sys %d workers %d: poly %d diverges: %v vs %v", si, workers, i, pp[i], tp[i])
				}
			}
			if tracked.Provenance == nil {
				t.Fatalf("sys %d workers %d: no ledger on tracked run", si, workers)
			}
			if plain.Provenance != nil {
				t.Fatalf("sys %d: ledger present on untracked run", si)
			}
		}
	}
}

// Every record the tracked engine writes must re-derive against the
// original input system — the tentpole's 100%-verification criterion at
// the engine level, with one learner at a time and with two at once.
func TestProvenanceVerifiesEverything(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	systems := []*anf.System{
		sysFrom(t, paperExample),
		sysFrom(t, "x0*x1 + x0 + x1\nx0 + x1 + 1\nx1\nx0\n"),
		sysFrom(t, "x0 + x1\nx1 + x2\nx0 + x2 + 1\n"),
	}
	for i := 0; i < 5; i++ {
		systems = append(systems, randomPlantedSystem(rng, 4+rng.Intn(5)))
	}
	for si, sys := range systems {
		for _, workers := range []int{0, 2} {
			cfg := DefaultConfig()
			cfg.Seed = int64(si + 7)
			cfg.Provenance = true
			cfg.Workers = workers
			cfg.EnableProbing = si%2 == 0
			cfg.EnableGroebner = si%3 == 0
			res := Process(sys, cfg)
			report := proof.VerifyFacts(sys, res.Provenance, proof.VerifyOptions{Seed: 5})
			if !report.AllVerified() {
				for _, v := range report.Verdicts {
					if !v.Verdict.Verified() {
						rec := res.Provenance.At(v.ID)
						t.Errorf("sys %d workers %d: record %d (%s iter %d) %v: %s [%v]",
							si, workers, v.ID, v.Technique, v.Iteration, v.Verdict, v.Detail, rec.Poly)
					}
				}
				t.Fatalf("sys %d workers %d: %s", si, workers, report.Summary())
			}
			if res.Status == SolvedUNSAT {
				// The refutation must be in the ledger, not just the Status.
				found := false
				for _, r := range res.Provenance.Facts() {
					if r.Poly.IsOne() {
						found = true
					}
				}
				if !found {
					t.Fatalf("sys %d workers %d: UNSAT verdict without a 1=0 record", si, workers)
				}
			}
		}
	}
}

// An UNSAT run with proof capture must attach a certificate that the
// independent DRAT checker accepts, in both encodings, and reject a
// corrupted proof.
func TestEngineCertificate(t *testing.T) {
	// Force the refutation through the SAT step: two contradictory
	// quadratics that propagation leaves alone (neither is a unit, a
	// monomial-plus-one, or a linear pair), with XL/ElimLin disabled so
	// GJE cannot sum them to 1 first.
	src := "x0*x1 + x2\nx0*x1 + x2 + 1\n"
	for _, binary := range []bool{false, true} {
		sys := sysFrom(t, src)
		cfg := DefaultConfig()
		cfg.Provenance = true
		cfg.EmitProof = true
		cfg.ProofBinary = binary
		cfg.DisableXL = true
		cfg.DisableElimLin = true
		res := Process(sys, cfg)
		if res.Status != SolvedUNSAT {
			t.Fatalf("binary=%v: status %v, want UNSAT", binary, res.Status)
		}
		if res.Certificate == nil {
			// The refutation may have come from propagation/techniques
			// before any SAT step ran; this instance is built to need the
			// solver, so a missing certificate is a wiring bug.
			t.Fatalf("binary=%v: UNSAT without certificate", binary)
		}
		cr, err := res.Certificate.Check()
		if err != nil || !cr.Verified {
			t.Fatalf("binary=%v: certificate rejected: %+v err=%v", binary, cr, err)
		}
		// Bit-flip corruption must be detectable: some single-bit mutation
		// of the stream has to be rejected. (Not every flip breaks a proof
		// — one may turn a literal into another whose clause is still RUP
		// — so scan for a rejected one rather than betting on an offset.)
		rejected := false
		for i := range res.Certificate.Proof {
			mut := *res.Certificate
			mut.Proof = append([]byte(nil), res.Certificate.Proof...)
			mut.Proof[i] ^= 0x01
			if cr, err := mut.Check(); err != nil || !cr.Verified {
				rejected = true
				break
			}
		}
		if !rejected {
			t.Fatalf("binary=%v: every single-bit mutation of the proof still verified", binary)
		}
	}
}
