package core

import (
	"testing"

	"repro/internal/anf"
	"repro/internal/sat"
)

// The SAT step runs simp preprocessing exactly when the profile is
// Lingeling and no proof is requested: simp refutes unsat_pair.anf on its
// own, so the refuting fact's ledger note tells which path ran.
func TestLingelingStepPreprocesses(t *testing.T) {
	sys := anf.NewSystem()
	sys.Add(anf.MustParsePoly("x1*x2 + x3"))
	sys.Add(anf.MustParsePoly("x1*x2 + x3 + 1"))
	for _, tc := range []struct {
		profile   sat.Profile
		emitProof bool
		want      string
	}{
		{sat.ProfileLingeling, false, "preprocessor refutation"},
		{sat.ProfileLingeling, true, "solver refutation"},
		{sat.ProfileMiniSat, false, "solver refutation"},
		{sat.ProfileCMS, false, "solver refutation"},
	} {
		cfg := DefaultConfig()
		cfg.Profile = tc.profile
		cfg.DisableXL, cfg.DisableElimLin = true, true
		cfg.Provenance = true
		cfg.EmitProof = tc.emitProof
		res := Process(sys, cfg)
		facts := res.Provenance.Facts()
		if res.Status != SolvedUNSAT || len(facts) != 1 || facts[0].Note != tc.want {
			t.Errorf("%v, EmitProof=%v: %v with facts %+v; want UNSAT by %q",
				tc.profile, tc.emitProof, res.Status, facts, tc.want)
		}
		if tc.emitProof && res.Certificate == nil {
			t.Errorf("%v, EmitProof: no certificate", tc.profile)
		}
	}
}
