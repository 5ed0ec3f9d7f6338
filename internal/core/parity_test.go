package core

import (
	"os"
	"testing"

	"repro/internal/anf"
	"repro/internal/sat"
)

// TestUnsatParityBothXorArms runs examples/instances/unsat_parity.anf with
// XL and ElimLin off, so that a SAT step has to refute it, once through
// native parity clauses and once through the differential baseline
// (NoNativeXor): the clausal cut under MiniSat, the Gauss side-car under
// CMS. Every arm must answer UNSAT with a certificate the DRAT checker
// accepts, and only the MiniSat baseline may hand the solver a formula
// without XOR rows.
func TestUnsatParityBothXorArms(t *testing.T) {
	f, err := os.Open("../../examples/instances/unsat_parity.anf")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	sys, err := anf.ReadSystem(f)
	if err != nil {
		t.Fatal(err)
	}
	for _, profile := range []sat.Profile{sat.ProfileCMS, sat.ProfileMiniSat} {
		for _, noNative := range []bool{false, true} {
			cfg := DefaultConfig()
			cfg.Profile = profile
			cfg.DisableXL = true
			cfg.DisableElimLin = true
			cfg.StopOnSolution = true
			cfg.EmitProof = true
			cfg.NoNativeXor = noNative
			res := Process(sys, cfg)
			if res.Status != SolvedUNSAT || res.SAT.Runs == 0 || res.Certificate == nil {
				t.Fatalf("profile %v, NoNativeXor %v: %v after %d SAT steps (certificate %v), want a SAT-step UNSAT",
					profile, noNative, res.Status, res.SAT.Runs, res.Certificate != nil)
			}
			if cut := len(res.Certificate.Formula.Xors) == 0; cut != (noNative && profile == sat.ProfileMiniSat) {
				t.Fatalf("profile %v, NoNativeXor %v: solver saw %d XOR rows", profile, noNative, len(res.Certificate.Formula.Xors))
			}
			if cr, err := res.Certificate.Check(); err != nil || !cr.Verified {
				t.Fatalf("profile %v, NoNativeXor %v: certificate rejected: %+v, %v", profile, noNative, cr, err)
			}
		}
	}
}
