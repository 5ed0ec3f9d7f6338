package proof_test

import (
	"math/rand"
	"testing"

	"repro/internal/conv"
	"repro/internal/core"
	"repro/internal/proof"
	"repro/internal/satgen"
)

// BenchmarkCheck times Certificate.Check on certificates captured the way
// perfbench's cnf-unsat-proof workload captures them: a satgen UNSAT
// instance through CNFToANF and core.Process with EmitProof, whose
// refuting SAT step logs text DRAT. PHP-7 refutations set that
// workload's job-time tail.
func BenchmarkCheck(b *testing.B) {
	for _, tc := range []struct {
		name string
		inst *satgen.Instance
	}{
		{"php-7", satgen.Pigeonhole(8, 7)},
		{"chessboard-8", satgen.MutilatedChessboard(8)},
		{"rand3sat", satgen.RandomKSAT(60, 3, 7.0, rand.New(rand.NewSource(1)))},
	} {
		b.Run(tc.name, func(b *testing.B) {
			cert := captureCertificate(b, tc.inst)
			b.SetBytes(int64(len(cert.Proof)))
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				res, err := cert.Check()
				if err != nil || !res.Verified {
					b.Fatalf("certificate rejected: %v (%+v)", err, res)
				}
			}
		})
	}
}

// captureCertificate runs the engine with proof capture on and returns the
// refuting SAT step's certificate.
func captureCertificate(tb testing.TB, inst *satgen.Instance) *proof.Certificate {
	tb.Helper()
	cfg := core.DefaultConfig()
	cfg.EmitProof = true
	res := core.Process(conv.CNFToANF(inst.Formula, conv.DefaultOptions()), cfg)
	if res.Status != core.SolvedUNSAT || res.Certificate == nil {
		tb.Fatalf("%s: status %v, certificate %v: want a certified UNSAT", inst.Name, res.Status, res.Certificate != nil)
	}
	return res.Certificate
}
