package anf_test

import (
	"math/rand"
	"testing"

	"repro/internal/anf"
	bitcoin "repro/internal/ciphers/sha256"
	"repro/internal/ciphers/simon"
	"repro/internal/conv"
	"repro/internal/satgen"
)

// BenchmarkPolyVars gathers the variables of every polynomial of the
// Bitcoin-[6], Simon-[8,8] and CNF-derived PHP(7,6) systems, the shapes
// ANFToCNF and System.Add read them from, plus one wide linear equation.
func BenchmarkPolyVars(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	wide := anf.Zero()
	for v := 0; v < 256; v++ {
		wide = wide.Add(anf.VarPoly(anf.Var(v)))
	}
	for _, in := range []struct {
		name  string
		polys []anf.Poly
	}{
		{"bitcoin-6-r16", bitcoin.GenerateBitcoin(bitcoin.BitcoinParams{K: 6, Rounds: 16}, rng).Sys.Polys()},
		{"simon-8-8", simon.GenerateInstance(simon.Params{NPlaintexts: 8, Rounds: 8}, rng).Sys.Polys()},
		{"php-7-6", conv.CNFToANF(satgen.Pigeonhole(7, 6).Formula, conv.DefaultOptions()).Polys()},
		{"linear-256", []anf.Poly{wide}},
	} {
		b.Run(in.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				for _, p := range in.polys {
					_ = p.Vars()
				}
			}
		})
	}
}
