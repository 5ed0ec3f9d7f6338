package conv

import (
	"math/rand"
	"testing"

	"repro/internal/anf"
	bitcoin "repro/internal/ciphers/sha256"
	"repro/internal/ciphers/simon"
	"repro/internal/ciphers/sr"
	"repro/internal/cnf"
	"repro/internal/satgen"
)

type namedSystem struct {
	name string
	sys  *anf.System
}

// convInputs are the conversion shapes of the end-to-end workloads: the
// Bitcoin-[6] and Simon-[8,8] inputs, and CNFToANF of the crafted,
// random and LFSR CNF families.
func convInputs() []namedSystem {
	rng := rand.New(rand.NewSource(1))
	opts := DefaultOptions()
	return []namedSystem{
		{"bitcoin-6-r16", bitcoin.GenerateBitcoin(bitcoin.BitcoinParams{K: 6, Rounds: 16}, rng).Sys},
		{"simon-8-8", simon.GenerateInstance(simon.Params{NPlaintexts: 8, Rounds: 8}, rng).Sys},
		{"php-7-6", CNFToANF(satgen.Pigeonhole(7, 6).Formula, opts)},
		{"chessboard-8", CNFToANF(satgen.MutilatedChessboard(8).Formula, opts)},
		{"rand3sat-60", CNFToANF(satgen.RandomKSAT(60, 3, 7.0, rng).Formula, opts)},
		{"lfsr-unsat", CNFToANF(satgen.LFSRReach(10, 12, true, rng).Formula, opts)},
	}
}

// BenchmarkANFToCNF converts the Bitcoin-[6], Simon-[8,8] and PHP(7,6)
// inputs: the shapes whose Karnaugh polynomials repeat.
func BenchmarkANFToCNF(b *testing.B) {
	opts := DefaultOptions()
	for _, in := range convInputs()[:3] {
		b.Run(in.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if f, _ := ANFToCNF(in.sys, opts); len(f.Clauses) == 0 {
					b.Fatal("empty conversion")
				}
			}
		})
	}
}

// Conversion throughput on a full paper-scale SR(1,4,4,8) system (800
// variables, ~1700 equations) — the conversion-cost premise of the paper:
// bridging is attractive because conversion time is negligible relative
// to solving time.
func BenchmarkANFToCNF_SRPaperScale(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	inst := sr.GenerateInstance(sr.Paper144_8, rng)
	opts := DefaultOptions()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		f, _ := ANFToCNF(inst.Sys, opts)
		if f.NumVars == 0 {
			b.Fatal("empty conversion")
		}
	}
}

func BenchmarkCNFToANF_Suite(b *testing.B) {
	rng := rand.New(rand.NewSource(2))
	// A mid-size CNF with mixed clause lengths.
	f := cnf.NewFormula(200)
	for i := 0; i < 850; i++ {
		k := 1 + rng.Intn(5)
		var lits []cnf.Lit
		for j := 0; j < k; j++ {
			lits = append(lits, cnf.MkLit(cnf.Var(rng.Intn(200)), rng.Intn(2) == 1))
		}
		f.AddClause(lits...)
	}
	opts := DefaultOptions()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sys := CNFToANF(f, opts)
		if sys.Len() == 0 {
			b.Fatal("empty conversion")
		}
	}
}
