package core

import (
	"math/rand"
	"testing"

	"repro/internal/anf"
	"repro/internal/ciphers/simon"
	"repro/internal/ciphers/sr"
)

// benchSRSystem returns a mid-size SR instance system: large enough that
// the linearize→GJE cycle dominates, small enough for -benchtime=1x smoke
// runs.
func benchSRSystem() *anf.System {
	rng := rand.New(rand.NewSource(7))
	inst := sr.GenerateInstance(sr.Params{N: 1, R: 2, C: 2, E: 4}, rng)
	return inst.Sys
}

func benchSimonSystem() *anf.System {
	rng := rand.New(rand.NewSource(8))
	inst := simon.GenerateInstance(simon.Params{NPlaintexts: 4, Rounds: 7}, rng)
	return inst.Sys
}

// BenchmarkXLLinearize measures one full XL pass (subsample → expand →
// linearize → GJE → fact extraction) on an SR instance — the dominant cost
// of every Bosphorus iteration.
func BenchmarkXLLinearize(b *testing.B) {
	sys := benchSRSystem()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rng := rand.New(rand.NewSource(1))
		_ = RunXL(sys, XLConfig{M: 20, DeltaM: 4, Deg: 1, Rand: rng})
	}
}

// BenchmarkXLSimon runs XL over the larger Simon system.
func BenchmarkXLSimon(b *testing.B) {
	sys := benchSimonSystem()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rng := rand.New(rand.NewSource(1))
		_ = RunXL(sys, XLConfig{M: 20, DeltaM: 4, Deg: 1, Rand: rng})
	}
}

// BenchmarkElimLin measures the full ElimLin rounds loop (GJE → gather
// linear → substitute) on the SR instance.
func BenchmarkElimLin(b *testing.B) {
	sys := benchSRSystem()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rng := rand.New(rand.NewSource(1))
		_ = RunElimLin(sys, ElimLinConfig{M: 20, Rand: rng})
	}
}

// BenchmarkGJERows measures just the linearize+reduce kernel: building the
// monomial→column index, filling the matrix, and reading reduced rows back.
func BenchmarkGJERows(b *testing.B) {
	sys := benchSRSystem()
	polys := sys.Polys()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_, _ = gjeRows(polys, false)
	}
}
