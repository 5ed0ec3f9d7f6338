package sat

import (
	"math/rand"
	"testing"

	"repro/internal/satgen"
)

// The CDCL propagation and conflict families are timed with the rest of
// the kernel table: go test -run '^$' -bench 'Kernels/cdcl' ./internal/bench.

// Long-session benchmark: enumerate models with blocking clauses — the
// assume/enumerate workload whose peak watcher capacity the arena GC is
// meant to cap.
func BenchmarkCDCLEnumerate(b *testing.B) {
	f := satgen.GraphColoring(16, 3, 0.18, rand.New(rand.NewSource(14))).Formula
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s := New(DefaultOptions(ProfileMiniSat))
		if !s.AddFormula(f) {
			b.Fatal("load-time UNSAT")
		}
		s.EnumerateModels(f.NumVars, 64)
	}
}
