package bench

import (
	"strings"
	"testing"
	"time"

	"repro/internal/cnf"
	"repro/internal/sat"
)

// A job whose arm returns the wrong verdict fails the measurement rather
// than publishing a timing. Only an arm that Declines (the router on a
// mixed residue) may answer sat.Unknown instead of the job's verdict.
func TestMeasureRejectsWrongVerdict(t *testing.T) {
	chain := cnfJob("chain-50", sat.Unsat, func() *cnf.Formula { return ImplicationChain(50) })
	fam := KernelFamily{Name: "cdcl_planted", Jobs: []KernelJob{chain}, Arms: cdclArms}
	_, err := Measure([]KernelFamily{fam}, 1, time.Millisecond)
	if err == nil || !strings.Contains(err.Error(), "cdcl_planted/chain-50/solve") {
		t.Fatalf("wrong verdict not rejected: %v", err)
	}

	giveUp := KernelArm{Name: "give-up", Run: func(any) sat.Status { return sat.Unknown }}
	fam = KernelFamily{Name: "cdcl_planted", Jobs: []KernelJob{chain}, Arms: []KernelArm{giveUp}}
	if _, err := Measure([]KernelFamily{fam}, 1, time.Millisecond); err == nil {
		t.Fatal("an arm that may not decline gave up and was timed")
	}

	mixed := cnfJob("mixed", sat.Sat, func() *cnf.Formula {
		f := cnf.NewFormula(3)
		f.AddClause(cnf.MkLit(0, false), cnf.MkLit(1, false), cnf.MkLit(2, true))
		f.AddClause(cnf.MkLit(0, true), cnf.MkLit(1, true))
		return f
	})
	if st := fragmentArms[0].Run(mixed.Build()); st != sat.Unknown {
		t.Fatalf("router decided the mixed residue: %v", st)
	}
	fam = KernelFamily{Name: "fragment", Jobs: []KernelJob{mixed}, Arms: fragmentArms}
	if _, err := Measure([]KernelFamily{fam}, 1, time.Millisecond); err != nil {
		t.Fatal(err)
	}
}

// Every cell of the table has its own record name, at both scales.
func TestKernelRecordNamesUnique(t *testing.T) {
	for _, quick := range []bool{false, true} {
		seen := map[string]bool{}
		for _, fam := range KernelFamilies(quick, 1) {
			for _, job := range fam.Jobs {
				for _, arm := range fam.Arms {
					name := fam.RecordName(job.Name, arm.Name)
					if seen[name] {
						t.Fatalf("quick=%v: record name %s twice", quick, name)
					}
					seen[name] = true
				}
			}
		}
	}
}

// BenchmarkKernels runs the kernel table under go test's timing, one
// sub-benchmark per family/job/arm, with the same verdict check as
// Measure: go test -run '^$' -bench 'Kernels/cdcl' ./internal/bench.
func BenchmarkKernels(b *testing.B) {
	for _, fam := range KernelFamilies(false, 1) {
		b.Run(fam.Name, func(b *testing.B) {
			for _, job := range fam.Jobs {
				b.Run(job.Name, func(b *testing.B) {
					in := job.Build()
					for _, arm := range fam.Arms {
						b.Run(arm.Name, func(b *testing.B) {
							b.ReportAllocs()
							for i := 0; i < b.N; i++ {
								if err := job.check(fam.Name, arm, arm.Run(in)); err != nil {
									b.Fatal(err)
								}
							}
						})
					}
				})
			}
		})
	}
}
