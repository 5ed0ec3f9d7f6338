package bench

import (
	"testing"
	"time"

	"repro/internal/cnf"
	"repro/internal/sat"
)

// TestParityJobsVerdicts runs every family member once per arm and checks
// the expected verdict. It keeps the frozen seeds honest: a generator
// change that flips a member's verdict fails here rather than making the
// next snapshot fail.
func TestParityJobsVerdicts(t *testing.T) {
	for _, job := range ParityJobs() {
		job := job
		t.Run(job.Name, func(t *testing.T) {
			f := job.Build().(*cnf.Formula)
			if len(f.Xors) == 0 {
				t.Fatalf("family member carries no native XOR clauses")
			}
			for _, arm := range parityArms {
				if st := arm.Run(f); st != job.Want {
					t.Errorf("%s arm: status = %v, want %v", arm.Name, st, job.Want)
				}
			}
		})
	}
}

// TestMeasureParityQuick exercises the measurement path end to end on a
// miniature cascade so CI asserts the harness (verdict check, medians)
// without paying full-family timings. Both arms must refute it.
func TestMeasureParityQuick(t *testing.T) {
	job := cnfJob("cascade-v200-w4-unsat", sat.Unsat, func() *cnf.Formula {
		return ParityCascade(200, 4, true, 5)
	})
	for _, arm := range parityArms {
		if st := arm.Run(job.Build()); st != sat.Unsat {
			t.Fatalf("%s arm: status = %v, want %v", arm.Name, st, sat.Unsat)
		}
	}
	fam := KernelFamily{Name: "parity", Jobs: []KernelJob{job}, Arms: parityArms}
	recs, err := Measure([]KernelFamily{fam}, 1, time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 2 {
		t.Fatalf("measurements missing: %+v", recs)
	}
	for _, m := range recs {
		if m.NsPerOp <= 0 {
			t.Fatalf("unmeasured arm: %+v", m)
		}
	}
}
