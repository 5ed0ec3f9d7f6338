package bench

import (
	"testing"

	"repro/internal/cnf"
	"repro/internal/sat"
)

// runCDCL solves one job once with the given profile and returns the
// verdict and counter snapshot.
func runCDCL(job KernelJob, profile sat.Profile) (sat.Status, sat.Stats) {
	s := sat.New(sat.DefaultOptions(profile))
	if !s.AddFormula(job.Build().(*cnf.Formula)) {
		return sat.Unsat, s.Snapshot()
	}
	st := s.Solve()
	return st, s.Snapshot()
}

// Every CDCL benchmark job must solve to its known verdict under every
// profile — a wrong verdict would make the timing meaningless — and the
// counters must be identical across repeated runs (the determinism the
// before/after perf methodology rests on).
func TestCDCLJobsVerdictsAndDeterminism(t *testing.T) {
	jobs := append(CDCLPropagationJobs(), CDCLConflictJobs()...)
	for _, job := range jobs {
		job := job
		t.Run(job.Name, func(t *testing.T) {
			for _, prof := range []sat.Profile{sat.ProfileMiniSat, sat.ProfileCMS} {
				st1, stats1 := runCDCL(job, prof)
				if st1 != job.Want {
					t.Fatalf("%v: verdict %v, want %v", prof, st1, job.Want)
				}
				st2, stats2 := runCDCL(job, prof)
				if st1 != st2 || stats1 != stats2 {
					t.Fatalf("%v: nondeterministic run: %v/%+v vs %v/%+v",
						prof, st1, stats1, st2, stats2)
				}
			}
		})
	}
}

// The propagation family must actually be propagation-dominated and the
// conflict family conflict-dominated — otherwise a future regression in
// one path could hide behind the other family's numbers.
func TestCDCLFamiliesExerciseTheirPath(t *testing.T) {
	for _, job := range CDCLPropagationJobs() {
		_, stats := runCDCL(job, sat.ProfileMiniSat)
		if stats.Propagations == 0 {
			t.Fatalf("%s: no propagations", job.Name)
		}
		if stats.Conflicts > stats.Propagations/10 {
			t.Fatalf("%s: conflict-bound (%d conflicts vs %d propagations); not a propagation benchmark",
				job.Name, stats.Conflicts, stats.Propagations)
		}
	}
	sawReduce := false
	for _, job := range CDCLConflictJobs() {
		_, stats := runCDCL(job, sat.ProfileMiniSat)
		if stats.Conflicts < 100 {
			t.Fatalf("%s: only %d conflicts; not a conflict-analysis benchmark",
				job.Name, stats.Conflicts)
		}
		if stats.ReducedDBs > 0 {
			sawReduce = true
		}
	}
	if !sawReduce {
		t.Fatal("no conflict job triggered reduceDB; the family no longer exercises clause-DB churn")
	}
}
