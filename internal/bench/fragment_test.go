package bench

import (
	"testing"
	"time"

	"repro/internal/cnf"
	"repro/internal/route"
	"repro/internal/sat"
)

// fragmentOf is the classification each fragment job is built to have.
var fragmentOf = map[string]route.Fragment{
	"2sat-gadget-k1000":           route.Binary,
	"horn-sparse-v500000-m50000":  route.Horn,
	"xor-planted-v2048-e1300-w16": route.AffineXor,
	"near2sat-v4000-m4000-salt8":  route.Mixed,
}

// Every fragment job classifies as advertised, and on the pure fragments
// the routed verdict agrees with a full CDCL solve of the same formula —
// the differential contract the bench numbers rest on.
func TestFragmentJobsClassifyAndAgree(t *testing.T) {
	for _, job := range FragmentJobs() {
		job := job
		t.Run(job.Name, func(t *testing.T) {
			frag, ok := fragmentOf[job.Name]
			if !ok {
				t.Fatal("no expected fragment for this job")
			}
			f := job.Build().(*cnf.Formula)
			if got, _ := route.Classify(f); got != frag {
				t.Fatalf("Classify = %v, want %v", got, frag)
			}
			v, _, routed := route.Decide(f)
			if frag == route.Mixed {
				if routed {
					t.Fatalf("Mixed control was routed: %+v", v)
				}
				return
			}
			if !routed {
				t.Fatalf("pure fragment %v declined by the router", frag)
			}
			if v.Status != job.Want {
				t.Fatalf("routed %v, want %v", v.Status, job.Want)
			}
			if v.Status == sat.Sat {
				// A verified model is self-certifying; no CDCL run needed.
				if !f.Eval(func(vr cnf.Var) bool { return v.Model[vr] }) {
					t.Fatal("routed model does not satisfy the formula")
				}
			}
			// Cross-check the verdict against CDCL only on instances the
			// baseline can afford under -race (the family's bench-scale
			// jobs take minutes there; an UNSAT verdict on those is still
			// covered by the certificate checks in internal/route).
			lits := len(f.Xors)
			for _, c := range f.Clauses {
				lits += len(c)
			}
			if lits > 50000 {
				return
			}
			s := sat.New(sat.DefaultOptions(sat.ProfileCMS))
			st := sat.Unsat
			if s.AddFormula(f.Clone()) {
				st = s.Solve()
			}
			if v.Status != st {
				t.Fatalf("routed %v but CDCL says %v", v.Status, st)
			}
		})
	}
}

// Deterministic builders: two Build calls give identical formulas, so
// snapshot numbers are attributable to code changes, not instance noise.
func TestFragmentJobsDeterministic(t *testing.T) {
	for _, job := range FragmentJobs() {
		a, b := job.Build().(*cnf.Formula), job.Build().(*cnf.Formula)
		if len(a.Clauses) != len(b.Clauses) || len(a.Xors) != len(b.Xors) {
			t.Fatalf("%s: builds differ in size", job.Name)
		}
	}
}

// The measurement path runs end to end at smoke scale on both arms, and
// the router decides the pure fragment.
func TestMeasureFragmentSmoke(t *testing.T) {
	job := cnfJob("smoke-2sat", sat.Sat, func() *cnf.Formula {
		f := cnf.NewFormula(64)
		for i := 0; i+1 < 64; i++ {
			f.AddClause(cnf.MkLit(cnf.Var(i), true), cnf.MkLit(cnf.Var(i+1), false))
		}
		return f
	})
	if st := fragmentArms[0].Run(job.Build()); st != sat.Sat {
		t.Fatalf("smoke 2SAT chain was not routed: %v", st)
	}
	fam := KernelFamily{Name: "fragment", Jobs: []KernelJob{job}, Arms: fragmentArms}
	recs, err := Measure([]KernelFamily{fam}, 1, time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 2 || recs[0].Name != "fragment_smoke-2sat_routed" || recs[1].Name != "fragment_smoke-2sat_cdcl" {
		t.Fatalf("records %+v", recs)
	}
	for _, m := range recs {
		if m.NsPerOp <= 0 {
			t.Fatalf("degenerate timing: %+v", m)
		}
	}
}
