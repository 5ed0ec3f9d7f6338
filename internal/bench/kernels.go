// Kernel tier. Beside the Table II harness (whole pipeline, wall-clock
// PAR-2), the repo times the pieces the paper borrows one at a time: the
// XL and ElimLin linearizations, M4RI-style GF(2) elimination, the CDCL
// solver, cube-and-conquer, the fragment router and native parity
// clauses. Each is a KernelFamily: jobs × named arms, every job built once
// outside the timing and solved by every arm. `benchtab -perf` writes one
// Measurement per (family, job, arm) and BenchmarkKernels runs the same
// table under go test.
package bench

import (
	"fmt"
	"math/rand"
	"runtime"
	"slices"
	"time"

	"repro/internal/anf"
	"repro/internal/ciphers/sr"
	"repro/internal/cnf"
	"repro/internal/core"
	"repro/internal/gf2"
	"repro/internal/sat"
)

// KernelJob is one deterministic kernel-tier instance.
type KernelJob struct {
	Name string
	// Want is the job's verdict, which every arm must return (an arm
	// that Declines may return sat.Unknown instead); the ANF and GF(2)
	// kernels decide nothing and want sat.Unknown.
	Want sat.Status
	// Build makes the arms' input (a *cnf.Formula for the solver
	// families) outside the timed region.
	Build func() any
}

// KernelArm is one way a family solves its jobs' inputs.
type KernelArm struct {
	Name string
	Run  func(in any) sat.Status
	// Declines marks an arm that may answer sat.Unknown on any job, like
	// the router on a residue outside its fragments.
	Declines bool
}

// KernelFamily is a set of jobs, each timed under every arm.
type KernelFamily struct {
	Name string
	Jobs []KernelJob
	Arms []KernelArm
}

// Measurement is one (family, job, arm) cell of a snapshot: the medians
// over the rounds of ns/op, allocs/op and bytes/op.
type Measurement struct {
	Name        string `json:"name"`
	NsPerOp     int64  `json:"ns_per_op"`
	AllocsPerOp int64  `json:"allocs_per_op"`
	BytesPerOp  int64  `json:"bytes_per_op"`
}

// RecordName names a cell family_job_arm; a family with one arm leaves
// the arm out. These are the names the frozen BENCH_pr*.json snapshots
// use, so -compare pairs new cells with old ones.
func (f KernelFamily) RecordName(job, arm string) string {
	if len(f.Arms) == 1 {
		return f.Name + "_" + job
	}
	return f.Name + "_" + job + "_" + arm
}

// check rejects a verdict other than the job's, unless arm declined.
func (j KernelJob) check(family string, arm KernelArm, got sat.Status) error {
	if got != j.Want && !(arm.Declines && got == sat.Unknown) {
		return fmt.Errorf("%s/%s/%s: verdict %v, want %v", family, j.Name, arm.Name, got, j.Want)
	}
	return nil
}

// KernelFamilies is the kernel table. quick shrinks every job so the whole
// table runs in about a second; its numbers only show that the harness
// works and are not comparable with a full snapshot's. seed drives the
// XL and ElimLin randomness and the elimination matrix.
func KernelFamilies(quick bool, seed int64) []KernelFamily {
	matN := 1024
	prop, conf := CDCLPropagationJobs(), CDCLConflictJobs()
	cubes, frags, parity := CubeScalingJobs(), FragmentJobs(), ParityJobs()
	if quick {
		matN = 128
		prop = []KernelJob{cnfJob("chain-500", sat.Sat, func() *cnf.Formula { return ImplicationChain(500) })}
		conf = []KernelJob{pigeonholeJob(5, 4)}
		cubes = []KernelJob{pigeonholeJob(5, 4)}
		frags = []KernelJob{
			cnfJob("2sat-gadget-k60", sat.Sat, func() *cnf.Formula { return Gadget2SAT(60) }),
			cnfJob("horn-sparse-v20000-m2000", sat.Sat, func() *cnf.Formula {
				return HornSparse(20000, 2000, rand.New(rand.NewSource(7)))
			}),
			cnfJob("xor-planted-v64-e60", sat.Sat, func() *cnf.Formula {
				return XorSystem(64, 60, 4, false, rand.New(rand.NewSource(82)))
			}),
		}
		parity = []KernelJob{cnfJob("cascade-v200-w4-unsat", sat.Unsat, func() *cnf.Formula {
			return ParityCascade(200, 4, true, 5)
		})}
	}
	srSys := KernelJob{Name: "sr", Want: sat.Unknown, Build: func() any {
		return sr.GenerateInstance(sr.Params{N: 1, R: 2, C: 2, E: 4}, rand.New(rand.NewSource(7))).Sys
	}}
	// The job keeps the frozen snapshots' "_w1" (one worker) in its name.
	matrix := KernelJob{Name: fmt.Sprintf("%d_w1", matN), Want: sat.Unknown, Build: func() any {
		rng := rand.New(rand.NewSource(seed))
		m := gf2.NewMatrix(matN, matN)
		for r := 0; r < matN; r++ {
			for c := 0; c < matN; c++ {
				if rng.Intn(2) == 1 {
					m.Set(r, c, true)
				}
			}
		}
		return m
	}}
	return []KernelFamily{
		{Name: "xl", Jobs: []KernelJob{srSys}, Arms: []KernelArm{{Name: "xl", Run: func(in any) sat.Status {
			core.RunXL(in.(*anf.System), core.XLConfig{M: 20, DeltaM: 4, Deg: 1, Rand: rand.New(rand.NewSource(seed))})
			return sat.Unknown
		}}}},
		{Name: "elimlin", Jobs: []KernelJob{srSys}, Arms: []KernelArm{{Name: "elimlin", Run: func(in any) sat.Status {
			core.RunElimLin(in.(*anf.System), core.ElimLinConfig{M: 20, Rand: rand.New(rand.NewSource(seed))})
			return sat.Unknown
		}}}},
		// The elimination works in place, so each run reduces a fresh copy.
		{Name: "rref_m4r", Jobs: []KernelJob{matrix}, Arms: []KernelArm{{Name: "m4r", Run: func(in any) sat.Status {
			in.(*gf2.Matrix).Clone().RREFM4R()
			return sat.Unknown
		}}}},
		{Name: "cdcl_propagation", Jobs: prop, Arms: cdclArms},
		{Name: "cdcl_conflict", Jobs: conf, Arms: cdclArms},
		{Name: "cube", Jobs: cubes, Arms: cubeArms},
		{Name: "fragment", Jobs: frags, Arms: fragmentArms},
		{Name: "parity", Jobs: parity, Arms: parityArms},
	}
}

// Measure times every job of every family under each of its arms and
// returns one record per cell, in table order: the medians of the
// rounds' ns/op, allocs/op and bytes/op. Every run's verdict is checked,
// and the first one that contradicts its job's stops the measurement with
// an error, so no timing of a wrong answer is published.
func Measure(fams []KernelFamily, rounds int, window time.Duration) ([]Measurement, error) {
	var out []Measurement
	for _, fam := range fams {
		for _, job := range fam.Jobs {
			in := job.Build()
			for _, arm := range fam.Arms {
				ns, allocs, bytes := make([]int64, rounds), make([]int64, rounds), make([]int64, rounds)
				for r := range ns {
					m, err := timeRound(fam.Name, job, arm, in, window)
					if err != nil {
						return nil, err
					}
					ns[r], allocs[r], bytes[r] = m.NsPerOp, m.AllocsPerOp, m.BytesPerOp
				}
				out = append(out, Measurement{
					Name:        fam.RecordName(job.Name, arm.Name),
					NsPerOp:     median(ns),
					AllocsPerOp: median(allocs),
					BytesPerOp:  median(bytes),
				})
			}
		}
	}
	return out, nil
}

// timeRound runs arm on in back to back until window has passed (at
// least once) and returns the per-run means.
func timeRound(family string, job KernelJob, arm KernelArm, in any, window time.Duration) (Measurement, error) {
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	start := time.Now()
	var n int64
	for n == 0 || time.Since(start) < window {
		if err := job.check(family, arm, arm.Run(in)); err != nil {
			return Measurement{}, err
		}
		n++
	}
	ns := time.Since(start).Nanoseconds()
	runtime.ReadMemStats(&after)
	return Measurement{
		NsPerOp:     ns / n,
		AllocsPerOp: int64(after.Mallocs-before.Mallocs) / n,
		BytesPerOp:  int64(after.TotalAlloc-before.TotalAlloc) / n,
	}, nil
}

func median(xs []int64) int64 {
	slices.Sort(xs)
	return xs[len(xs)/2]
}
