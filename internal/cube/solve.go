package cube

import (
	"bytes"
	"context"
	"sync"
	"time"

	"repro/internal/cnf"
	"repro/internal/proof"
	"repro/internal/sat"
	"repro/internal/share"
)

// Solve runs cube-and-conquer on f. With Workers ≤ 1 and ForceSplit off
// it degenerates to a plain solve on one solver built from SolverOptions —
// that path is bit-identical to using the solver directly, which is the
// single-worker determinism contract.
func Solve(ctx context.Context, f *cnf.Formula, opts Options) *Result {
	//lint:ignore determinism timing only: feeds Result.Elapsed, never ordering
	start := time.Now()
	var res *Result
	if opts.Workers <= 1 && !opts.ForceSplit {
		res = solveDirect(ctx, f, opts)
	} else {
		res = solveCubes(ctx, f, opts)
	}
	res.Elapsed = time.Since(start)
	return res
}

// solveDirect is the splitless path: one solver, one solve call.
func solveDirect(ctx context.Context, f *cnf.Formula, opts Options) *Result {
	res := &Result{Status: sat.Unknown, SatCube: -1}
	s := sat.New(opts.SolverOptions)
	var buf bytes.Buffer
	var pw *proof.TextWriter
	if opts.WithProof {
		pw = proof.NewTextWriter(&buf)
		s.SetProof(pw)
	}
	st := sat.Unsat
	if s.AddFormula(f.Clone()) {
		s.SetInterrupt(ctx)
		st = s.Solve()
	}
	res.Status = st
	if st == sat.Sat {
		res.Model = s.Model()
	}
	res.Units = s.LearntUnits()
	res.Binaries = s.LearntBinaries()
	snap := s.Snapshot()
	res.WorkerStats = []sat.Stats{snap}
	res.Conflicts, res.Decisions, res.Propagations = snap.Conflicts, snap.Decisions, snap.Propagations
	if st == sat.Unsat && pw != nil {
		pw.Flush()
		res.Proof = append([]byte(nil), buf.Bytes()...)
	}
	return res
}

// cubeOutcome is one cube's terminal state.
type cubeOutcome struct {
	status   sat.Status
	failed   []cnf.Lit // failed assumptions on Unsat
	model    []bool
	outright bool // the worker refuted the formula independent of the cube
}

// workerState is one conquer worker's end-of-run summary.
type workerState struct {
	stats    sat.Stats
	units    []cnf.Lit
	binaries []cnf.Clause
	segment  []byte
}

// solveCubes is the split path: build the tree, fan the open cubes over
// the worker pool, merge.
func solveCubes(ctx context.Context, f *cnf.Formula, opts Options) *Result {
	res := &Result{Status: sat.Unknown, SatCube: -1}
	tree := Split(f, opts)
	res.Cubes = len(tree.Open)
	res.RefutedAtSplit = tree.RefutedAtSplit
	if tree.Status == sat.Unsat {
		// Every leaf refuted by propagation alone: the tree merge is the
		// whole proof.
		res.Status = sat.Unsat
		if opts.WithProof {
			res.Proof = stitch(tree, nil, nil)
		}
		return res
	}

	nWorkers := opts.Workers
	if nWorkers < 1 {
		nWorkers = 1
	}
	if nWorkers > len(tree.Open) {
		nWorkers = len(tree.Open)
	}
	var ring *share.Ring
	if opts.ShareSlots > 0 && opts.ShareMaxLBD > 0 && nWorkers > 1 {
		ring = share.NewRing(opts.ShareSlots, opts.ShareMaxLBD)
	}

	runCtx, cancel := context.WithCancel(ctx)
	defer cancel()

	outcomes := make([]cubeOutcome, len(tree.Open))
	workers := make([]workerState, nWorkers)
	jobs := make(chan int)
	go func() {
		defer close(jobs)
		for i := range tree.Open {
			select {
			case jobs <- i:
			case <-runCtx.Done():
				return
			}
		}
	}()

	var wg sync.WaitGroup
	for w := 0; w < nWorkers; w++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			wopts := opts.SolverOptions
			// Worker 0 keeps the configured seed so the one-worker
			// ForceSplit run stays bit-reproducible.
			wopts.RandomSeed += int64(id)
			s := sat.New(wopts)
			var seg bytes.Buffer
			var sw SegmentWriter
			if opts.WithProof {
				// Installed before AddFormula so a contradiction found at
				// clause insertion logs its empty clause into the segment.
				sw = NewSegmentWriter(&seg)
				s.SetProof(sw)
			}
			ok := s.AddFormula(f.Clone())
			if ring != nil {
				s.SetExchange(ring.Endpoint())
			}
			s.SetInterrupt(runCtx)
			for idx := range jobs {
				if runCtx.Err() != nil {
					break
				}
				var st sat.Status
				if ok {
					st = s.SolveAssuming(tree.Open[idx], -1)
				} else {
					st = sat.Unsat
				}
				switch st {
				case sat.Sat:
					outcomes[idx] = cubeOutcome{status: st, model: s.Model()}
					cancel()
				case sat.Unsat:
					o := cubeOutcome{status: st, failed: s.FailedAssumptions()}
					o.outright = !s.Okay()
					outcomes[idx] = o
					if o.outright {
						// The empty clause is in this worker's segment:
						// the formula is refuted no matter the cube.
						cancel()
					}
				default:
					outcomes[idx] = cubeOutcome{status: st}
				}
				if !s.Okay() {
					break
				}
			}
			ws := workerState{
				stats:    s.Snapshot(),
				units:    s.LearntUnits(),
				binaries: s.LearntBinaries(),
			}
			if opts.WithProof {
				sw.Flush()
				ws.segment = append([]byte(nil), seg.Bytes()...)
			}
			workers[id] = ws
		}(w)
	}
	wg.Wait()

	mergeWorkers(res, workers)
	var segments [][]byte
	if opts.WithProof {
		for i := range workers {
			segments = append(segments, workers[i].segment)
		}
	}
	mergeOutcomes(res, tree, outcomes, segments, opts.WithProof)
	return res
}

// mergeWorkers folds the per-worker summaries into the result: counter
// totals, per-worker stats, and a first-seen-ordered union of the fact
// harvest. Deterministic for one worker; worker-timing-dependent (but
// input-sound) otherwise.
func mergeWorkers(res *Result, workers []workerState) {
	seenUnit := make(map[cnf.Lit]bool)
	seenBin := make(map[[2]cnf.Lit]bool)
	for _, ws := range workers {
		res.WorkerStats = append(res.WorkerStats, ws.stats)
		res.Conflicts += ws.stats.Conflicts
		res.Decisions += ws.stats.Decisions
		res.Propagations += ws.stats.Propagations
		res.SharedExported += ws.stats.SharedExported
		res.SharedImported += ws.stats.SharedImported
		for _, u := range ws.units {
			if !seenUnit[u] {
				seenUnit[u] = true
				res.Units = append(res.Units, u)
			}
		}
		for _, b := range ws.binaries {
			if len(b) != 2 {
				continue
			}
			k := [2]cnf.Lit{b[0], b[1]}
			if !seenBin[k] {
				seenBin[k] = true
				res.Binaries = append(res.Binaries, b)
			}
		}
	}
}

// mergeOutcomes derives the verdict: the lowest-index satisfiable cube
// wins with its model; otherwise UNSAT needs every open cube refuted (or
// one outright refutation), and the proof is stitched; anything else is
// Unknown.
func mergeOutcomes(res *Result, tree *Tree, outcomes []cubeOutcome, segments [][]byte, withProof bool) {
	outright := false
	allRefuted := true
	for i := range outcomes {
		switch outcomes[i].status {
		case sat.Sat:
			if res.Status != sat.Sat {
				res.Status = sat.Sat
				res.Model = outcomes[i].model
				res.SatCube = i
			}
		case sat.Unsat:
			res.Refuted++
			if outcomes[i].outright {
				outright = true
			}
		default:
			allRefuted = false
		}
	}
	if res.Status == sat.Sat {
		return
	}
	if outright || allRefuted {
		res.Status = sat.Unsat
		if withProof {
			failed := make([][]cnf.Lit, len(outcomes))
			for i := range outcomes {
				failed[i] = outcomes[i].failed
			}
			res.Proof = stitch(tree, segments, failed)
		}
	}
}
