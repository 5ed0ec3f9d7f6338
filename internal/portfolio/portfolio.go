// Package portfolio runs several differently-configured CDCL solvers on
// the same formula concurrently and returns the first verdict — the
// standard parallel-portfolio construction (à la Plingeling, the parallel
// sibling of the paper's Lingeling column). Each worker gets its own
// solver instance (solvers are not goroutine-safe) with a distinct
// profile and seed; the winner's model is returned and the losers are
// stopped.
package portfolio

import (
	"context"
	"sync"
	"time"

	"repro/internal/cnf"
	"repro/internal/sat"
	"repro/internal/walksat"
)

// Worker describes one portfolio member.
type Worker struct {
	// Name identifies the worker in the result.
	Name string
	// Options configures its solver.
	Options sat.Options
	// ConflictBudget bounds this worker's search (0 = unlimited). A
	// budgeted worker that exhausts its conflicts reports Unknown; the
	// portfolio keeps waiting for the others.
	ConflictBudget int64
	// WalkSAT, when non-nil, makes this member a local-search worker
	// instead of a CDCL solver: it runs walksat.Solve with these options
	// and reports Sat (model verified against the formula) or Unknown.
	// Incomplete but safe — it can never report a wrong verdict, so the
	// portfolio simply keeps waiting for the CDCL members on UNSAT
	// instances.
	WalkSAT *walksat.Options
}

// DefaultWorkers returns the three paper profiles with distinct seeds,
// plus a randomized-decision MiniSat variant and a WalkSAT local-search
// member for diversification on satisfiable-heavy traffic.
func DefaultWorkers() []Worker {
	ms := sat.DefaultOptions(sat.ProfileMiniSat)
	lg := sat.DefaultOptions(sat.ProfileLingeling)
	cms := sat.DefaultOptions(sat.ProfileCMS)
	rnd := sat.DefaultOptions(sat.ProfileMiniSat)
	rnd.RandomFreq = 0.02
	rnd.RandomSeed = 0xC0FFEE
	lg.RandomSeed = 0xBEEF
	cms.RandomSeed = 0xCAFE
	return []Worker{
		{Name: "minisat", Options: ms},
		{Name: "lingeling", Options: lg},
		{Name: "cryptominisat", Options: cms},
		{Name: "minisat-rnd", Options: rnd},
		{Name: "walksat", WalkSAT: &walksat.Options{Seed: 0x5EED, MaxFlips: 2_000_000}},
	}
}

// Result of a portfolio run.
type Result struct {
	// Status is the first verdict (Unknown if every worker exhausted its
	// budget or the context was done first).
	Status sat.Status
	// Winner names the worker that produced the verdict.
	Winner string
	// Model is the satisfying assignment on Sat.
	Model []bool
	// Elapsed is the time to the first verdict — not the time for the
	// stopped losers to wind down. Without a verdict it is the full
	// wall-clock time of the run.
	Elapsed time.Duration
	// Stats are the winner's final solver counters (zero when the verdict
	// needed no search, e.g. a formula refuted at clause insertion, or
	// came from the WalkSAT member).
	Stats sat.Stats
}

// Solve runs the workers concurrently on (copies of) the formula until
// the first verdict; nil workers means DefaultWorkers. Every worker stops
// soon after ctx is done (cancelled, or past its deadline), and the call
// then returns Unknown. The first verdict stops the losers the same way,
// so a worker deep inside a large conflict budget does not keep its
// goroutine and memory alive after the race is decided.
func Solve(ctx context.Context, f *cnf.Formula, workers []Worker) *Result {
	if len(workers) == 0 {
		workers = DefaultWorkers()
	}
	start := time.Now()

	// raceCtx is done when a verdict lands or ctx is; it is every
	// worker's stop signal.
	raceCtx, stopAll := context.WithCancel(ctx)
	defer stopAll()

	type verdict struct {
		status sat.Status
		name   string
		model  []bool
		stats  sat.Stats
	}
	results := make(chan verdict, len(workers))
	var wg sync.WaitGroup
	for _, w := range workers {
		if w.WalkSAT != nil {
			wg.Add(1)
			go func(name string, o walksat.Options) {
				defer wg.Done()
				// Local search only reads the formula, so no clone is
				// needed; its model is verified inside walksat.Solve.
				r := walksat.Solve(raceCtx, f, o)
				results <- verdict{r.Status, name, r.Model, sat.Stats{}}
			}(w.Name, *w.WalkSAT)
			continue
		}
		s := sat.New(w.Options)
		ok := s.AddFormula(f.Clone())
		s.SetInterrupt(raceCtx)
		budget := w.ConflictBudget
		if budget <= 0 {
			budget = -1
		}
		wg.Add(1)
		go func(name string, s *sat.Solver, budget int64, trivialUnsat bool) {
			defer wg.Done()
			if trivialUnsat {
				results <- verdict{sat.Unsat, name, nil, sat.Stats{}}
				return
			}
			st := s.SolveLimited(budget)
			var m []bool
			if st == sat.Sat {
				m = s.Model()
			}
			// The stats are read here, on the worker goroutine after the
			// solve returns, so the winner's counters travel with its
			// verdict instead of racing the losers' wind-down.
			results <- verdict{st, name, m, s.Snapshot()}
		}(w.Name, s, budget, !ok)
	}

	res := &Result{Status: sat.Unknown}
	for range workers {
		v := <-results
		if v.status != sat.Unknown && res.Status == sat.Unknown {
			res.Status = v.status
			res.Winner = v.name
			res.Model = v.model
			res.Stats = v.stats
			// Elapsed is the time to the verdict; the loser wind-down
			// below is bookkeeping, not solving.
			res.Elapsed = time.Since(start)
			stopAll()
		}
	}
	wg.Wait()
	if res.Status == sat.Unknown {
		res.Elapsed = time.Since(start)
	}
	return res
}
