package portfolio

import (
	"context"
	"math/rand"
	"testing"
	"time"

	"repro/internal/cnf"
	"repro/internal/sat"
	"repro/internal/satgen"
	"repro/internal/walksat"
)

// solveWithin runs the portfolio under a deadline d from now.
func solveWithin(f *cnf.Formula, workers []Worker, d time.Duration) *Result {
	ctx, cancel := context.WithTimeout(context.Background(), d)
	defer cancel()
	return Solve(ctx, f, workers)
}

func TestPortfolioSat(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	inst := satgen.ParityChain(24, 26, 3, true, rng)
	res := solveWithin(inst.Formula, nil, 10*time.Second)
	if res.Status != sat.Sat {
		t.Fatalf("status %v (winner %s)", res.Status, res.Winner)
	}
	if res.Winner == "" {
		t.Fatal("no winner recorded")
	}
	if !inst.Formula.Eval(func(v cnf.Var) bool { return res.Model[v] }) {
		t.Fatal("winning model does not satisfy the formula")
	}
}

func TestPortfolioUnsat(t *testing.T) {
	inst := satgen.Pigeonhole(7, 6)
	res := solveWithin(inst.Formula, nil, 10*time.Second)
	if res.Status != sat.Unsat {
		t.Fatalf("status %v", res.Status)
	}
}

func TestPortfolioTrivialUnsat(t *testing.T) {
	f := cnf.NewFormula(1)
	f.AddClause(cnf.MkLit(0, false))
	f.AddClause(cnf.MkLit(0, true))
	res := solveWithin(f, nil, time.Second)
	if res.Status != sat.Unsat {
		t.Fatalf("status %v", res.Status)
	}
}

func TestPortfolioTimeout(t *testing.T) {
	inst := satgen.Pigeonhole(12, 11) // too hard for 150 ms
	start := time.Now()
	res := solveWithin(inst.Formula, nil, 150*time.Millisecond)
	if res.Status != sat.Unknown {
		t.Fatalf("status %v", res.Status)
	}
	if time.Since(start) > 5*time.Second {
		t.Fatal("timeout not honoured")
	}
}

func TestPortfolioCustomWorkers(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	inst := satgen.RandomKSAT(30, 3, 4.0, rng)
	workers := []Worker{
		{Name: "a", Options: sat.DefaultOptions(sat.ProfileMiniSat)},
		{Name: "b", Options: sat.DefaultOptions(sat.ProfileCMS)},
	}
	res := solveWithin(inst.Formula, workers, 10*time.Second)
	if res.Status == sat.Unknown {
		t.Fatal("small instance unsolved")
	}
	if res.Winner != "a" && res.Winner != "b" {
		t.Fatalf("winner %q not a configured worker", res.Winner)
	}
}

// All workers must agree; run several instances and cross-check against a
// single reference solver.
func TestPortfolioAgreesWithReference(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 10; trial++ {
		inst := satgen.RandomKSAT(24, 3, 4.26, rng)
		ref := sat.New(sat.DefaultOptions(sat.ProfileMiniSat))
		ref.AddFormula(inst.Formula)
		want := ref.Solve()
		res := solveWithin(inst.Formula, nil, 30*time.Second)
		if res.Status != want {
			t.Fatalf("trial %d: portfolio %v, reference %v", trial, res.Status, want)
		}
	}
}

// Regression for the loser-shutdown fix: once the first verdict lands,
// the remaining workers must stop promptly (through the race context
// each solver polls) instead of running out their conflict budgets, and
// Result.Elapsed must reflect the first-verdict time, not the wind-down.
func TestLoserShutdownPromptAndElapsed(t *testing.T) {
	inst := satgen.Pigeonhole(8, 7) // hard enough that every worker is mid-search
	workers := []Worker{
		{Name: "a", Options: sat.DefaultOptions(sat.ProfileMiniSat)},
		{Name: "b", Options: sat.DefaultOptions(sat.ProfileLingeling), ConflictBudget: 1 << 40},
		{Name: "c", Options: sat.DefaultOptions(sat.ProfileMiniSat), ConflictBudget: 1 << 40},
	}
	start := time.Now()
	res := solveWithin(inst.Formula, workers, 30*time.Second)
	wall := time.Since(start)
	if res.Status != sat.Unsat {
		t.Fatalf("status %v", res.Status)
	}
	if res.Elapsed <= 0 || res.Elapsed > wall+time.Millisecond {
		t.Fatalf("Elapsed %v outside (0, wall=%v]", res.Elapsed, wall)
	}
	// The budgeted losers must not run out their 2^40 conflicts: the whole
	// call returns within a small interrupt-poll latency of the verdict.
	if wall-res.Elapsed > 2*time.Second {
		t.Fatalf("losers took %v to stop after the verdict", wall-res.Elapsed)
	}
}

func TestSolveContextCancelPrompt(t *testing.T) {
	inst := satgen.Pigeonhole(12, 11) // effectively unsolvable here
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan *Result, 1)
	go func() { done <- Solve(ctx, inst.Formula, nil) }()
	time.Sleep(100 * time.Millisecond)
	cancel()
	select {
	case res := <-done:
		if res.Status != sat.Unknown {
			t.Fatalf("cancelled portfolio returned %v", res.Status)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("portfolio did not stop within 2s of cancellation")
	}
}

func TestWorkerConflictBudget(t *testing.T) {
	inst := satgen.Pigeonhole(10, 9) // needs far more than 50 conflicts
	workers := []Worker{
		{Name: "tiny-a", Options: sat.DefaultOptions(sat.ProfileMiniSat), ConflictBudget: 50},
		{Name: "tiny-b", Options: sat.DefaultOptions(sat.ProfileLingeling), ConflictBudget: 50},
	}
	res := Solve(context.Background(), inst.Formula, workers)
	if res.Status != sat.Unknown {
		t.Fatalf("budget-bounded portfolio returned %v (winner %s)", res.Status, res.Winner)
	}
	if res.Elapsed <= 0 {
		t.Fatal("Elapsed not recorded on budget exhaustion")
	}
}

// The winner's final search counters must travel into the Result: a
// pigeonhole refutation needs real search, so the winning solver's
// conflict/decision/propagation counts are all nonzero.
func TestWinnerStatsPropagated(t *testing.T) {
	inst := satgen.Pigeonhole(7, 6)
	res := solveWithin(inst.Formula, nil, 10*time.Second)
	if res.Status != sat.Unsat {
		t.Fatalf("status %v", res.Status)
	}
	if res.Stats.Conflicts == 0 || res.Stats.Decisions == 0 || res.Stats.Propagations == 0 {
		t.Fatalf("winner stats not propagated: %+v", res.Stats)
	}
}

// A formula refuted at clause insertion produces a verdict with zero
// stats — no search happened, and the counters must say so.
func TestTrivialUnsatZeroStats(t *testing.T) {
	f := cnf.NewFormula(1)
	f.AddClause(cnf.MkLit(0, false))
	f.AddClause(cnf.MkLit(0, true))
	res := solveWithin(f, nil, time.Second)
	if res.Status != sat.Unsat {
		t.Fatalf("status %v", res.Status)
	}
	if res.Stats != (sat.Stats{}) {
		t.Fatalf("trivial refutation carries stats: %+v", res.Stats)
	}
}

// A portfolio consisting only of a WalkSAT member must still find
// models on satisfiable instances, and its verdict's model must verify.
func TestPortfolioWalkSATMember(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	inst := satgen.RandomKSAT(40, 3, 3.0, rng)
	workers := []Worker{{Name: "walksat", WalkSAT: &walksat.Options{Seed: 7, MaxFlips: 5_000_000}}}
	res := solveWithin(inst.Formula, workers, 30*time.Second)
	if res.Status == sat.Sat {
		if res.Winner != "walksat" {
			t.Fatalf("winner %q", res.Winner)
		}
		if !inst.Formula.Eval(func(v cnf.Var) bool { return res.Model[v] }) {
			t.Fatal("walksat model does not satisfy the formula")
		}
	} else if res.Status == sat.Unsat {
		t.Fatal("walksat member can never report Unsat")
	}
}

// With a WalkSAT member in the default pool, UNSAT instances must still
// be refuted by the CDCL members — the incomplete member just stays
// silent.
func TestPortfolioUnsatWithWalkSAT(t *testing.T) {
	inst := satgen.Pigeonhole(6, 5)
	res := solveWithin(inst.Formula, DefaultWorkers(), 30*time.Second)
	if res.Status != sat.Unsat {
		t.Fatalf("status %v (winner %s)", res.Status, res.Winner)
	}
}
