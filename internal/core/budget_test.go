package core

import (
	"bytes"
	"context"
	"math/rand"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/anf"
	"repro/internal/ciphers/simon"
)

// A near-zero time budget must stop the loop quickly with a Processed
// status rather than running to the fixed point.
func TestTimeBudgetExpiry(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	inst := simon.GenerateInstance(simon.Params{NPlaintexts: 8, Rounds: 8}, rng)
	cfg := DefaultConfig()
	cfg.TimeBudget = time.Millisecond
	cfg.StopOnSolution = true
	start := time.Now()
	res := Process(inst.Sys, cfg)
	if time.Since(start) > 30*time.Second {
		t.Fatal("time budget grossly overrun")
	}
	// With ~1ms the loop cannot finish its phases; whatever status comes
	// back, the result must be internally consistent.
	if res.Status == SolvedSAT && !VerifySolution(inst.Sys, res.Solution) {
		t.Fatal("invalid solution under time pressure")
	}
}

// The time budget is checked before each learner, not once per
// iteration: a learner queued behind one that outlasts the budget must
// never start, with learners run one after another (Workers 0 and 1).
func TestTimeBudgetCheckedPerLearner(t *testing.T) {
	for _, workers := range []int{0, 1} {
		var slow, late atomic.Bool
		cfg := DefaultConfig()
		cfg.DisableXL, cfg.DisableElimLin, cfg.DisableSAT = true, true, true
		cfg.TimeBudget = 100 * time.Millisecond
		cfg.Workers = workers
		cfg.ExtraTechniques = []Technique{
			TechniqueFunc{TechName: "slow", Fn: func(context.Context, *anf.System, *rand.Rand) []anf.Poly {
				slow.Store(true)
				time.Sleep(300 * time.Millisecond)
				return nil
			}},
			TechniqueFunc{TechName: "late", Fn: func(context.Context, *anf.System, *rand.Rand) []anf.Poly {
				late.Store(true)
				return nil
			}},
		}
		res := Process(sysFrom(t, paperExample), cfg)
		if late.Load() {
			t.Fatalf("Workers=%d: a learner started after the time budget expired", workers)
		}
		// Only the slow learner may have started; on a stalled host the
		// budget can run out before it does.
		want := 0
		if slow.Load() {
			want = 1
		}
		if res.Extra.Runs != want {
			t.Fatalf("Workers=%d: %d extra learners merged, want %d", workers, res.Extra.Runs, want)
		}
	}
}

func TestMaxIterationsCap(t *testing.T) {
	sys := sysFrom(t, "x0*x1 + x2\nx1*x2 + x0\n")
	cfg := DefaultConfig()
	cfg.MaxIterations = 2
	cfg.StopOnSolution = false
	cfg.DisableSAT = true // keep it from solving outright
	res := Process(sys, cfg)
	if res.Iterations > 2 {
		t.Fatalf("iterations = %d, cap was 2", res.Iterations)
	}
}

func TestConflictBudgetEscalation(t *testing.T) {
	// With StopOnSolution off and a tiny starting budget, the budget must
	// escalate (visible through the log).
	rng := rand.New(rand.NewSource(3))
	inst := simon.GenerateInstance(simon.Params{NPlaintexts: 2, Rounds: 5}, rng)
	var log bytes.Buffer
	cfg := DefaultConfig()
	cfg.StopOnSolution = false
	cfg.ConflictBudget = 1
	cfg.ConflictBudgetStep = 1
	cfg.ConflictBudgetMax = 3
	cfg.MaxIterations = 6
	cfg.Log = &log
	res := Process(inst.Sys, cfg)
	if res.SAT.Runs == 0 {
		t.Fatal("SAT step never ran")
	}
	if log.Len() == 0 {
		t.Fatal("no log output")
	}
}

func TestOutputANFCarriesEquivalences(t *testing.T) {
	sys := sysFrom(t, "x0 + x1\nx2 + 1\nx0*x3 + x3\n")
	cfg := DefaultConfig()
	cfg.StopOnSolution = false
	cfg.MaxIterations = 1
	res := Process(sys, cfg)
	out := res.OutputANF()
	// The output must contain the equivalence x0 ⊕ x1 and the unit x2 ⊕ 1
	// as fact polynomials.
	foundEq, foundUnit := false, false
	for _, p := range out.Polys() {
		switch p.String() {
		case "x0 + x1":
			foundEq = true
		case "x2 + 1":
			foundUnit = true
		}
	}
	if !foundEq || !foundUnit {
		t.Fatalf("output ANF missing facts: %v", out.Polys())
	}
}

func TestResultSummary(t *testing.T) {
	sys := sysFrom(t, paperExample)
	res := Process(sys, DefaultConfig())
	s := res.Summary()
	for _, want := range []string{"iteration", "xl=", "propagation="} {
		if !strings.Contains(s, want) {
			t.Fatalf("summary missing %q: %s", want, s)
		}
	}
}
