package sat

import (
	"context"
	"math/rand"
	"testing"
	"time"

	"repro/internal/satgen"
)

// countingCtx is a context.Context whose Err flips to Canceled after the
// Nth poll — a deterministic way to cancel "mid-solve" without timers.
type countingCtx struct {
	context.Context
	polls   int
	trigger int
	done    chan struct{}
}

func newCountingCtx(trigger int) *countingCtx {
	return &countingCtx{
		Context: context.Background(),
		trigger: trigger,
		done:    make(chan struct{}),
	}
}

func (c *countingCtx) Done() <-chan struct{} { return c.done }

func (c *countingCtx) Err() error {
	c.polls++
	if c.polls >= c.trigger {
		return context.Canceled
	}
	return nil
}

func TestSolveCtxCancelledBeforeStart(t *testing.T) {
	inst := satgen.Pigeonhole(12, 11) // far too hard to finish
	s := New(DefaultOptions(ProfileMiniSat))
	s.AddFormula(inst.Formula)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	s.SetInterrupt(ctx)
	start := time.Now()
	if st := s.Solve(); st != Unknown {
		t.Fatalf("cancelled solve returned %v", st)
	}
	if d := time.Since(start); d > 2*time.Second {
		t.Fatalf("cancelled solve took %v", d)
	}
}

// TestSolveCtxMidRestart cancels after a fixed number of context polls,
// which land every 256 conflicts and at restart boundaries — i.e. the
// cancellation arrives mid-search, across restarts.
func TestSolveCtxMidRestart(t *testing.T) {
	for _, trigger := range []int{1, 2, 5, 20} {
		inst := satgen.Pigeonhole(12, 11)
		s := New(DefaultOptions(ProfileMiniSat))
		s.AddFormula(inst.Formula)
		ctx := newCountingCtx(trigger)
		s.SetInterrupt(ctx)
		if st := s.Solve(); st != Unknown {
			t.Fatalf("trigger %d: cancelled solve returned %v", trigger, st)
		}
		// After the trigger fired, the solver may poll only a bounded number
		// of further times before giving up: once per 256 conflicts plus
		// once per restart boundary, and it must stop at the first positive
		// poll. Allow a small slack for the restart-boundary double checks.
		if extra := ctx.polls - trigger; extra > 4 {
			t.Fatalf("trigger %d: solver kept polling %d times after cancellation", trigger, extra)
		}
	}
}

func TestSolveCtxWallClockBound(t *testing.T) {
	inst := satgen.Pigeonhole(12, 11)
	s := New(DefaultOptions(ProfileMiniSat))
	s.AddFormula(inst.Formula)
	ctx, cancel := context.WithCancel(context.Background())
	s.SetInterrupt(ctx)
	done := make(chan Status, 1)
	go func() { done <- s.Solve() }()
	time.Sleep(50 * time.Millisecond)
	cancel()
	select {
	case st := <-done:
		if st != Unknown {
			t.Fatalf("cancelled solve returned %v", st)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("solver did not stop within 2s of cancellation")
	}
}

// A context deadline, with nobody calling cancel, stops a budgetless
// SolveLimited: the worker node and the Table II runner bound their
// solves this way.
func TestSolveLimitedStopsAtDeadline(t *testing.T) {
	inst := satgen.Pigeonhole(12, 11)
	s := New(DefaultOptions(ProfileMiniSat))
	s.AddFormula(inst.Formula)
	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	s.SetInterrupt(ctx)
	done := make(chan Status, 1)
	go func() { done <- s.SolveLimited(-1) }()
	select {
	case st := <-done:
		if st != Unknown {
			t.Fatalf("solve past its deadline returned %v", st)
		}
		if ctx.Err() != context.DeadlineExceeded {
			t.Fatalf("solve returned before the deadline: ctx.Err() = %v", ctx.Err())
		}
	case <-time.After(2 * time.Second):
		t.Fatal("solver did not stop within 2s of its deadline")
	}
}

// The installed context must survive across solve calls and must not
// poison a solver once it is removed or while it is still live.
func TestSetInterruptPersistsAcrossSolves(t *testing.T) {
	inst := satgen.Pigeonhole(12, 11)
	s := New(DefaultOptions(ProfileMiniSat))
	s.AddFormula(inst.Formula)
	ctx, cancel := context.WithCancel(context.Background())
	s.SetInterrupt(ctx)
	cancel()
	for i := 0; i < 2; i++ {
		if st := s.SolveLimited(-1); st != Unknown {
			t.Fatalf("solve %d with a cancelled context returned %v", i, st)
		}
	}
	live, stop := context.WithCancel(context.Background())
	defer stop()
	for _, c := range []context.Context{nil, live} {
		s.SetInterrupt(c)
		before := s.Conflicts
		// Budget-bounded solve on a hard instance: Unknown is the expected
		// verdict; the point is that it ran its whole budget.
		if st := s.SolveLimited(100); st != Unknown {
			t.Fatalf("budgeted solve returned %v", st)
		}
		if ran := s.Conflicts - before; ran < 100 {
			t.Fatalf("solve stopped after %d of 100 conflicts with no cancellation", ran)
		}
	}
}

// A context that can never be cancelled must leave the search exactly as
// it is without one.
func TestSolveCtxBackgroundEquivalence(t *testing.T) {
	inst := satgen.ParityChain(16, 18, 3, true, rand.New(rand.NewSource(9)))
	a := New(DefaultOptions(ProfileMiniSat))
	a.AddFormula(inst.Formula.Clone())
	b := New(DefaultOptions(ProfileMiniSat))
	b.AddFormula(inst.Formula.Clone())
	b.SetInterrupt(context.Background())
	stA := a.Solve()
	stB := b.Solve()
	if stA != stB {
		t.Fatalf("Solve=%v Solve with background context=%v", stA, stB)
	}
	if sa, sb := a.Snapshot(), b.Snapshot(); sa != sb {
		t.Fatalf("counters differ:\n%v\n%v", sa, sb)
	}
}

func TestProbeLiteralsInterrupt(t *testing.T) {
	inst := satgen.Pigeonhole(8, 7)
	s := New(DefaultOptions(ProfileMiniSat))
	s.AddFormula(inst.Formula)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	s.SetInterrupt(ctx)
	start := time.Now()
	res := s.ProbeLiterals(0)
	if res.Unsat {
		t.Fatal("interrupted probe reported UNSAT")
	}
	if res.Probed != 0 {
		t.Fatalf("interrupted probe examined %d variables", res.Probed)
	}
	if d := time.Since(start); d > time.Second {
		t.Fatalf("interrupted probe took %v", d)
	}
}

// A passed context deadline stops probing at its first poll, while the
// same probe without it examines every variable.
func TestProbeLiteralsStopsAtDeadline(t *testing.T) {
	inst := satgen.Pigeonhole(8, 7)
	full := New(DefaultOptions(ProfileMiniSat))
	full.AddFormula(inst.Formula.Clone())
	want := full.ProbeLiterals(0).Probed

	s := New(DefaultOptions(ProfileMiniSat))
	s.AddFormula(inst.Formula.Clone())
	ctx, cancel := context.WithDeadline(context.Background(), time.Now().Add(-time.Second))
	defer cancel()
	s.SetInterrupt(ctx)
	res := s.ProbeLiterals(0)
	if res.Unsat {
		t.Fatal("probe past its deadline reported UNSAT")
	}
	if res.Probed != 0 || want == 0 {
		t.Fatalf("probe past its deadline examined %d variables (%d without one)", res.Probed, want)
	}
}
