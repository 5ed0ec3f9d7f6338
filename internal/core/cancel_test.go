package core

import (
	"context"
	"math/rand"
	"slices"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/anf"
	"repro/internal/ciphers/simon"
)

// pollCtx is a context.Context whose Err flips to Canceled after the Nth
// poll — deterministic mid-run cancellation without timers. Goroutine-safe
// (with Workers > 1 the learners poll from several goroutines).
type pollCtx struct {
	context.Context
	polls   atomic.Int64
	trigger int64
	done    chan struct{}
}

func newPollCtx(trigger int64) *pollCtx {
	return &pollCtx{Context: context.Background(), trigger: trigger, done: make(chan struct{})}
}

func (c *pollCtx) Done() <-chan struct{} { return c.done }

func (c *pollCtx) Err() error {
	if c.polls.Add(1) >= c.trigger {
		return context.Canceled
	}
	return nil
}

// hardSystem returns a Simon instance big enough that the loop does real
// work in every technique (it is not solved by initial propagation).
func hardSystem(t *testing.T) *anf.System {
	t.Helper()
	rng := rand.New(rand.NewSource(7))
	return simon.GenerateInstance(simon.Params{NPlaintexts: 4, Rounds: 8}, rng).Sys
}

// TestProcessCancellation is the table-driven proof that core.Process
// honours Config.Context across every loop configuration: a run whose
// context is cancelled — before the start or after a bounded number of
// interrupt polls — must return within a small wall-clock bound, report
// Interrupted, and still hand back a usable (partial) Result.
func TestProcessCancellation(t *testing.T) {
	cases := []struct {
		name    string
		mutate  func(cfg *Config)
		trigger int64 // Err() polls before cancellation fires; 0 = pre-cancelled
	}{
		{"pre-cancelled-sequential", func(cfg *Config) {}, 0},
		{"pre-cancelled-pipeline", func(cfg *Config) { cfg.Workers = 2 }, 0},
		{"mid-run-sequential", func(cfg *Config) {}, 8},
		{"mid-run-pipeline", func(cfg *Config) { cfg.Workers = 2 }, 8},
		{"mid-run-sat-only", func(cfg *Config) {
			cfg.DisableXL = true
			cfg.DisableElimLin = true
		}, 8},
		{"mid-run-probing", func(cfg *Config) { cfg.EnableProbing = true }, 8},
		{"mid-run-groebner", func(cfg *Config) { cfg.EnableGroebner = true }, 16},
	}
	for _, tc := range cases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			t.Parallel()
			sys := hardSystem(t)
			cfg := DefaultConfig()
			cfg.MaxIterations = 64
			cfg.ConflictBudgetMax = 1 << 30
			cfg.ConflictBudget = 1 << 30 // make an uncancelled SAT step very long
			tc.mutate(&cfg)
			var ctx context.Context
			if tc.trigger == 0 {
				c, cancel := context.WithCancel(context.Background())
				cancel()
				ctx = c
			} else {
				ctx = newPollCtx(tc.trigger)
			}
			cfg.Context = ctx
			start := time.Now()
			res := Process(sys, cfg)
			elapsed := time.Since(start)
			if !res.Interrupted {
				t.Fatalf("Interrupted = false after cancellation (status %v)", res.Status)
			}
			if res.System == nil || res.State == nil {
				t.Fatal("cancelled run returned no partial result")
			}
			// The bound: a cancelled run may finish at most the technique
			// step it was inside plus the final propagation. On this
			// instance size that is well under 2 s even under -race.
			if elapsed > 10*time.Second {
				t.Fatalf("cancelled run took %v", elapsed)
			}
			if pc, ok := ctx.(*pollCtx); ok {
				// Cancellation must be observed within a bounded number of
				// polls after the trigger: each boundary checks once, and
				// no phase runs more than a handful of boundaries past a
				// positive poll.
				if extra := pc.polls.Load() - pc.trigger; extra > 256 {
					t.Fatalf("loop kept polling %d times after cancellation", extra)
				}
			}
		})
	}
}

// TestRunElimLinMidRoundCancellation cancels inside the first
// GJE–substitute round: the run must stop before the next round and
// return the facts learnt so far (sound partial output).
func TestRunElimLinMidRoundCancellation(t *testing.T) {
	sys := hardSystem(t)
	rng := rand.New(rand.NewSource(3))
	full := RunElimLin(sys, ElimLinConfig{M: 20, Rand: rand.New(rand.NewSource(3))})
	ctx := newPollCtx(2) // first poll passes (round 0's GJE runs), second cancels its substitutions
	partial := RunElimLin(sys, ElimLinConfig{M: 20, Context: ctx, Rand: rng})
	if len(partial) > len(full) {
		t.Fatalf("partial run learnt %d facts, full run %d", len(partial), len(full))
	}
	// The cancelled run stopped polling right away: one extra poll at most.
	if extra := ctx.polls.Load() - ctx.trigger; extra > 1 {
		t.Fatalf("ElimLin polled %d times after cancellation", extra)
	}
	// Every partial fact must also be a fact the full run derives from the
	// same seed (prefix property of round-ordered learning).
	for i, p := range partial {
		if i >= len(full) || !p.Equal(full[i]) {
			t.Fatalf("partial fact %d is not a prefix of the full run", i)
		}
	}
}

// TestElimLinPollsBeforeEachSubstitution checks that step (3) of a round
// polls the context before each linear equation and, once it is done,
// substitutes no further equation: a witness-tracked substitution can
// take long enough to overrun a job's deadline.
func TestElimLinPollsBeforeEachSubstitution(t *testing.T) {
	linear := []anf.Poly{
		anf.MustParsePoly("x1 + x2"),
		anf.MustParsePoly("x3 + x4"),
		anf.MustParsePoly("x5 + x6"),
	}
	rest := func() []anf.Poly {
		return []anf.Poly{
			anf.MustParsePoly("x1*x3 + x2*x5 + x4*x6"),
			anf.MustParsePoly("x1*x4 + x2*x6 + x3*x5 + x7"),
			anf.MustParsePoly("x1*x5 + x2*x3*x6 + x4 + x8"),
		}
	}
	run := func(ctx context.Context) []int {
		var x occIndex
		var seen []int
		x.eliminate(ctx, linear, rest(), func(li, i int, v anf.Var) {
			if len(seen) == 0 || seen[len(seen)-1] != li {
				seen = append(seen, li)
			}
		})
		return seen
	}
	if got := run(nil); !slices.Equal(got, []int{0, 1, 2}) {
		t.Fatalf("uncanceled: linear equations %v substituted, want [0 1 2]", got)
	}
	for trigger := int64(1); trigger <= 4; trigger++ {
		ctx := newPollCtx(trigger)
		got := run(ctx)
		want := []int{0, 1, 2}[:min(trigger-1, 3)]
		if !slices.Equal(got, want) {
			t.Errorf("canceled at poll %d: linear equations %v substituted, want %v", trigger, got, want)
		}
		if polls := ctx.polls.Load(); polls != min(trigger, 3) {
			t.Errorf("canceled at poll %d: %d polls, want %d", trigger, polls, min(trigger, 3))
		}
	}
}

// TestRunXLCancelledReturnsNil: XL has no sound partial output (facts come
// from the final elimination), so a cancelled pass returns nothing.
func TestRunXLCancelledReturnsNil(t *testing.T) {
	sys := hardSystem(t)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if facts := RunXL(sys, XLConfig{M: 20, DeltaM: 4, Deg: 1, Context: ctx, Rand: rand.New(rand.NewSource(1))}); facts != nil {
		t.Fatalf("cancelled XL returned %d facts", len(facts))
	}
}

// TestRunSATStepCancellation: a SAT step with an enormous conflict budget
// must return promptly once its context is cancelled mid-search.
func TestRunSATStepCancellation(t *testing.T) {
	sys := hardSystem(t)
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan *SATStepResult, 1)
	go func() {
		done <- RunSATStep(sys, SATStepConfig{
			ConflictBudget: 1 << 40,
			Conv:           DefaultConfig().Conv,
			Context:        ctx,
		})
	}()
	time.Sleep(100 * time.Millisecond)
	cancel()
	select {
	case res := <-done:
		if res == nil {
			t.Fatal("nil result")
		}
	case <-time.After(5 * time.Second):
		t.Fatal("SAT step did not stop within 5s of cancellation")
	}
}

// A nil Context must behave exactly like no cancellation: same Result as
// an explicit background context (determinism check).
func TestProcessNilContextEquivalence(t *testing.T) {
	sysA := sysFrom(t, paperExample)
	sysB := sysFrom(t, paperExample)
	cfgA := DefaultConfig()
	cfgB := DefaultConfig()
	cfgB.Context = context.Background()
	resA := Process(sysA, cfgA)
	resB := Process(sysB, cfgB)
	if resA.Status != resB.Status || resA.Iterations != resB.Iterations ||
		resA.XL.NewFacts != resB.XL.NewFacts || resA.SAT.NewFacts != resB.SAT.NewFacts {
		t.Fatalf("nil-context run diverged: %+v vs %+v", resA, resB)
	}
	if resA.Interrupted || resB.Interrupted {
		t.Fatal("uncancelled run reported Interrupted")
	}
}
