package proof

import (
	"context"
	"testing"

	"repro/internal/anf"
)

// pollCtx is a context whose Err turns non-nil from the trigger-th call
// on, so cancellation lands at a chosen poll without timers.
type pollCtx struct {
	context.Context
	polls, trigger int
}

func (c *pollCtx) Err() error {
	if c.polls++; c.polls >= c.trigger {
		return context.Canceled
	}
	return nil
}

// TestVerifyFactsStopsWhenCanceled checks that VerifyFacts polls its
// context before each learnt record and, once the context is done, marks
// every remaining record UNVERIFIED without replaying it.
func TestVerifyFactsStopsWhenCanceled(t *testing.T) {
	sys := anf.NewSystem()
	for _, s := range []string{"x0 + x1", "x1 + x2", "x2 + x3", "x3 + x4", "x4 + x5"} {
		sys.Add(anf.MustParsePoly(s))
	}
	// Fact k is x0 + x(k+2): the previous fact (or input 0) plus input
	// k+1, so each replays exactly and no refutation polls the context.
	lg := NewLedger(sys)
	prev := 0
	for k := 1; k < sys.Len(); k++ {
		p := lg.At(prev).Poly.Add(lg.At(k).Poly)
		prev = lg.Append(Record{Technique: TechElimLin, Poly: p, Witness: []Term{
			{Mult: anf.OnePoly(), Src: prev}, {Mult: anf.OnePoly(), Src: k},
		}})
	}
	facts := len(lg.Facts())
	full := VerifyFacts(sys, lg, VerifyOptions{Seed: 1})
	if full.Verified != facts {
		t.Fatalf("uncanceled: %s", full.Summary())
	}
	for trigger := 1; trigger <= facts+1; trigger++ {
		ctx := &pollCtx{Context: context.Background(), trigger: trigger}
		report := VerifyFacts(sys, lg, VerifyOptions{Seed: 1, Context: ctx})
		if ctx.polls != facts {
			t.Errorf("trigger %d: %d polls, want one per fact (%d)", trigger, ctx.polls, facts)
		}
		for i, v := range report.Verdicts {
			if i < trigger-1 {
				if v != full.Verdicts[i] {
					t.Errorf("trigger %d: record %d = %+v before cancellation, uncanceled %+v", trigger, v.ID, v, full.Verdicts[i])
				}
			} else if v.Verdict != VerdictUnverified || v.Detail != "canceled" {
				t.Errorf("trigger %d: record %d = %v (%s) after cancellation, want UNVERIFIED (canceled)", trigger, v.ID, v.Verdict, v.Detail)
			}
		}
	}
}
