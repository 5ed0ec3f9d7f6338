package core

import "context"

// Config mirrors the repo's Config-struct way of threading cancellation.
type Config struct {
	Context context.Context
	N       int
}

func work(i int) {}

// ScanAll sees a Context but never polls it in any loop.
func ScanAll(ctx context.Context, eqs []int) {
	for range eqs { // want ctxpoll "none of its loops polls"
		work(0)
	}
}

// ScanPolled polls ctx.Err() on every iteration: clean.
func ScanPolled(ctx context.Context, eqs []int) {
	for i := range eqs {
		if ctx.Err() != nil {
			return
		}
		work(i)
	}
}

// ScanConfig receives cancellation through a Config field and never
// polls.
func ScanConfig(cfg Config, eqs []int) {
	for range eqs { // want ctxpoll "none of its loops polls"
		work(1)
	}
}

// ScanHooked hands its context to a solver that does the polling:
// clean.
func ScanHooked(ctx context.Context, eqs []int) {
	SetInterrupt(ctx)
	for range eqs {
		work(2)
	}
}

// SetInterrupt stands in for the solver's stop-signal installer.
func SetInterrupt(ctx context.Context) {}

// scanForever is unexported, but infinite loops are checked everywhere in
// the target packages.
func scanForever() {
	for { // want ctxpoll "infinite for loop"
		work(3)
	}
}

// scanUntilDone receives from ctx.Done(): clean.
func scanUntilDone(ctx context.Context) {
	for {
		select {
		case <-ctx.Done():
			return
		default:
			work(4)
		}
	}
}

// drain breaks out of its infinite loop: clean.
func drain(ch chan int) {
	for {
		if _, ok := <-ch; !ok {
			break
		}
	}
}
