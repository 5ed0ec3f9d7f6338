package main

import (
	"math/rand"
	"sync"
)

// Variant kinds of a daemon request. An original is sent once; a repeat
// resends an earlier original either byte for byte or with whitespace or
// comments added, which the daemon canonicalizes to the same cache key.
const (
	variantOriginal = iota
	variantExact
	variantWhitespace
	variantComment
)

// slot is one request of the daemon traffic: which original it carries
// and in which variant.
type slot struct {
	orig    int
	variant int
}

// schedule builds the seeded request order for nOrig distinct originals
// and nRep repeats. Repeats are spread evenly through the stream
// (Bresenham), and each one names an original sent at least minGap slots
// earlier, so the wait for that original to answer is rarely felt by the
// closed-loop client that picks the repeat up.
func schedule(nOrig, nRep, minGap int, rng *rand.Rand) []slot {
	order := rng.Perm(nOrig)
	total := nOrig + nRep
	out := make([]slot, 0, total)
	origPos := make([]int, 0, nOrig) // positions of the originals sent so far
	sentOrig, sentRep := 0, 0
	for i := 0; i < total; i++ {
		eligible := 0
		for eligible < len(origPos) && origPos[eligible] <= i-minGap {
			eligible++
		}
		wantRep := (i+1)*nRep/total > sentRep
		if sentOrig == nOrig || (wantRep && eligible > 0 && sentRep < nRep) {
			if eligible == 0 {
				// Only possible when nOrig is too small for minGap; fall
				// back to the oldest original, which still precedes i.
				eligible = 1
			}
			pick := out[origPos[rng.Intn(eligible)]].orig
			out = append(out, slot{orig: pick, variant: variantExact + rng.Intn(3)})
			sentRep++
			continue
		}
		origPos = append(origPos, len(out))
		out = append(out, slot{orig: order[sentOrig], variant: variantOriginal})
		sentOrig++
	}
	return out
}

// drive sends the scheduled requests through clients closed-loop
// connections: each client takes the next slot, and before sending a
// repeat it waits until the slot that first sent that original has been
// answered, so every repeat finds its original in the result cache.
func drive(sched []slot, clients int, send func(i int)) {
	first := map[int]int{} // original -> slot that sends it
	for i, s := range sched {
		if s.variant == variantOriginal {
			first[s.orig] = i
		}
	}
	done := make([]chan struct{}, len(sched))
	for i := range done {
		done[i] = make(chan struct{})
	}
	var mu sync.Mutex
	next := 0
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				mu.Lock()
				i := next
				next++
				mu.Unlock()
				if i >= len(sched) {
					return
				}
				if sched[i].variant != variantOriginal {
					<-done[first[sched[i].orig]]
				}
				send(i)
				close(done[i])
			}
		}()
	}
	wg.Wait()
}
