package main

import (
	"math"
	"sort"
)

// jobLimitS is the per-job limit PAR-2 charges twice for an unsolved job.
// It equals bosphorusd's default job deadline (10 s), far above any job of
// any workload (the slowest measured job is under 1 s), so it never
// shapes the work: batch jobs are never cut at it, and the daemon's own
// deadline only fires on a hung job.
const jobLimitS = 10.0

// jobOutcome is one job as the metrics see it: its wall time and whether
// its verdict was verified.
type jobOutcome struct {
	seconds float64
	solved  bool
}

// countsSolved is the solved rule: a job counts as solved when its verdict
// was verified and it finished within the per-job limit.
func countsSolved(o jobOutcome) bool {
	return o.solved && o.seconds <= jobLimitS
}

// par2 is Table II's PAR-2 score: the summed time of solved jobs plus
// twice the limit for each unsolved one.
func par2(jobs []jobOutcome) float64 {
	total := 0.0
	for _, o := range jobs {
		if countsSolved(o) {
			total += o.seconds
		} else {
			total += 2 * jobLimitS
		}
	}
	return total
}

// solvedFrac is the share of attempted jobs that count as solved.
func solvedFrac(jobs []jobOutcome) float64 {
	if len(jobs) == 0 {
		return 0
	}
	n := 0
	for _, o := range jobs {
		if countsSolved(o) {
			n++
		}
	}
	return float64(n) / float64(len(jobs))
}

// median returns the median of xs (the mean of the two middle values for
// an even count); xs is not modified.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// minBeyond is how many samples must lie above the reported tail value.
const minBeyond = 10

// tail returns the highest whole percentile p of xs that still has at
// least minBeyond samples above it, with its nearest-rank value and the
// number of samples beyond. With fewer than minBeyond+1 samples no
// percentile qualifies and ok is false.
func tail(xs []float64) (p int, value float64, beyond int, ok bool) {
	n := len(xs)
	if n <= minBeyond {
		return 0, math.NaN(), 0, false
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	p = 100 * (n - minBeyond) / n
	if p > 99 {
		p = 99
	}
	rank := (p*n + 99) / 100 // nearest rank: ceil(p/100 * n)
	if rank < 1 {
		rank = 1
	}
	return p, s[rank-1], n - rank, true
}
