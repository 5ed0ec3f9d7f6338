package main

import (
	"math"
	"math/rand"
	"os"
	"runtime"
	"sync"
	"testing"
)

// TestMain lets the test binary serve as the job process that batch
// workloads start (see child.go).
func TestMain(m *testing.M) {
	asJobProcess()
	os.Exit(m.Run())
}

func seq(n int) []float64 {
	xs := make([]float64, n)
	for i := range xs {
		xs[n-1-i] = float64(i + 1) // descending: tail must sort
	}
	return xs
}

func TestTailKeepsTenSamplesBeyond(t *testing.T) {
	for _, tc := range []struct {
		n, p   int
		value  float64
		beyond int
	}{
		{n: 11, p: 9, value: 1, beyond: 10},
		{n: 20, p: 50, value: 10, beyond: 10},
		{n: 150, p: 93, value: 140, beyond: 10},
		{n: 400, p: 97, value: 388, beyond: 12},
		{n: 1000, p: 99, value: 990, beyond: 10},
		{n: 5000, p: 99, value: 4950, beyond: 50},
	} {
		p, v, beyond, ok := tail(seq(tc.n))
		if !ok || p != tc.p || v != tc.value || beyond != tc.beyond {
			t.Errorf("tail(1..%d) = p%d %v beyond %d ok %v, want p%d %v beyond %d",
				tc.n, p, v, beyond, ok, tc.p, tc.value, tc.beyond)
		}
		if beyond < minBeyond {
			t.Errorf("n=%d: only %d samples beyond the tail", tc.n, beyond)
		}
	}
	if _, _, _, ok := tail(seq(10)); ok {
		t.Error("10 samples cannot have a tail with 10 beyond it")
	}
}

func TestMedian(t *testing.T) {
	if m := median([]float64{3, 1, 2}); m != 2 {
		t.Errorf("odd median = %v", m)
	}
	if m := median([]float64{4, 1, 3, 2}); m != 2.5 {
		t.Errorf("even median = %v", m)
	}
	if !math.IsNaN(median(nil)) {
		t.Error("median of nothing must be NaN")
	}
}

func TestPAR2AndSolvedRule(t *testing.T) {
	jobs := []jobOutcome{
		{seconds: 0.5, solved: true},
		{seconds: 1.5, solved: true},
		{seconds: 0.2, solved: false},              // wrong or unverified verdict
		{seconds: jobLimitS + 1, solved: true},     // verified, but over the limit
		{seconds: jobLimitS, solved: true},         // exactly at the limit counts
		{seconds: 0.3, solved: false},              // error / 429 / CANCELED
		{seconds: 0, solved: true},                 // a zero-time job still counts
		{seconds: 2 * jobLimitS, solved: false},    // slow and failed
		{seconds: 0.25, solved: true},              // plain solved
		{seconds: jobLimitS + 0.001, solved: true}, // just over
	}
	want := 0.5 + 1.5 + jobLimitS + 0 + 0.25 + 5*2*jobLimitS
	if got := par2(jobs); math.Abs(got-want) > 1e-9 {
		t.Errorf("par2 = %v, want %v", got, want)
	}
	if got := solvedFrac(jobs); got != 0.5 {
		t.Errorf("solvedFrac = %v, want 0.5", got)
	}
	if solvedFrac(nil) != 0 {
		t.Error("solvedFrac of no jobs must be 0")
	}
}

func TestScheduleRepeatsFollowOriginals(t *testing.T) {
	const nOrig, nRep, gap = 120, 280, 8
	for seed := int64(1); seed <= 20; seed++ {
		s := schedule(nOrig, nRep, gap, rand.New(rand.NewSource(seed)))
		if len(s) != nOrig+nRep {
			t.Fatalf("seed %d: %d slots, want %d", seed, len(s), nOrig+nRep)
		}
		firstAt := map[int]int{}
		repeats := 0
		for i, sl := range s {
			if sl.variant == variantOriginal {
				if _, dup := firstAt[sl.orig]; dup {
					t.Fatalf("seed %d: original %d sent twice", seed, sl.orig)
				}
				firstAt[sl.orig] = i
				continue
			}
			repeats++
			at, ok := firstAt[sl.orig]
			if !ok {
				t.Fatalf("seed %d: slot %d repeats original %d before it was sent", seed, i, sl.orig)
			}
			if i-at < gap {
				t.Errorf("seed %d: slot %d repeats slot %d only %d slots later", seed, i, at, i-at)
			}
		}
		if len(firstAt) != nOrig || repeats != nRep {
			t.Errorf("seed %d: %d originals and %d repeats, want %d and %d", seed, len(firstAt), repeats, nOrig, nRep)
		}
		again := schedule(nOrig, nRep, gap, rand.New(rand.NewSource(seed)))
		for i := range s {
			if s[i] != again[i] {
				t.Fatalf("seed %d: schedule not reproducible at slot %d", seed, i)
			}
		}
	}
}

// TestDriveSendsRepeatsAfterOriginals runs drive, the closed-loop sender,
// against a fake daemon whose service times vary, and checks that no
// repeat is sent before the request carrying its original has been
// answered.
func TestDriveSendsRepeatsAfterOriginals(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	s := schedule(30, 90, 2, rng)
	work := make([]int, len(s))
	for i := range work {
		work[i] = rng.Intn(200)
	}
	var mu sync.Mutex
	answered := map[int]bool{} // originals answered so far
	sent := 0
	drive(s, 3, func(i int) {
		mu.Lock()
		if s[i].variant != variantOriginal && !answered[s[i].orig] {
			t.Errorf("slot %d repeats original %d before it was answered", i, s[i].orig)
		}
		sent++
		mu.Unlock()
		for k := 0; k < work[i]; k++ {
			runtime.Gosched()
		}
		mu.Lock()
		if s[i].variant == variantOriginal {
			answered[s[i].orig] = true
		}
		mu.Unlock()
	})
	if sent != len(s) {
		t.Errorf("sent %d of %d requests", sent, len(s))
	}
}

// TestTracedJobsDoTheSameWork checks the job process and the traced path
// against a plain in-process job, on the first jobs of every batch
// workload: equal digest records (verdict, iterations, per-phase facts,
// SAT-step conflicts, model), and a deciding-step replay that agrees with
// the job (replay panics if not). The traced layer times must tile the
// traced job time.
func TestTracedJobsDoTheSameWork(t *testing.T) {
	if testing.Short() {
		t.Skip("runs real engine jobs")
	}
	for _, setup := range []func(int64, int, bool) (runner, error){setupSimon, setupBitcoin, setupCNFProof} {
		r, err := setup(3, 1, false)
		if err != nil {
			t.Fatal(err)
		}
		jobs := r.(*batch).jobs
		n := 2
		if jobs[0].CNF {
			n = 2 * len(cnfFamilies) // one of each family, twice
		}
		tr := newTracer()
		for _, j := range jobs[:n] {
			in, err := j.parse()
			if err != nil {
				t.Fatal(err)
			}
			plain := runEngineJob(j, in, nil)
			for _, other := range []verdict{runJobProcess(j, nil).verdict, runJobProcess(j, tr).verdict} {
				if !plain.Solved || !other.Solved {
					t.Errorf("%s: not solved (%s / %s)", j.Name, plain.Status, other.Status)
				}
				if plain.Record != other.Record {
					t.Errorf("%s: job did other work:\n%s\nvs\n%s", j.Name, plain.Record, other.Record)
				}
			}
		}
		sum := 0.0
		for _, name := range partition {
			sum += tr.vals[name]
		}
		if tr.jobMS == 0 || math.Abs(sum-tr.jobMS) > 1e-6*tr.jobMS {
			t.Errorf("layer partition sums to %.3f ms, traced job time is %.3f ms", sum, tr.jobMS)
		}
	}
}
