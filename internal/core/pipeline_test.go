package core

import (
	"fmt"
	"math/rand"
	"sort"
	"strings"
	"testing"

	"repro/internal/anf"
	"repro/internal/ciphers/simon"
	"repro/internal/ciphers/sr"
)

func TestDeriveSeedDecorrelated(t *testing.T) {
	seen := map[int64]bool{}
	for iter := 0; iter < 8; iter++ {
		for job := 0; job < 8; job++ {
			s := deriveSeed(42, iter, job)
			if seen[s] {
				t.Fatalf("seed collision at iter=%d job=%d", iter, job)
			}
			seen[s] = true
		}
	}
	if deriveSeed(42, 3, 2) != deriveSeed(42, 3, 2) {
		t.Fatal("deriveSeed not a pure function")
	}
}

// resultFingerprint renders everything about a Result that the loop
// promises to keep Workers-independent.
func resultFingerprint(t *testing.T, r *Result) string {
	t.Helper()
	s := r.Status.String()
	s += "|" + r.State.String()
	for _, p := range r.System.Polys() {
		s += "|" + p.String()
	}
	for _, b := range r.Solution {
		if b {
			s += "1"
		} else {
			s += "0"
		}
	}
	return s
}

// ledgerFingerprint renders every record of a provenance ledger: its
// technique, iteration, polynomial, note and witness terms.
func ledgerFingerprint(r *Result) string {
	var b strings.Builder
	for i := 0; i < r.Provenance.Len(); i++ {
		rec := r.Provenance.At(i)
		fmt.Fprintf(&b, "%s %q:", rec, rec.Note)
		for _, w := range rec.Witness {
			fmt.Fprintf(&b, " (%s)·#%d", w.Mult, w.Src)
		}
		b.WriteByte('\n')
	}
	return b.String()
}

// TestProcessWorkersBitIdentical is the loop's determinism contract: the
// entire Result — verdict, solution, learnt-fact counts, final system,
// variable state and, when tracked, the fact ledger — must be
// bit-identical for every Workers value, 0 included. Both kernels are
// covered: untracked runs eliminate with M4R, tracked ones with the
// witness-carrying RREF, and in both the learners run Workers at once.
func TestProcessWorkersBitIdentical(t *testing.T) {
	instances := []*anf.System{
		simon.GenerateInstance(simon.Params{NPlaintexts: 2, Rounds: 5},
			rand.New(rand.NewSource(77))).Sys,
		sr.GenerateInstance(sr.Params{N: 1, R: 1, C: 2, E: 4},
			rand.New(rand.NewSource(5))).Sys,
	}
	for _, prov := range []bool{false, true} {
		for i, sys := range instances {
			cfg := DefaultConfig()
			cfg.Seed = 9
			cfg.EnableGroebner = true
			cfg.Provenance = prov
			cfg.Workers = 0
			base := Process(sys, cfg)
			want := resultFingerprint(t, base)
			var wantLedger string
			if prov {
				wantLedger = ledgerFingerprint(base)
			}
			for _, w := range []int{1, 2, 4} {
				cfg.Workers = w
				got := Process(sys, cfg)
				if base.Status != got.Status || base.Iterations != got.Iterations {
					t.Fatalf("instance %d, provenance %t: Workers=0 gave %v/%d, Workers=%d gave %v/%d",
						i, prov, base.Status, base.Iterations, w, got.Status, got.Iterations)
				}
				if base.XL != got.XL || base.ElimLin != got.ElimLin ||
					base.SAT != got.SAT || base.Groebner != got.Groebner ||
					base.Extra != got.Extra ||
					base.PropagationFacts != got.PropagationFacts {
					t.Fatalf("instance %d, provenance %t: phase stats differ between Workers=0 and Workers=%d", i, prov, w)
				}
				if fp := resultFingerprint(t, got); fp != want {
					t.Fatalf("instance %d, provenance %t: result fingerprint differs between Workers=0 and Workers=%d", i, prov, w)
				}
				if prov && ledgerFingerprint(got) != wantLedger {
					t.Fatalf("instance %d: fact ledger differs between Workers=0 and Workers=%d", i, w)
				}
			}
		}
	}
}

// TestProcessWorkersSolves checks the loop still recovers the key with
// four learners at once, i.e. parallelism does not cost solving power.
func TestProcessWorkersSolves(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	inst := sr.GenerateInstance(sr.Params{N: 1, R: 1, C: 2, E: 4}, rng)
	cfg := DefaultConfig()
	cfg.Workers = 4
	res := Process(inst.Sys, cfg)
	if res.Status != SolvedSAT {
		t.Fatalf("status %v, want SAT", res.Status)
	}
	if !VerifySolution(inst.Sys, res.Solution) {
		t.Fatal("solution does not satisfy the system")
	}
}

// TestPickElimVarMatchesRescan drives ElimLin's occurrence index through
// random substitution sequences. Each choice of variable must match the
// rescan pick over the equations as they stand, and afterwards every
// variable's list must hold exactly the equations a rescan finds it in.
func TestPickElimVarMatchesRescan(t *testing.T) {
	checkIndex := func(name string, x *occIndex, rest []anf.Poly, nvars int) {
		t.Helper()
		for u := anf.Var(0); int(u) < nvars; u++ {
			var want []int
			for i, p := range rest {
				if p.ContainsVar(u) {
					want = append(want, i)
				}
			}
			var got []int
			if int(u) < len(x.occ) {
				for _, i := range x.occ[u] {
					got = append(got, int(i))
				}
			}
			sort.Ints(got)
			if x.count(u) != len(want) || fmt.Sprint(got) != fmt.Sprint(want) {
				t.Fatalf("%s: %v listed in equations %v (count %d), rescan finds %v", name, u, got, x.count(u), want)
			}
		}
	}
	// A variable that drops out by cancellation: x3 := x2 turns
	// x1·x2 ⊕ x1·x3 into x1·x2 ⊕ x1·x2 = 0, so equation 0 loses x1, x2 and x3.
	rest := []anf.Poly{anf.MustParsePoly("x1*x2 + x1*x3"), anf.MustParsePoly("x2*x4 + x5*x6")}
	var x occIndex
	if x.eliminate([]anf.Poly{anf.MustParsePoly("x2 + x3")}, rest, nil) >= 0 {
		t.Fatal("no contradiction to report")
	}
	if !rest[0].IsZero() || x.count(1) != 0 || x.count(2) != 1 || x.count(3) != 0 {
		t.Fatalf("after x3 := x2: rest %v, counts x1 %d x2 %d x3 %d", rest, x.count(1), x.count(2), x.count(3))
	}
	checkIndex("cancellation", &x, rest, 7)

	rng := rand.New(rand.NewSource(11))
	randPoly := func(nvars int) anf.Poly {
		p := anf.Zero()
		for t := 0; t < 1+rng.Intn(5); t++ {
			m := anf.NewMonomial(anf.Var(rng.Intn(nvars)), anf.Var(rng.Intn(nvars)))
			p = p.Add(anf.FromMonomials(m))
		}
		return p
	}
	for trial := 0; trial < 200; trial++ {
		nvars := 4 + rng.Intn(40)
		rest := make([]anf.Poly, 1+rng.Intn(20))
		for i := range rest {
			rest[i] = randPoly(nvars)
		}
		// Linear equations over up to 6 distinct variables, some beyond
		// every equation of rest.
		linear := make([]anf.Poly, 1+rng.Intn(8))
		for li := range linear {
			l := anf.Constant(rng.Intn(2) == 1)
			for k := 0; k < 1+rng.Intn(6); k++ {
				if v := anf.VarPoly(anf.Var(rng.Intn(nvars + 4))); !l.Add(v).IsZero() {
					l = l.Add(v)
				}
			}
			if l.IsOne() {
				l = l.Add(anf.VarPoly(0))
			}
			linear[li] = l
		}
		var x occIndex
		picked := -1
		x.eliminate(linear, rest, func(li, i int, v anf.Var) {
			if li == picked {
				return
			}
			picked = li
			if want := rescanPick(linear[li].LinearVars(), rest); v != want {
				t.Fatalf("trial %d equation %d: index picked %v, rescan %v", trial, li, v, want)
			}
		})
		checkIndex(fmt.Sprintf("trial %d", trial), &x, rest, nvars+4)
	}
}

// BenchmarkElimLinIndex times ElimLin's step (3) alone: building the
// occurrence index over 400 equations, then eight eliminations, each a
// pick plus in-place substitutions into the equations that contain it.
func BenchmarkElimLinIndex(b *testing.B) {
	rng := rand.New(rand.NewSource(2))
	const nvars = 256
	rest := make([]anf.Poly, 400)
	for i := range rest {
		p := anf.Zero()
		for t := 0; t < 6; t++ {
			m := anf.NewMonomial(anf.Var(rng.Intn(nvars)), anf.Var(rng.Intn(nvars)))
			p = p.Add(anf.FromMonomials(m))
		}
		rest[i] = p
	}
	var linear []anf.Poly
	for _, vs := range [][]anf.Var{{3, 17, 40}, {99, 180}, {220, 5, 6, 7}, {8, 9}, {10, 11, 12, 13}, {14}, {15, 16}, {18, 19}} {
		l := anf.OnePoly()
		for _, v := range vs {
			l = l.Add(anf.VarPoly(v))
		}
		linear = append(linear, l)
	}
	work := make([]anf.Poly, len(rest))
	var x occIndex
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for k, p := range rest {
			work[k] = anf.FromSortedMonomials(p.Terms()) // in-place rewrites need owned copies
		}
		x.eliminate(linear, work, nil)
	}
}

// BenchmarkProcessWorkers runs the whole loop on the Simon instance with
// one learner at a time and with four at once — the end-to-end number the
// -j flag moves.
func BenchmarkProcessWorkers(b *testing.B) {
	sys := simon.GenerateInstance(simon.Params{NPlaintexts: 2, Rounds: 5},
		rand.New(rand.NewSource(77))).Sys
	for _, w := range []int{1, 4} {
		b.Run(map[int]string{1: "w1", 4: "w4"}[w], func(b *testing.B) {
			cfg := DefaultConfig()
			cfg.Seed = 9
			cfg.Workers = w
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				_ = Process(sys, cfg)
			}
		})
	}
}
