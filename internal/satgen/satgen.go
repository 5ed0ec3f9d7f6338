// Package satgen generates competition-style CNF benchmarks standing in
// for the paper's SAT Competition 2017 suite (310 instances): a
// heterogeneous population of application-like, crafted and random
// formulas. The real suite is a multi-gigabyte download of proprietary-mix
// instances; these generators produce the same *kinds* of structure —
// random k-SAT at the phase transition, pigeonhole and mutilated
// chessboard (crafted UNSAT), XOR/parity chains (where ANF-level
// reasoning shines), graph colouring, and unrolled sequential circuits
// (BMC-style) — with known satisfiability status where possible.
package satgen

import (
	"fmt"
	"math/rand"

	"repro/internal/cnf"
)

// Status is the known ground truth of a generated instance.
type Status int

const (
	// StatusUnknown means the generator cannot certify the answer.
	StatusUnknown Status = iota
	// StatusSat means the instance is satisfiable by construction.
	StatusSat
	// StatusUnsat means the instance is unsatisfiable by construction.
	StatusUnsat
)

func (s Status) String() string {
	switch s {
	case StatusSat:
		return "SAT"
	case StatusUnsat:
		return "UNSAT"
	default:
		return "UNKNOWN"
	}
}

// Instance is a generated benchmark.
type Instance struct {
	Name    string
	Formula *cnf.Formula
	Status  Status
}

// RandomKSAT generates a uniform random k-SAT formula with the given
// clause/variable ratio (4.26 is the 3-SAT phase transition).
func RandomKSAT(nVars, k int, ratio float64, rng *rand.Rand) *Instance {
	f := cnf.NewFormula(nVars)
	nClauses := int(ratio * float64(nVars))
	for i := 0; i < nClauses; i++ {
		seen := map[int]bool{}
		var c []cnf.Lit
		for len(c) < k {
			v := rng.Intn(nVars)
			if seen[v] {
				continue
			}
			seen[v] = true
			c = append(c, cnf.MkLit(cnf.Var(v), rng.Intn(2) == 1))
		}
		f.AddClause(c...)
	}
	return &Instance{
		Name:    fmt.Sprintf("rand%dsat-v%d-r%.2f", k, nVars, ratio),
		Formula: f,
		Status:  StatusUnknown,
	}
}

// Pigeonhole generates PHP(pigeons, holes): UNSAT iff pigeons > holes.
func Pigeonhole(pigeons, holes int) *Instance {
	f := cnf.NewFormula(pigeons * holes)
	at := func(p, h int) cnf.Var { return cnf.Var(p*holes + h) }
	for p := 0; p < pigeons; p++ {
		var c []cnf.Lit
		for h := 0; h < holes; h++ {
			c = append(c, cnf.MkLit(at(p, h), false))
		}
		f.AddClause(c...)
	}
	for h := 0; h < holes; h++ {
		for p1 := 0; p1 < pigeons; p1++ {
			for p2 := p1 + 1; p2 < pigeons; p2++ {
				f.AddClause(cnf.MkLit(at(p1, h), true), cnf.MkLit(at(p2, h), true))
			}
		}
	}
	st := StatusSat
	if pigeons > holes {
		st = StatusUnsat
	}
	return &Instance{Name: fmt.Sprintf("php-%d-%d", pigeons, holes), Formula: f, Status: st}
}

// ParityChain generates a random linear system over GF(2) encoded as CNF
// (each XOR expanded clausally): n variables, m equations of width w. With
// planted = true the RHS comes from a planted solution (SAT); otherwise
// random RHS (usually UNSAT once m > n). This is the family where a
// GJE-enabled solver or ANF-level reasoning wins big.
func ParityChain(nVars, nEqs, width int, planted bool, rng *rand.Rand) *Instance {
	f := cnf.NewFormula(nVars)
	sol := make([]bool, nVars)
	for i := range sol {
		sol[i] = rng.Intn(2) == 1
	}
	status := StatusSat
	if !planted {
		status = StatusUnknown
	}
	for e := 0; e < nEqs; e++ {
		seen := map[int]bool{}
		var vs []cnf.Var
		for len(vs) < width {
			v := rng.Intn(nVars)
			if seen[v] {
				continue
			}
			seen[v] = true
			vs = append(vs, cnf.Var(v))
		}
		rhs := rng.Intn(2) == 1
		if planted {
			rhs = false
			for _, v := range vs {
				if sol[v] {
					rhs = !rhs
				}
			}
		}
		// Clausal expansion of the XOR (2^(w-1) clauses).
		f.AddXorCut(rhs, vs...)
	}
	kind := "rand"
	if planted {
		kind = "planted"
	}
	return &Instance{
		Name:    fmt.Sprintf("parity-%s-v%d-e%d-w%d", kind, nVars, nEqs, width),
		Formula: f,
		Status:  status,
	}
}

// GraphColoring generates a k-colouring instance of a random graph with
// the given edge density. Status is unknown in general.
func GraphColoring(nNodes, colors int, density float64, rng *rand.Rand) *Instance {
	f := cnf.NewFormula(nNodes * colors)
	at := func(node, c int) cnf.Var { return cnf.Var(node*colors + c) }
	for n := 0; n < nNodes; n++ {
		var c []cnf.Lit
		for k := 0; k < colors; k++ {
			c = append(c, cnf.MkLit(at(n, k), false))
		}
		f.AddClause(c...)
		for k1 := 0; k1 < colors; k1++ {
			for k2 := k1 + 1; k2 < colors; k2++ {
				f.AddClause(cnf.MkLit(at(n, k1), true), cnf.MkLit(at(n, k2), true))
			}
		}
	}
	for a := 0; a < nNodes; a++ {
		for b := a + 1; b < nNodes; b++ {
			if rng.Float64() >= density {
				continue
			}
			for k := 0; k < colors; k++ {
				f.AddClause(cnf.MkLit(at(a, k), true), cnf.MkLit(at(b, k), true))
			}
		}
	}
	return &Instance{
		Name:    fmt.Sprintf("color-n%d-k%d-d%.2f", nNodes, colors, density),
		Formula: f,
		Status:  StatusUnknown,
	}
}

// LFSRReach generates a BMC-style unrolling: an n-bit Fibonacci LFSR with
// random taps is unrolled for `steps` transitions from a symbolic initial
// state; the property asks for an initial state whose trajectory ends in
// the all-ones state. The transition relation is linear, so the instance
// rewards XOR recovery; satisfiability is decided at generation time by
// simulating all... no — by construction: we pick a random final trajectory
// backwards, making the instance SAT, or add a blocking twist for UNSAT.
func LFSRReach(nBits, steps int, unsat bool, rng *rand.Rand) *Instance {
	f := cnf.NewFormula(nBits * (steps + 1))
	at := func(step, bit int) cnf.Var { return cnf.Var(step*nBits + bit) }
	// Random taps: bit 0's next value is the XOR of tapped bits; other
	// bits shift.
	taps := []int{0}
	for b := 1; b < nBits; b++ {
		if rng.Intn(3) == 0 {
			taps = append(taps, b)
		}
	}
	for s := 0; s < steps; s++ {
		// next[b] = cur[b+1] for b < n-1  (shift)
		for b := 0; b+1 < nBits; b++ {
			// Equality via two binary clauses.
			f.AddClause(cnf.MkLit(at(s+1, b), true), cnf.MkLit(at(s, b+1), false))
			f.AddClause(cnf.MkLit(at(s+1, b), false), cnf.MkLit(at(s, b+1), true))
		}
		// next[n-1] = XOR of taps of cur, i.e. next ⊕ taps = 0: clausal
		// expansion.
		vs := []cnf.Var{at(s+1, nBits-1)}
		for _, tp := range taps {
			vs = append(vs, at(s, tp))
		}
		f.AddXorCut(false, vs...)
	}
	// Property: final state all ones.
	for b := 0; b < nBits; b++ {
		f.AddClause(cnf.MkLit(at(steps, b), false))
	}
	status := StatusSat // the final state determines a valid backward run
	if unsat {
		// Additionally force the initial state to all zeros, whose forward
		// trajectory stays zero — contradiction with the all-ones target.
		for b := 0; b < nBits; b++ {
			f.AddClause(cnf.MkLit(at(0, b), true))
		}
		status = StatusUnsat
	}
	kind := "sat"
	if unsat {
		kind = "unsat"
	}
	return &Instance{
		Name:    fmt.Sprintf("lfsr-%s-n%d-s%d", kind, nBits, steps),
		Formula: f,
		Status:  status,
	}
}

// MutilatedChessboard encodes domino tiling of an n×n board with two
// opposite corners removed — the classic crafted UNSAT family (the two
// removed squares share a colour, so no perfect domino cover exists).
// Variables are the horizontal/vertical domino placements; each remaining
// square must be covered exactly once. Resolution needs exponential size
// on this family, making it a strong crafted member of the suite.
func MutilatedChessboard(n int) *Instance {
	if n < 2 {
		panic("satgen: board too small")
	}
	removed := func(r, c int) bool {
		return (r == 0 && c == 0) || (r == n-1 && c == n-1)
	}
	// Enumerate dominoes over remaining squares.
	type domino struct{ r1, c1, r2, c2 int }
	var doms []domino
	covering := map[[2]int][]int{} // square -> domino variable indices
	for r := 0; r < n; r++ {
		for c := 0; c < n; c++ {
			if removed(r, c) {
				continue
			}
			if c+1 < n && !removed(r, c+1) {
				covering[[2]int{r, c}] = append(covering[[2]int{r, c}], len(doms))
				covering[[2]int{r, c + 1}] = append(covering[[2]int{r, c + 1}], len(doms))
				doms = append(doms, domino{r, c, r, c + 1})
			}
			if r+1 < n && !removed(r+1, c) {
				covering[[2]int{r, c}] = append(covering[[2]int{r, c}], len(doms))
				covering[[2]int{r + 1, c}] = append(covering[[2]int{r + 1, c}], len(doms))
				doms = append(doms, domino{r, c, r + 1, c})
			}
		}
	}
	f := cnf.NewFormula(len(doms))
	for r := 0; r < n; r++ {
		for c := 0; c < n; c++ {
			if removed(r, c) {
				continue
			}
			vars := covering[[2]int{r, c}]
			// At least one covering domino...
			clause := make([]cnf.Lit, len(vars))
			for i, v := range vars {
				clause[i] = cnf.MkLit(cnf.Var(v), false)
			}
			f.AddClause(clause...)
			// ... and at most one (pairwise).
			for i := 0; i < len(vars); i++ {
				for j := i + 1; j < len(vars); j++ {
					f.AddClause(cnf.MkLit(cnf.Var(vars[i]), true), cnf.MkLit(cnf.Var(vars[j]), true))
				}
			}
		}
	}
	return &Instance{
		Name:    fmt.Sprintf("mutilated-chessboard-%d", n),
		Formula: f,
		Status:  StatusUnsat,
	}
}

// SuiteConfig scales the benchmark suite.
type SuiteConfig struct {
	// Scale multiplies instance sizes (1 = laptop-quick defaults).
	Scale int
	// PerFamily is the number of instances per generator family.
	PerFamily int
	// Seed fixes the population.
	Seed int64
}

// DefaultSuiteConfig returns a quick, minutes-scale suite.
func DefaultSuiteConfig() SuiteConfig {
	return SuiteConfig{Scale: 1, PerFamily: 4, Seed: 20170901}
}

// Suite generates the full mixed population, the stand-in for the
// SAT-2017 benchmark set.
func Suite(cfg SuiteConfig) []*Instance {
	if cfg.Scale < 1 {
		cfg.Scale = 1
	}
	if cfg.PerFamily < 1 {
		cfg.PerFamily = 4
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	var out []*Instance
	for i := 0; i < cfg.PerFamily; i++ {
		n := (40 + 25*i) * cfg.Scale
		out = append(out, RandomKSAT(n, 3, 4.26, rng))
	}
	for i := 0; i < cfg.PerFamily; i++ {
		// Steep ladder: the larger pigeonholes are the suite's genuinely
		// hard UNSAT members (they feed the Table II hard-subset row).
		h := 5 + 2*i + cfg.Scale
		out = append(out, Pigeonhole(h+1, h))
	}
	for i := 0; i < cfg.PerFamily; i++ {
		n := (24 + 8*i) * cfg.Scale
		out = append(out, ParityChain(n, n+4, 3, i%2 == 0, rng))
	}
	for i := 0; i < cfg.PerFamily; i++ {
		out = append(out, GraphColoring(10+3*i*cfg.Scale, 3, 0.35, rng))
	}
	for i := 0; i < cfg.PerFamily; i++ {
		out = append(out, LFSRReach(8+2*i, 6+2*i*cfg.Scale, i%2 == 1, rng))
	}
	for i := 0; i < cfg.PerFamily; i++ {
		out = append(out, MutilatedChessboard(4+2*i*cfg.Scale))
	}
	return out
}
