package cnf_test

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/anf"
	"repro/internal/ciphers/simon"
	"repro/internal/cnf"
	"repro/internal/conv"
	"repro/internal/satgen"
)

// The clausal XOR cut feeds producers whose output is pinned elsewhere
// (benchmark instances, ANF→CNF goldens, perfbench digests): the satgen
// parity and LFSR generators and the converter with native XOR off. The
// digests pin their exact DIMACS bytes, so a change in the cut's clause
// order, its pair cancelling or its parity test shows here first.
func TestXorCutDIMACSDigests(t *testing.T) {
	simonSys := simon.GenerateInstance(simon.Params{NPlaintexts: 2, Rounds: 4},
		rand.New(rand.NewSource(3))).Sys
	wide := anf.NewSystem()
	wide.Add(anf.MustParsePoly("x1 + x2 + x3 + x4 + x5 + x6 + x7 + x8 + x9 + x10 + x11 + 1"))
	wide.Add(anf.MustParsePoly("x1*x2 + x3*x4 + x5 + x6 + x7 + x8 + x9 + x10 + x11 + x12"))
	convert := func(sys *anf.System) *cnf.Formula {
		opts := conv.DefaultOptions()
		opts.NativeXor = false
		f, _ := conv.ANFToCNF(sys, opts)
		return f
	}
	for _, tc := range []struct {
		name string
		f    *cnf.Formula
		want string
	}{
		{"parity-planted-v96-e80-w3", satgen.ParityChain(96, 80, 3, true, rand.New(rand.NewSource(12))).Formula, "6f7b2d9624249280"},
		{"parity-rand-v80-e88-w4", satgen.ParityChain(80, 88, 4, false, rand.New(rand.NewSource(21))).Formula, "c5f53647503a6eb1"},
		{"lfsr-sat-n16-s48", satgen.LFSRReach(16, 48, false, rand.New(rand.NewSource(11))).Formula, "03fde77952fc0384"},
		{"lfsr-unsat-n24-s48", satgen.LFSRReach(24, 48, true, rand.New(rand.NewSource(11))).Formula, "3520cd3f019a6f39"},
		{"conv-simon-2-4", convert(simonSys), "b7c5e948f4e7ad8a"},
		{"conv-wide-xor", convert(wide), "8cd205e7d43f30d4"},
	} {
		var buf bytes.Buffer
		if err := cnf.WriteDimacs(&buf, tc.f); err != nil {
			t.Fatal(err)
		}
		sum := sha256.Sum256(buf.Bytes())
		if got := hex.EncodeToString(sum[:8]); got != tc.want {
			t.Errorf("%s: DIMACS digest %s, want %s (%d clauses)", tc.name, got, tc.want, len(tc.f.Clauses))
		}
	}
}

// Pairs cancel before the cut, a fully cancelled XOR with rhs 1 is the
// empty clause, and a false emit stops the cut.
func TestXorCutCancelsAndStops(t *testing.T) {
	if got := cnf.CancelPairs([]cnf.Var{3, 1, 3, 2, 3, 1}); !slices.Equal(got, []cnf.Var{3, 2}) {
		t.Fatalf("CancelPairs = %v, want [3 2]", got)
	}
	collect := func(rhs bool, vars ...cnf.Var) []string {
		var out []string
		cnf.XorCut(rhs, vars, func(c cnf.Clause) bool {
			out = append(out, c.String())
			return true
		})
		return out
	}
	if got := collect(true, 0, 1, 1); !slices.Equal(got, []string{"(1)"}) {
		t.Fatalf("x0 ⊕ x1 ⊕ x1 = 1: %q", got)
	}
	if got := collect(false, 0, 1); !slices.Equal(got, []string{"(-1 2)", "(1 -2)"}) {
		t.Fatalf("x0 ⊕ x1 = 0: %q", got)
	}
	if got := collect(true, 2, 2); len(got) != 1 || got[0] != "()" {
		t.Fatalf("0 = 1: %q, want the empty clause", got)
	}
	if got := collect(false, 2, 2); len(got) != 0 {
		t.Fatalf("0 = 0: %q, want nothing", got)
	}
	calls := 0
	if cnf.XorCut(true, []cnf.Var{0, 1, 2}, func(cnf.Clause) bool { calls++; return false }) || calls != 1 {
		t.Fatalf("cut went on after a false emit: %d calls", calls)
	}
}
