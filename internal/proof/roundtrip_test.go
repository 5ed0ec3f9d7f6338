package proof

import (
	"bytes"
	"errors"
	"testing"

	"repro/internal/cnf"
	"repro/internal/sat"
)

// php builds the pigeonhole formula PHP(pigeons, holes): UNSAT whenever
// pigeons > holes, and it needs genuine conflict analysis (no single
// propagation chain refutes it).
func php(pigeons, holes int) *cnf.Formula {
	f := &cnf.Formula{}
	x := func(p, h int) cnf.Var { return cnf.Var(p*holes + h) }
	for p := 0; p < pigeons; p++ {
		lits := make([]cnf.Lit, holes)
		for h := 0; h < holes; h++ {
			lits[h] = cnf.MkLit(x(p, h), false)
		}
		f.AddClause(lits...)
	}
	for h := 0; h < holes; h++ {
		for p := 0; p < pigeons; p++ {
			for q := p + 1; q < pigeons; q++ {
				f.AddClause(cnf.MkLit(x(p, h), true), cnf.MkLit(x(q, h), true))
			}
		}
	}
	return f
}

func solveWithProof(t testing.TB, f *cnf.Formula, profile sat.Profile, probe bool, binary bool) (sat.Status, []byte) {
	t.Helper()
	var buf bytes.Buffer
	var w sat.ProofWriter
	if binary {
		w = NewBinaryWriter(&buf)
	} else {
		w = NewTextWriter(&buf)
	}
	s := sat.New(sat.DefaultOptions(profile))
	s.SetProof(w)
	ok := s.AddFormula(f)
	st := sat.Unsat
	if ok {
		if probe {
			s.ProbeLiterals(0)
		}
		if s.Okay() {
			st = s.Solve()
		}
	}
	if err := w.Flush(); err != nil {
		t.Fatalf("flush: %v", err)
	}
	return st, buf.Bytes()
}

func TestRoundTripPigeonhole(t *testing.T) {
	for _, tc := range []struct {
		name    string
		profile sat.Profile
		binary  bool
		probe   bool
	}{
		{"minisat-text", sat.ProfileMiniSat, false, false},
		{"minisat-binary", sat.ProfileMiniSat, true, false},
		{"lingeling-text", sat.ProfileLingeling, false, false},
		{"cms-text", sat.ProfileCMS, false, false},
		{"minisat-probe", sat.ProfileMiniSat, false, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			f := php(5, 4)
			st, pf := solveWithProof(t, f, tc.profile, tc.probe, tc.binary)
			if st != sat.Unsat {
				t.Fatalf("PHP(5,4) status = %v, want Unsat", st)
			}
			res, err := Check(f, bytes.NewReader(pf))
			if err != nil {
				t.Fatalf("Check: %v", err)
			}
			if !res.Verified {
				t.Fatalf("proof not verified: %+v (proof %d bytes)", res, len(pf))
			}
		})
	}
}

// recorder keeps a solver's proof events, to be replayed into writers.
type recorder struct {
	kinds []byte
	lits  [][]cnf.Lit
}

func (r *recorder) add(kind byte, lits []cnf.Lit) {
	r.kinds = append(r.kinds, kind)
	r.lits = append(r.lits, append([]cnf.Lit(nil), lits...))
}

func (r *recorder) Learn(lits []cnf.Lit)   { r.add('a', lits) }
func (r *recorder) Delete(lits []cnf.Lit)  { r.add('d', lits) }
func (r *recorder) Justify(lits []cnf.Lit) { r.add('x', lits) }
func (r *recorder) Flush() error           { return nil }

// Both writers emit every record of a proof-logged PHP(8,7) solve exactly
// as spellOut spells it, whatever records the solver logs.
func TestWritersMatchSpelledOutForms(t *testing.T) {
	var rec recorder
	s := sat.New(sat.DefaultOptions(sat.ProfileMiniSat))
	s.SetProof(&rec)
	if !s.AddFormula(php(8, 7)) || s.Solve() != sat.Unsat {
		t.Fatal("PHP(8,7) is not refuted")
	}
	var text, bin bytes.Buffer
	tw, bw := NewTextWriter(&text), NewBinaryWriter(&bin)
	var wantText, wantBin []byte
	for i, kind := range rec.kinds {
		for _, w := range []Writer{tw, bw} {
			map[byte]func([]cnf.Lit){'a': w.Learn, 'd': w.Delete, 'x': w.Justify}[kind](rec.lits[i])
		}
		st, sb := spellOut(kind, rec.lits[i])
		wantText, wantBin = append(wantText, st...), append(wantBin, sb...)
	}
	if err := errors.Join(tw.Flush(), bw.Flush()); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(text.Bytes(), wantText) || !bytes.Equal(bin.Bytes(), wantBin) {
		t.Fatalf("%d records: the writers' %d text and %d binary bytes differ from the spelled-out %d and %d",
			len(rec.kinds), text.Len(), bin.Len(), len(wantText), len(wantBin))
	}
}

func TestRoundTripXorGauss(t *testing.T) {
	// Native XOR rows (CMS profile): x1⊕x2=1, x2⊕x3=1, x1⊕x3=1 is UNSAT
	// (the three rows sum to 0=1); refutation flows through the Gauss
	// component, so the proof leans on "x" justification records.
	f := &cnf.Formula{}
	f.AddXor(true, 0, 1)
	f.AddXor(true, 1, 2)
	f.AddXor(true, 0, 2)
	st, pf := solveWithProof(t, f, sat.ProfileCMS, false, false)
	if st != sat.Unsat {
		t.Fatalf("status = %v, want Unsat", st)
	}
	res, err := Check(f, bytes.NewReader(pf))
	if err != nil {
		t.Fatalf("Check: %v", err)
	}
	if !res.Verified {
		t.Fatalf("xor proof not verified: %+v", res)
	}
}

func TestRoundTripXorSearch(t *testing.T) {
	// XOR rows that are consistent on their own but clash with clauses, so
	// the conflict is found during search with Gauss reasons in play:
	// x1⊕x2=1 plus clauses forcing x1=x2.
	f := &cnf.Formula{}
	f.AddXor(true, 0, 1)
	f.AddClause(cnf.MkLit(0, true), cnf.MkLit(1, false))
	f.AddClause(cnf.MkLit(0, false), cnf.MkLit(1, true))
	st, pf := solveWithProof(t, f, sat.ProfileCMS, false, false)
	if st != sat.Unsat {
		t.Fatalf("status = %v, want Unsat", st)
	}
	res, err := Check(f, bytes.NewReader(pf))
	if err != nil {
		t.Fatalf("Check: %v", err)
	}
	if !res.Verified {
		t.Fatalf("xor+clause proof not verified: %+v", res)
	}
}

// parityBlend builds an UNSAT mix of short XOR constraints and clauses
// that needs real search: a parity chain x0⊕x1, x1⊕x2, ... fixing
// x0 = x_{n-1} parity-wise, plus clauses demanding the opposite.
func parityBlend(n int) *cnf.Formula {
	f := &cnf.Formula{}
	for i := 0; i+1 < n; i++ {
		f.AddXor(false, cnf.Var(i), cnf.Var(i+1)) // x_i = x_{i+1}
	}
	// Equality chain forces x0 == x_{n-1}; demand x0 != x_{n-1} clausally.
	last := cnf.Var(n - 1)
	f.AddClause(cnf.MkLit(0, false), cnf.MkLit(last, false))
	f.AddClause(cnf.MkLit(0, true), cnf.MkLit(last, true))
	return f
}

func TestRoundTripParityNative(t *testing.T) {
	// Native parity clauses (the default for every profile since the
	// NativeXor option landed): propagation and conflicts flow through the
	// packed parity kind, whose implications are justified with "x" records
	// over the clause's full variable set.
	for _, tc := range []struct {
		name    string
		profile sat.Profile
		binary  bool
	}{
		{"minisat-text", sat.ProfileMiniSat, false},
		{"minisat-binary", sat.ProfileMiniSat, true},
		{"cms-text", sat.ProfileCMS, false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			f := parityBlend(9)
			st, pf := solveWithProof(t, f, tc.profile, false, tc.binary)
			if st != sat.Unsat {
				t.Fatalf("status = %v, want Unsat", st)
			}
			res, err := Check(f, bytes.NewReader(pf))
			if err != nil {
				t.Fatalf("Check: %v", err)
			}
			if !res.Verified {
				t.Fatalf("native parity proof not verified: %+v (proof %d bytes)", res, len(pf))
			}
		})
	}
}

func TestMutatedParityProofRejected(t *testing.T) {
	// Corrupting a parity-derived proof must break verification: the
	// mutated clause's "x" justification row no longer reduces to zero in
	// the XOR rowspan (or the RUP chain breaks downstream).
	f := parityBlend(9)
	st, pf := solveWithProof(t, f, sat.ProfileMiniSat, false, false)
	if st != sat.Unsat {
		t.Fatalf("status = %v, want Unsat", st)
	}
	mut := append([]byte(nil), pf...)
	for i, b := range mut {
		if b == '-' {
			mut[i] = ' ' // flip one literal's polarity, keep the stream parseable
			break
		}
	}
	if bytes.Equal(mut, pf) {
		t.Skip("proof contains no negative literal to mutate")
	}
	res, err := Check(f, bytes.NewReader(mut))
	if err == nil && res.Verified {
		t.Fatalf("mutated parity proof still verified: %+v", res)
	}
}

func TestRoundTripSatisfiableNoVerdict(t *testing.T) {
	// A satisfiable formula yields a well-formed stream that simply never
	// derives the empty clause.
	f := php(3, 4)
	st, pf := solveWithProof(t, f, sat.ProfileMiniSat, false, false)
	if st != sat.Sat {
		t.Fatalf("status = %v, want Sat", st)
	}
	res, err := Check(f, bytes.NewReader(pf))
	if err != nil {
		t.Fatalf("Check: %v", err)
	}
	if res.Verified {
		t.Fatalf("satisfiable instance must not verify UNSAT: %+v", res)
	}
}

func TestMutatedSolverProofRejected(t *testing.T) {
	f := php(5, 4)
	st, pf := solveWithProof(t, f, sat.ProfileMiniSat, false, false)
	if st != sat.Unsat {
		t.Fatalf("status = %v, want Unsat", st)
	}
	// Flip the polarity of the first literal of the first learnt clause.
	mut := append([]byte(nil), pf...)
	for i, b := range mut {
		if b == '-' {
			// Drop the minus sign: " -3 " -> " 3 " keeps the stream parseable
			// but changes the clause.
			mut[i] = ' '
			break
		}
	}
	if bytes.Equal(mut, pf) {
		t.Skip("proof contains no negative literal to mutate")
	}
	res, err := Check(f, bytes.NewReader(mut))
	if err == nil && res.Verified {
		// The mutation may happen to produce another valid proof only if the
		// flipped clause is still RUP at that point; for PHP learnt clauses
		// this does not occur.
		t.Fatalf("mutated proof still verified: %+v", res)
	}
}
