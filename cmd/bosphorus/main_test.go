package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/cnf"
	"repro/internal/proof"
)

func writeFile(t *testing.T, dir, name, content string) string {
	t.Helper()
	path := filepath.Join(dir, name)
	if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestSolveANF(t *testing.T) {
	dir := t.TempDir()
	in := writeFile(t, dir, "p.anf", "x1*x2 + x3 + x4 + 1\nx1*x2*x3 + x1 + x3 + 1\nx1*x3 + x3*x4*x5 + x3\nx2*x3 + x3*x5 + 1\nx2*x3 + x5 + 1\n")
	var out, errw bytes.Buffer
	if err := run([]string{"-anf", in, "-solve"}, &out, &errw); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "s SATISFIABLE") {
		t.Fatalf("output:\n%s", out.String())
	}
	// The paper's solution: x1..x4 = 1, x5 = 0 → "v 1 2 3 4 -5" modulo x0.
	if !strings.Contains(out.String(), " 2 3 4 5 -6 0") {
		t.Fatalf("solution line wrong:\n%s", out.String())
	}
}

func TestUnsatANF(t *testing.T) {
	dir := t.TempDir()
	in := writeFile(t, dir, "u.anf", "x0\nx0 + 1\n")
	var out, errw bytes.Buffer
	if err := run([]string{"-anf", in, "-solve"}, &out, &errw); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "s UNSATISFIABLE") {
		t.Fatalf("output:\n%s", out.String())
	}
}

func TestPreprocessWritesOutputs(t *testing.T) {
	dir := t.TempDir()
	in := writeFile(t, dir, "p.anf", "x0*x1 + x2\nx0 + 1\nx2 + x3\n")
	outANF := filepath.Join(dir, "out.anf")
	outCNF := filepath.Join(dir, "out.cnf")
	var out, errw bytes.Buffer
	if err := run([]string{"-anf", in, "-out-anf", outANF, "-out-cnf", outCNF}, &out, &errw); err != nil {
		t.Fatal(err)
	}
	anfData, err := os.ReadFile(outANF)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(anfData), "x0 + 1") {
		t.Fatalf("processed ANF missing fact:\n%s", anfData)
	}
	cnfData, err := os.ReadFile(outCNF)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(string(cnfData), "p cnf") {
		t.Fatal("CNF output not DIMACS")
	}
}

func TestCNFPreprocessorMode(t *testing.T) {
	dir := t.TempDir()
	in := writeFile(t, dir, "p.cnf", "p cnf 3 3\n1 0\n-1 2 0\n-2 3 0\n")
	outCNF := filepath.Join(dir, "out.cnf")
	var out, errw bytes.Buffer
	if err := run([]string{"-cnf", in, "-out-cnf", outCNF, "-solver", "minisat"}, &out, &errw); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(outCNF)
	if err != nil {
		t.Fatal(err)
	}
	// The learnt facts force all three variables; the merged output must
	// include unit clauses for them.
	s := string(data)
	for _, unit := range []string{"\n1 0\n", "\n2 0\n", "\n3 0\n"} {
		if !strings.Contains(s, unit) {
			t.Fatalf("missing learnt unit %q in:\n%s", strings.TrimSpace(unit), s)
		}
	}
}

func TestFlagValidation(t *testing.T) {
	var out, errw bytes.Buffer
	if err := run([]string{}, &out, &errw); err == nil {
		t.Fatal("missing input not rejected")
	}
	if err := run([]string{"-anf", "a", "-cnf", "b"}, &out, &errw); err == nil {
		t.Fatal("double input not rejected")
	}
	dir := t.TempDir()
	in := writeFile(t, dir, "p.anf", "x0\n")
	if err := run([]string{"-anf", in, "-solver", "nope"}, &out, &errw); err == nil {
		t.Fatal("bad solver not rejected")
	}
	if err := run([]string{"-anf", in, "-k", "21"}, &out, &errw); err == nil {
		t.Fatal("-k above the minimizer's limit not rejected")
	}
	if err := run([]string{"-anf", in, "-k", "20"}, &out, &errw); err != nil {
		t.Fatalf("-k at the minimizer's limit rejected: %v", err)
	}
}

func TestEnumerateSolutions(t *testing.T) {
	dir := t.TempDir()
	// x0 ∨ x1 as ANF would be x0*x1 + x0 + x1 + 1... simpler: x0 + x1: two
	// solutions (01, 10) over 2 variables.
	in := writeFile(t, dir, "e.anf", "x0 + x1 + 1\n")
	var out, errw bytes.Buffer
	if err := run([]string{"-anf", in, "-enum", "10"}, &out, &errw); err != nil {
		t.Fatal(err)
	}
	s := out.String()
	if !strings.Contains(s, "2 solution(s)") {
		t.Fatalf("enumeration output wrong:\n%s", s)
	}
}

// The --proof flag must round-trip: solve an UNSAT instance whose
// refutation is forced through the SAT step, write the DRAT proof and its
// formula, and have the built-in checker accept the pair — while a
// corrupted proof is rejected.
func TestProofFlagRoundTrip(t *testing.T) {
	dir := t.TempDir()
	in := writeFile(t, dir, "u.anf", "x1*x2 + x3\nx1*x2 + x3 + 1\n")
	proofPath := filepath.Join(dir, "p.drat")
	for _, format := range []string{"text", "bin"} {
		var out, errw bytes.Buffer
		err := run([]string{"-anf", in, "-solve", "-no-xl", "-no-elimlin",
			"-proof", proofPath, "-proof-format", format}, &out, &errw)
		if err != nil {
			t.Fatalf("format %s: %v\n%s", format, err, errw.String())
		}
		if !strings.Contains(out.String(), "s UNSATISFIABLE") {
			t.Fatalf("format %s: output:\n%s", format, out.String())
		}
		if !strings.Contains(out.String(), "c proof: ") {
			t.Fatalf("format %s: no proof line:\n%s", format, out.String())
		}
		cf, err := os.Open(proofPath + ".cnf")
		if err != nil {
			t.Fatal(err)
		}
		f, err := cnf.ReadDimacs(cf)
		cf.Close()
		if err != nil {
			t.Fatal(err)
		}
		pf, err := os.ReadFile(proofPath)
		if err != nil {
			t.Fatal(err)
		}
		cr, err := proof.Check(f, bytes.NewReader(pf))
		if err != nil || !cr.Verified {
			t.Fatalf("format %s: proof rejected: %+v err=%v", format, cr, err)
		}
		// Some single-bit corruption of the stream must be detected.
		rejected := false
		for i := range pf {
			mut := append([]byte(nil), pf...)
			mut[i] ^= 0x01
			if cr, err := proof.Check(f, bytes.NewReader(mut)); err != nil || !cr.Verified {
				rejected = true
				break
			}
		}
		if !rejected {
			t.Fatalf("format %s: no single-bit mutation was rejected", format)
		}
	}
}

// An UNSAT verdict that does not come from the SAT solver (propagation
// refutes the odd cycle) reports that no proof was captured instead of
// writing an empty file.
func TestProofFlagNoCertificate(t *testing.T) {
	dir := t.TempDir()
	in := writeFile(t, dir, "c.anf", "x1 + x2\nx2 + x3\nx1 + x3 + 1\n")
	proofPath := filepath.Join(dir, "p.drat")
	var out, errw bytes.Buffer
	if err := run([]string{"-anf", in, "-solve", "-proof", proofPath}, &out, &errw); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "c no proof captured") {
		t.Fatalf("output:\n%s", out.String())
	}
	if _, err := os.Stat(proofPath); !os.IsNotExist(err) {
		t.Fatal("proof file written without a certificate")
	}
}

// --verify-facts re-derives every learnt fact; on sound runs the summary
// reports zero failures and the exit status is clean, for SAT and UNSAT
// inputs alike.
func TestVerifyFactsFlag(t *testing.T) {
	dir := t.TempDir()
	for name, src := range map[string]string{
		"sat.anf":   "x1*x2 + x3 + x4 + 1\nx1*x2*x3 + x1 + x3 + 1\nx1*x3 + x3*x4*x5 + x3\nx2*x3 + x3*x5 + 1\nx2*x3 + x5 + 1\n",
		"unsat.anf": "x1*x2 + x3\nx1*x2 + x3 + 1\n",
	} {
		in := writeFile(t, dir, name, src)
		var out, errw bytes.Buffer
		if err := run([]string{"-anf", in, "-solve", "-verify-facts"}, &out, &errw); err != nil {
			t.Fatalf("%s: %v\n%s", name, err, out.String())
		}
		if !strings.Contains(out.String(), "c verify: facts=") {
			t.Fatalf("%s: no verify summary:\n%s", name, out.String())
		}
		if !strings.Contains(out.String(), "failed=0 unverified=0") {
			t.Fatalf("%s: verification not clean:\n%s", name, out.String())
		}
	}
}
