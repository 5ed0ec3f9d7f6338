package bosphorus

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// End-to-end provenance: every instance under examples/instances flows
// through the full pipeline (one learner at a time and two at once, solve
// and preprocess) with tracking on, and every fact in the resulting ledger
// must independently re-derive against the original system. check.sh runs
// this under -race, so the concurrent learners' witness recording is
// exercised too.
func TestExamplesProvenanceVerifies(t *testing.T) {
	paths, err := filepath.Glob(filepath.Join("examples", "instances", "*.anf"))
	if err != nil {
		t.Fatal(err)
	}
	if len(paths) == 0 {
		t.Fatal("no example instances found")
	}
	for _, path := range paths {
		path := path
		t.Run(filepath.Base(path), func(t *testing.T) {
			data, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			for _, mode := range []struct {
				name    string
				workers int
				solve   bool
			}{
				{"solve-seq", 0, true},
				{"preprocess-seq", 0, false},
				{"solve-pipeline", 2, true},
			} {
				sys, err := ParseANF(strings.NewReader(string(data)))
				if err != nil {
					t.Fatal(err)
				}
				opts := DefaultOptions()
				opts.Provenance = true
				opts.EmitProof = true
				opts.Workers = mode.workers
				var res *Result
				if mode.solve {
					res = Solve(sys, opts)
				} else {
					res = Preprocess(sys, opts)
				}
				if res.Provenance == nil {
					t.Fatalf("%s: no ledger", mode.name)
				}
				report := VerifyFacts(sys, res.Provenance, VerifyOptions{Seed: 7})
				if !report.AllVerified() {
					for _, v := range report.Verdicts {
						if !v.Verdict.Verified() {
							t.Errorf("%s: fact %d (%s, iter %d): %v — %s",
								mode.name, v.ID, v.Technique, v.Iteration, v.Verdict, v.Detail)
						}
					}
					t.Fatalf("%s: %s", mode.name, report.Summary())
				}
				if res.Certificate != nil {
					cr, err := res.Certificate.Check()
					if err != nil || !cr.Verified {
						t.Fatalf("%s: certificate rejected: %+v err=%v", mode.name, cr, err)
					}
				}
				if strings.HasPrefix(filepath.Base(path), "unsat") && res.Status != UNSAT {
					t.Fatalf("%s: status %v on an unsat instance", mode.name, res.Status)
				}
			}
		})
	}
}
