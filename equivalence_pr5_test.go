package bosphorus

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// Pipeline-level seed-vs-arena equivalence: the arena clause store inside
// internal/sat must leave the whole fact-learning pipeline bit-identical —
// same verdicts, same per-technique fact counts, same learnt-fact ledger —
// for every instance under examples/instances, at -j 0, 1 and 3: one loop
// at several learner fan-outs. The golden file was captured from the seed
// solver with
//
//	go test -run TestPipelineSeedEquivalence -update-pipeline-golden .
//
// check.sh runs this under -race, so the -j 3 runs also exercise the
// loop's concurrent learners.
//
// Deliberate regeneration (PR-10): examples/instances/unsat_parity.anf was
// added as the native-parity proof smoke, so the golden gained its record.
// The pre-existing records are byte-identical to the seed capture — XL
// refutes the new instance before the SAT step, so its ledger is
// arena/parity-independent anyway.

var updatePipelineGolden = flag.Bool("update-pipeline-golden", false,
	"rewrite testdata/pr5_pipeline_golden.json from the current engine")

type pipelineRecord struct {
	Instance     string `json:"instance"`
	Status       string `json:"status"`
	Solution     string `json:"solution,omitempty"`
	Iterations   int    `json:"iterations"`
	FactsXL      int    `json:"facts_xl"`
	FactsElimLin int    `json:"facts_elimlin"`
	FactsSAT     int    `json:"facts_sat"`
	FactsProp    int    `json:"facts_propagation"`
	// Ledger is the full learnt-fact ledger rendered as
	// "technique@iteration:poly" lines — the strongest equivalence witness
	// the pipeline exposes.
	Ledger []string `json:"ledger"`
}

func pipelineSummary(t *testing.T, path string, workers int) pipelineRecord {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	sys, err := ParseANF(strings.NewReader(string(data)))
	if err != nil {
		t.Fatal(err)
	}
	opts := DefaultOptions()
	opts.Provenance = true
	opts.Workers = workers
	res := Solve(sys, opts)
	rec := pipelineRecord{
		Instance:     filepath.Base(path),
		Status:       res.Status.String(),
		Iterations:   res.Iterations,
		FactsXL:      res.FactsXL,
		FactsElimLin: res.FactsElimLin,
		FactsSAT:     res.FactsSAT,
		FactsProp:    res.FactsPropagation,
	}
	if res.Status == SAT {
		buf := make([]byte, len(res.Solution))
		for i, b := range res.Solution {
			buf[i] = '0'
			if b {
				buf[i] = '1'
			}
		}
		rec.Solution = string(buf)
	}
	if res.Provenance == nil {
		t.Fatalf("%s: no ledger", path)
	}
	for _, f := range res.Provenance.Facts() {
		rec.Ledger = append(rec.Ledger,
			fmt.Sprintf("%s@%d:%s", f.Technique, f.Iteration, f.Poly.String()))
	}
	return rec
}

func TestPipelineSeedEquivalence(t *testing.T) {
	paths, err := filepath.Glob(filepath.Join("examples", "instances", "*.anf"))
	if err != nil {
		t.Fatal(err)
	}
	if len(paths) == 0 {
		t.Fatal("no example instances")
	}
	var got []pipelineRecord
	for _, path := range paths {
		base := pipelineSummary(t, path, 0)
		got = append(got, base)
		// The ledger must be invariant across the -j sweep.
		for _, workers := range []int{1, 3} {
			alt := pipelineSummary(t, path, workers)
			bj, _ := json.Marshal(base)
			aj, _ := json.Marshal(alt)
			if string(bj) != string(aj) {
				t.Errorf("%s: -j %d diverged from -j 0:\n-j0: %s\n-j%d: %s",
					path, workers, bj, workers, aj)
			}
		}
	}
	goldenPath := filepath.Join("testdata", "pr5_pipeline_golden.json")
	if *updatePipelineGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		data, err := json.MarshalIndent(got, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(goldenPath, append(data, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("pipeline golden rewritten: %d records", len(got))
		return
	}
	data, err := os.ReadFile(goldenPath)
	if err != nil {
		t.Fatalf("missing golden (%v); run with -update-pipeline-golden on the seed engine", err)
	}
	var want []pipelineRecord
	if err := json.Unmarshal(data, &want); err != nil {
		t.Fatal(err)
	}
	wj, _ := json.MarshalIndent(want, "", "  ")
	gj, _ := json.MarshalIndent(got, "", "  ")
	if string(wj) != string(gj) {
		t.Errorf("pipeline output diverged from the seed engine:\nseed:\n%s\nnow:\n%s", wj, gj)
	}
}
