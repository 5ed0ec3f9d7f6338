package main

import (
	"bytes"
	"context"
	"fmt"
	"math/rand"
	"regexp"
	"runtime"
	"strconv"
	"time"

	"repro/internal/anf"
	"repro/internal/cnf"
	"repro/internal/conv"
	"repro/internal/core"
	"repro/internal/sat"
)

// The traced run measures each layer from outside the program:
//
//   - XL and ElimLin run through the loop's plug point (plugPhases), so
//     the job does the same work and prints the same digest.
//   - Propagation merges and SAT steps are bounded by timestamping the
//     loop's per-phase Config.Log lines.
//   - The deciding SAT step is replayed through conv.ANFToCNF and
//     sat.New / AddFormula / SolveLimited with that step's seed and
//     budget, on the job's output ANF (SAT) or on Certificate.Formula
//     (UNSAT); the replay's verdict must equal the job's, and
//     Solver.Snapshot supplies the sat.* counters.
//   - Allocation per layer call comes from runtime.ReadMemStats deltas.

// perLayer lists every per-layer metric with its unit; a traced run prints
// all of them, 0 where the workload bypasses the layer.
var perLayer = []struct{ name, unit string }{
	{"core.propagate.ms", "ms"}, {"core.propagate.facts", "count"},
	{"core.xl.ms", "ms"}, {"core.xl.calls", "count"}, {"core.xl.facts", "count"},
	{"core.xl.new", "count"}, {"core.xl.alloc_mb", "MB"},
	{"core.elimlin.ms", "ms"}, {"core.elimlin.calls", "count"}, {"core.elimlin.facts", "count"},
	{"core.elimlin.new", "count"}, {"core.elimlin.alloc_mb", "MB"},
	{"core.satstep.ms", "ms"}, {"core.satstep.calls", "count"}, {"core.satstep.new", "count"},
	{"core.iterations", "count"},
	{"conv.anf2cnf.ms", "ms"}, {"conv.anf2cnf.clauses", "count"}, {"conv.anf2cnf.xors", "count"},
	{"conv.cnf2anf.ms", "ms"},
	{"sat.solve.ms", "ms"}, {"sat.conflicts", "count"}, {"sat.decisions", "count"},
	{"sat.propagations", "count"}, {"sat.reduce_dbs", "count"}, {"sat.arena_gcs", "count"},
	{"sat.parity_clauses", "count"}, {"sat.xor_rows", "count"}, {"sat.alloc_mb", "MB"},
	{"proof.check.ms", "ms"}, {"proof.bytes", "bytes"}, {"proof.certified", "count"},
	{"proof.uncertified", "count"},
	{"anf.parse.ms", "ms"}, {"cnf.parse.ms", "ms"},
	{"server.hit.ms.p50", "ms"}, {"server.miss.ms.p50", "ms"}, {"server.overhead.ms.p50", "ms"},
	{"server.run.ms", "ms"}, {"server.cache_hits", "count"}, {"server.hit.engine_calls", "count"},
	{"server.rejected", "count"}, {"server.failed", "count"},
	{"trace.par2_s", "s"},
}

// tracer accumulates per-layer metrics over the jobs of a traced run.
type tracer struct {
	vals map[string]float64
	// jobMS is the summed traced job time, against which the layer
	// partition is checked.
	jobMS float64
}

func newTracer() *tracer { return &tracer{vals: map[string]float64{}} }

func (t *tracer) add(name string, v float64) { t.vals[name] += v }

func (t *tracer) metrics() map[string]metric {
	out := map[string]metric{}
	for _, m := range perLayer {
		out[m.name] = metric{Value: t.vals[m.name], Unit: m.unit}
	}
	return out
}

// partition is the set of spans that tile an engine job's time exactly.
var partition = []string{"conv.cnf2anf.ms", "core.propagate.ms", "core.xl.ms", "core.elimlin.ms", "core.satstep.ms", "proof.check.ms"}

// split prints each layer's share of the traced job time and checks that
// the partition adds up to it.
func (t *tracer) split() []string {
	sum := 0.0
	line := "split"
	for _, name := range partition {
		sum += t.vals[name]
		line += fmt.Sprintf(" %s=%.1f%%", name, 100*t.vals[name]/t.jobMS)
	}
	deciding := t.vals["conv.anf2cnf.ms"] + t.vals["sat.solve.ms"]
	return []string{
		line,
		fmt.Sprintf("layers sum %.1f ms of traced job time %.1f ms; deciding-step replay conv+sat %.1f ms (%.1f%% of job time)",
			sum, t.jobMS, deciding, 100*deciding/t.jobMS),
	}
}

// Event kinds on a job's timeline.
const (
	evTechStart = iota
	evTechEnd
	evLine
	evCNF2ANF
	evProcess
	evCheck
)

type event struct {
	at   time.Duration
	kind int
	tech string
	text string
}

// jobTrace is one traced job's timeline.
type jobTrace struct {
	tr     *tracer
	cfg    core.Config
	start  time.Time
	events []event
}

func (jt *jobTrace) mark(kind int) {
	if jt != nil {
		jt.events = append(jt.events, event{at: time.Since(jt.start), kind: kind})
	}
}

// stampWriter timestamps each Config.Log line (the loop writes one line
// per call) and keeps the text for the digest.
type stampWriter struct {
	jt   *jobTrace
	text *bytes.Buffer
}

func (w stampWriter) Write(p []byte) (int, error) {
	w.jt.events = append(w.jt.events, event{at: time.Since(w.jt.start), kind: evLine, text: string(p)})
	return w.text.Write(p)
}

// plugPhases moves XL and ElimLin to the loop's plug point: DisableXL and
// DisableElimLin, plus ExtraTechniques named "XL" and "ElimLin" that call
// core.RunXL / core.RunElimLin with the loop's rng and the configuration
// the loop would use. The loop runs them where it runs the built-in phases
// and logs them under the same names, so the work is unchanged. around
// wraps each call; prefix is the phase's metric prefix.
func plugPhases(cfg *core.Config, around func(prefix string, call func() []anf.Poly) []anf.Poly) {
	cfg.DisableXL, cfg.DisableElimLin = true, true
	m, dm, deg := cfg.M, cfg.DeltaM, cfg.XLDeg
	cfg.ExtraTechniques = []core.Technique{
		core.TechniqueFunc{TechName: "XL", Fn: func(ctx context.Context, sys *anf.System, rng *rand.Rand) []anf.Poly {
			return around("core.xl", func() []anf.Poly {
				return core.RunXL(sys, core.XLConfig{M: m, DeltaM: dm, Deg: deg, Context: ctx, Rand: rng})
			})
		}},
		core.TechniqueFunc{TechName: "ElimLin", Fn: func(ctx context.Context, sys *anf.System, rng *rand.Rand) []anf.Poly {
			return around("core.elimlin", func() []anf.Poly {
				return core.RunElimLin(sys, core.ElimLinConfig{M: m, Context: ctx, Rand: rng})
			})
		}},
	}
}

// begin rewires cfg for one traced job: XL and ElimLin get spans and
// allocation deltas, and the log is timestamped. The memory reads sit
// outside the spans, in the gaps the partition books to propagation, so
// they show up as tracing overhead rather than as layer time.
func (t *tracer) begin(cfg *core.Config, logText *bytes.Buffer) *jobTrace {
	jt := &jobTrace{tr: t}
	cfg.Log = stampWriter{jt: jt, text: logText}
	plugPhases(cfg, func(prefix string, call func() []anf.Poly) []anf.Poly {
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		jt.events = append(jt.events, event{at: time.Since(jt.start), kind: evTechStart, tech: prefix})
		facts := call()
		jt.events = append(jt.events, event{at: time.Since(jt.start), kind: evTechEnd, tech: prefix})
		runtime.ReadMemStats(&m1)
		t.add(prefix+".calls", 1)
		t.add(prefix+".facts", float64(len(facts)))
		t.add(prefix+".alloc_mb", float64(m1.TotalAlloc-m0.TotalAlloc)/(1<<20))
		return facts
	})
	jt.cfg = *cfg
	jt.start = time.Now()
	return jt
}

var (
	techLine = regexp.MustCompile(`^iter (\d+): (\S+) learnt (\d+) facts \((\d+) new\)`)
	satLine  = regexp.MustCompile(`^iter (\d+): SAT step \((\w+), (\d+) conflicts\) learnt (\d+) facts \((\d+) new\)`)
)

// finish books the job's timeline to the layers and replays its deciding
// SAT step.
func (jt *jobTrace) finish(res *core.Result) {
	t := jt.tr
	end := jt.events[len(jt.events)-1].at
	t.jobMS += ms(end)
	t.add("core.propagate.facts", float64(res.PropagationFacts))
	t.add("core.iterations", float64(res.Iterations))

	// Tile the timeline: each interval goes to the layer whose boundary
	// closes it.
	var prev time.Duration
	var lastLine string
	budget := jt.cfg.ConflictBudget
	var stepBudgets []int64 // budget of each logged SAT step
	satSteps := 0
	for _, e := range jt.events {
		d := ms(e.at - prev)
		prev = e.at
		switch e.kind {
		case evCNF2ANF:
			t.add("conv.cnf2anf.ms", d)
		case evTechStart:
			t.add("core.propagate.ms", d)
		case evTechEnd:
			t.add(e.tech+".ms", d)
		case evLine:
			lastLine = e.text
			if m := satLine.FindStringSubmatch(e.text); m != nil {
				t.add("core.satstep.ms", d)
				satSteps++
				stepBudgets = append(stepBudgets, budget)
				newFacts := atoi(m[5])
				t.add("core.satstep.new", float64(newFacts))
				if newFacts == 0 && budget < jt.cfg.ConflictBudgetMax {
					budget = min(budget+jt.cfg.ConflictBudgetStep, jt.cfg.ConflictBudgetMax)
				}
				continue
			}
			t.add("core.propagate.ms", d)
			if m := techLine.FindStringSubmatch(e.text); m != nil {
				switch m[2] {
				case "XL":
					t.add("core.xl.new", float64(atoi(m[4])))
				case "ElimLin":
					t.add("core.elimlin.new", float64(atoi(m[4])))
				}
			}
		case evProcess:
			// The stretch after the last log line: the deciding SAT step
			// when the loop stopped on a model, else the loop's exit.
			if res.Status == core.SolvedSAT && satLine.FindStringSubmatch(lastLine) == nil {
				t.add("core.satstep.ms", d)
				satSteps++
			} else {
				t.add("core.propagate.ms", d)
			}
		case evCheck:
			t.add("proof.check.ms", d)
		}
	}
	t.add("core.satstep.calls", float64(satSteps))

	switch {
	case res.Status == core.SolvedSAT:
		// The deciding step ran on the final output ANF in the last
		// iteration, after every logged step.
		jt.replay(nil, res.OutputANF(), int64(res.Iterations-1), budget, sat.Sat, -1)
	case res.Status == core.SolvedUNSAT && res.Certificate != nil:
		t.add("proof.bytes", float64(len(res.Certificate.Proof)))
		m := satLine.FindStringSubmatch(lastLine)
		if m == nil || len(stepBudgets) == 0 {
			panic("perfbench: certified UNSAT without a logged refuting SAT step")
		}
		jt.replay(res.Certificate.Formula, nil, int64(res.Certificate.Iteration), stepBudgets[len(stepBudgets)-1], sat.Unsat, int64(atoi(m[3])))
	}
}

// replay re-runs a SAT step exactly as core.RunSATStep ran it: same
// conversion options, solver profile, seed and conflict budget. It
// panics if the replay disagrees with the job, because then the sat.*
// counters would describe other work.
func (jt *jobTrace) replay(f *cnf.Formula, out *anf.System, iter, budget int64, want sat.Status, wantConflicts int64) {
	t := jt.tr
	if f == nil {
		opts := jt.cfg.Conv
		if !jt.cfg.NoNativeXor || jt.cfg.Profile == sat.ProfileCMS {
			opts.NativeXor = true
		}
		start := time.Now()
		f, _ = conv.ANFToCNF(out, opts)
		t.add("conv.anf2cnf.ms", msSince(start))
	}
	t.add("conv.anf2cnf.clauses", float64(len(f.Clauses)))
	t.add("conv.anf2cnf.xors", float64(len(f.Xors)))

	opts := sat.DefaultOptions(jt.cfg.Profile)
	if jt.cfg.NoNativeXor {
		opts.NativeXor = false
	}
	opts.RandomSeed = jt.cfg.Seed + iter + 1
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	start := time.Now()
	s := sat.New(opts)
	got := sat.Unsat
	if s.AddFormula(f) {
		got = s.SolveLimited(budget)
	}
	t.add("sat.solve.ms", msSince(start))
	runtime.ReadMemStats(&m1)
	t.add("sat.alloc_mb", float64(m1.TotalAlloc-m0.TotalAlloc)/(1<<20))
	st := s.Snapshot()
	if got != want || (wantConflicts >= 0 && int64(st.Conflicts) != wantConflicts) {
		panic(fmt.Sprintf("perfbench: SAT-step replay gave %v after %d conflicts, the job's step %v after %d",
			got, st.Conflicts, want, wantConflicts))
	}
	t.add("sat.conflicts", float64(st.Conflicts))
	t.add("sat.decisions", float64(st.Decisions))
	t.add("sat.propagations", float64(st.Propagations))
	t.add("sat.reduce_dbs", float64(st.ReducedDBs))
	t.add("sat.arena_gcs", float64(st.ArenaGCs))
	t.add("sat.parity_clauses", float64(st.ParityClauses))
	t.add("sat.xor_rows", float64(st.XorRows))
}

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }

func atoi(s string) int {
	n, _ := strconv.Atoi(s) // the regexps only match digits
	return n
}
