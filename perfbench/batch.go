package main

import (
	"bytes"
	"crypto/sha256"
	"fmt"
	"math/rand"
	"strings"
	"time"

	"repro/internal/anf"
	bitcoin "repro/internal/ciphers/sha256"
	"repro/internal/ciphers/simon"
	"repro/internal/cnf"
	"repro/internal/conv"
	"repro/internal/core"
	"repro/internal/proof"
	"repro/internal/satgen"
)

// Nominal per-job cost of each batch workload on the reference host (a
// 2-vCPU x86-64 VM), measured in job processes. It only sizes the fixed
// job set from --seconds: the job count is a pure function of the
// arguments, so every run with the same arguments does the same work
// however fast the host is.
const (
	simonJobMS   = 200
	bitcoinJobMS = 230
	cnfJobMS     = 50
)

// engineJob is one core.Process job, held as the text the program reads:
// ANF, or DIMACS for CNF jobs, which go through conv.CNFToANF and emit a
// proof. Its fields are exported because it is sent to the job's process
// (see child.go).
type engineJob struct {
	Name  string
	Class string
	Text  []byte
	CNF   bool
	Truth satgen.Status
}

// input is a job's parsed input.
type input struct {
	sys  *anf.System
	form *cnf.Formula
}

func (j engineJob) parse() (input, error) {
	if j.CNF {
		f, err := cnf.ReadDimacs(bytes.NewReader(j.Text))
		return input{form: f}, err
	}
	sys, err := anf.ReadSystem(bytes.NewReader(j.Text))
	return input{sys: sys}, err
}

// batch is a set-up batch workload. It holds the inputs as text, and runs
// each job in a process of its own (see child.go), as Table II runs one
// bosphorus process per instance.
type batch struct {
	jobs       []engineJob
	passes     int // times the job list runs; jobs are deterministic, so each pass does the same work
	parseANFMS float64
	parseCNFMS float64
}

func jobCount(seconds, nominalMS int) int {
	n := seconds * 1000 / nominalMS
	if n < 2*minBeyond {
		n = 2 * minBeyond
	}
	return n
}

// subRNG derives the independent generator of instance i from the
// workload seed, so instance i is the same whatever the job count.
func subRNG(seed int64, i int) *rand.Rand {
	return rand.New(rand.NewSource(seed*1_000_003 + int64(i)*7919 + 17))
}

// add parses a serialized input back through the public reader, which
// both checks it and books the reader's cost to the set-up.
func (b *batch) add(j engineJob) error {
	start := time.Now()
	_, err := j.parse()
	if j.CNF {
		b.parseCNFMS += msSince(start)
	} else {
		b.parseANFMS += msSince(start)
	}
	if err != nil {
		return fmt.Errorf("%s: %w", j.Name, err)
	}
	b.jobs = append(b.jobs, j)
	return nil
}

func (b *batch) addANF(name, class string, sys *anf.System) error {
	var text bytes.Buffer
	if err := anf.WriteSystem(&text, sys); err != nil {
		return err
	}
	return b.add(engineJob{Name: name, Class: class, Text: text.Bytes(), Truth: satgen.StatusSat})
}

func (b *batch) addCNF(inst *satgen.Instance, class string) error {
	var text bytes.Buffer
	if err := cnf.WriteDimacs(&text, inst.Formula); err != nil {
		return err
	}
	return b.add(engineJob{Name: inst.Name, Class: class, Text: text.Bytes(), CNF: true, Truth: inst.Status})
}

// warmUp runs the first job of every class once, untimed, through the
// job process the timed jobs use. What a job process does once per
// process it does in every job, as a bosphorus process would; what the
// host does once (paging in the binary, warming the exec path) lands in
// setup_s instead of in job 1.
func (b *batch) warmUp() error {
	seen := map[string]bool{}
	for _, j := range b.jobs {
		if seen[j.Class] {
			continue
		}
		seen[j.Class] = true
		if out := runJobProcess(j, nil); !out.Solved {
			return fmt.Errorf("warm-up job %s: %s", j.Name, out.Status)
		}
	}
	return nil
}

// setupSimon: Simon-[8,8] key recovery, satisfiable by construction.
func setupSimon(seed int64, seconds int, _ bool) (runner, error) {
	b := &batch{passes: 1}
	for i := 0; i < jobCount(seconds, simonJobMS); i++ {
		inst := simon.GenerateInstance(simon.Params{NPlaintexts: 8, Rounds: 8}, subRNG(seed, i))
		if err := b.addANF(fmt.Sprintf("simon-8-8-%03d", i), "simon", inst.Sys); err != nil {
			return nil, err
		}
	}
	return b, b.warmUp()
}

// setupBitcoin: Bitcoin-[6] nonce finding at 16 SHA-256 rounds,
// satisfiable by construction. k = 6 rather than 8: the SAT step still
// takes the largest share (conversion + CDCL ≈ 45 %), and per-job times
// stay within about 2x of each other instead of 7x, so a run's sum does
// not hinge on which few instances a seed draws. Generating and parsing
// an instance costs half a job, so the run solves each instance in three
// passes instead of generating three times as many.
func setupBitcoin(seed int64, seconds int, _ bool) (runner, error) {
	b := &batch{passes: 3}
	for i := 0; i < jobCount(seconds, b.passes*bitcoinJobMS); i++ {
		inst := bitcoin.GenerateBitcoin(bitcoin.BitcoinParams{K: 6, Rounds: 16}, subRNG(seed, i))
		if err := b.addANF(fmt.Sprintf("bitcoin-6-r16-%03d", i), "bitcoin", inst.Sys); err != nil {
			return nil, err
		}
	}
	return b, b.warmUp()
}

// cnfFamilies is the cnf-unsat-proof job cycle: crafted families whose
// UNSAT status the generator knows, over-constrained random 3-SAT whose
// status only the certificate settles, and LFSR-unsat, which the algebra
// refutes without a SAT step. Job i uses family i mod len. The LFSR has 10
// bits: its random taps set the XOR width, and at 12 bits the widest draws
// cost 50x the median job and 200 MB of allocation, so one seed's run
// would hinge on how many of them it drew.
var cnfFamilies = []struct {
	class string
	gen   func(rng *rand.Rand, i int) *satgen.Instance
}{
	{"php", func(rng *rand.Rand, i int) *satgen.Instance {
		h := 5 + i%3 // 5, 6, 7 holes
		return relabel(satgen.Pigeonhole(h+1, h), rng)
	}},
	{"chessboard", func(rng *rand.Rand, i int) *satgen.Instance {
		return relabel(satgen.MutilatedChessboard(6+i%3), rng) // 6, 7, 8
	}},
	{"rand3sat", func(rng *rand.Rand, i int) *satgen.Instance {
		return satgen.RandomKSAT(60, 3, 7.0, rng)
	}},
	{"lfsr", func(rng *rand.Rand, i int) *satgen.Instance {
		return satgen.LFSRReach(10, 12, true, rng)
	}},
}

// relabel applies a seeded variable permutation and clause shuffle, so a
// deterministic family still gets fresh inputs from every seed. Polarity
// is kept: flipping it would change how CNFToANF splits clauses.
func relabel(inst *satgen.Instance, rng *rand.Rand) *satgen.Instance {
	f := inst.Formula
	perm := rng.Perm(f.NumVars)
	out := cnf.NewFormula(f.NumVars)
	for _, ci := range rng.Perm(len(f.Clauses)) {
		c := f.Clauses[ci]
		lits := make([]cnf.Lit, len(c))
		for k, l := range c {
			lits[k] = cnf.MkLit(cnf.Var(perm[l.Var()]), l.Neg())
		}
		out.AddClause(lits...)
	}
	for _, x := range f.Xors {
		vars := make([]cnf.Var, len(x.Vars))
		for k, v := range x.Vars {
			vars[k] = cnf.Var(perm[v])
		}
		out.AddXor(x.RHS, vars...)
	}
	return &satgen.Instance{Name: inst.Name, Formula: out, Status: inst.Status}
}

// setupCNFProof: the paper's §III-D CNF use with proof logging.
func setupCNFProof(seed int64, seconds int, _ bool) (runner, error) {
	b := &batch{passes: 1}
	for i := 0; i < jobCount(seconds, cnfJobMS); i++ {
		fam := cnfFamilies[i%len(cnfFamilies)]
		inst := fam.gen(subRNG(seed, i), i/len(cnfFamilies))
		inst.Name = fmt.Sprintf("%s-%03d", inst.Name, i)
		if err := b.addCNF(inst, fam.class); err != nil {
			return nil, err
		}
	}
	return b, b.warmUp()
}

func (b *batch) close() {}

// verdict is one engine job's checked outcome. Its fields are exported
// because the job's process sends it back.
type verdict struct {
	Seconds     float64
	Status      string
	Solved      bool // verdict verified
	Wrong       bool // verdict contradicted by a check
	Certified   bool // UNSAT with a certificate proof.Check accepted
	Uncertified bool // UNSAT without a certificate, held against ground truth
	Record      string
}

func (b *batch) run(traced bool) (*report, error) {
	rep := &report{}
	var tr *tracer
	if traced {
		tr = newTracer()
		tr.add("anf.parse.ms", b.parseANFMS)
		tr.add("cnf.parse.ms", b.parseCNFMS)
	}
	h := sha256.New()
	uncert, cert := 0, 0
	for pass := 0; pass < b.passes; pass++ {
		for _, j := range b.jobs {
			out := runJobProcess(j, tr)
			rep.jobRSS = append(rep.jobRSS, out.PeakRSSMB)
			rep.jobs = append(rep.jobs, jobOutcome{seconds: out.Seconds, solved: out.Solved})
			rep.timedS += out.Seconds
			if !out.Solved {
				rep.failed++
				rep.notes = append(rep.notes, fmt.Sprintf("FAILED job %s: %s", j.Name, out.Status))
			}
			if out.Wrong {
				rep.wrong++
			}
			if out.Certified {
				cert++
			}
			if out.Uncertified {
				uncert++
			}
			h.Write([]byte(out.Record))
		}
	}
	rep.digest = fmt.Sprintf("%x", h.Sum(nil))[:16]
	rep.notes = append(rep.notes, fmt.Sprintf("unsat certified %d uncertified %d", cert, uncert))
	if traced {
		tr.add("proof.certified", float64(cert))
		tr.add("proof.uncertified", float64(uncert))
		tr.add("trace.par2_s", par2(rep.jobs))
		rep.metrics = tr.metrics()
		rep.notes = append(rep.notes, tr.split()...)
	}
	return rep, nil
}

// runEngineJob runs one job through the default configuration and checks
// its verdict against in, the input the program received. The job's time
// is the CPU time its process spends on what the program does for it (see
// child.go): for CNF jobs the conversion, core.Process and the proof
// check. With a tracer the same job runs through the loop's plug point
// instead (see trace.go).
func runEngineJob(j engineJob, in input, tr *tracer) verdict {
	cfg := core.DefaultConfig()
	var jt *jobTrace
	var logText bytes.Buffer
	if tr != nil {
		jt = tr.begin(&cfg, &logText)
	} else {
		cfg.Log = &logText
	}
	cfg.EmitProof = j.CNF

	start := cpuSeconds()
	sys := in.sys
	if j.CNF {
		sys = conv.CNFToANF(in.form, conv.DefaultOptions())
		jt.mark(evCNF2ANF)
	}
	res := core.Process(sys, cfg)
	jt.mark(evProcess)
	var chk *proof.CheckResult
	var chkErr error
	if res.Status == core.SolvedUNSAT && res.Certificate != nil {
		chk, chkErr = res.Certificate.Check()
		jt.mark(evCheck)
	}
	v := verdict{Seconds: cpuSeconds() - start, Status: res.Status.String()}

	switch res.Status {
	case core.SolvedSAT:
		ok := false
		if j.CNF {
			sol := res.Solution
			ok = in.form.Eval(func(x cnf.Var) bool { return int(x) < len(sol) && sol[x] })
		} else {
			ok = core.VerifySolution(in.sys, res.Solution)
		}
		v.Solved = ok && j.Truth != satgen.StatusUnsat
		v.Wrong = !v.Solved
		if !ok {
			v.Status = "SAT with a model that fails the input"
		}
	case core.SolvedUNSAT:
		switch {
		case j.Truth == satgen.StatusSat:
			v.Wrong, v.Status = true, "UNSAT on a satisfiable instance"
		case res.Certificate != nil:
			v.Certified = chkErr == nil && chk.Verified
			v.Solved = v.Certified
			v.Wrong = !v.Certified
			if !v.Certified {
				v.Status = fmt.Sprintf("UNSAT with a rejected certificate (%v)", chkErr)
			}
		default:
			v.Uncertified = true
			v.Solved = j.Truth == satgen.StatusUnsat
			if !v.Solved {
				v.Status = "UNSAT without a certificate or ground truth"
			}
		}
	}

	var proofLen int
	if res.Certificate != nil {
		proofLen = len(res.Certificate.Proof)
	}
	v.Record = fmt.Sprintf("%s|%s|it=%d|prop=%d|proof=%d|sol=%s\n%s",
		j.Name, res.Status, res.Iterations, res.PropagationFacts, proofLen, boolsKey(res.Solution), logText.String())
	if jt != nil {
		jt.finish(res)
	}
	return v
}

func boolsKey(bs []bool) string {
	var sb strings.Builder
	for _, b := range bs {
		if b {
			sb.WriteByte('1')
		} else {
			sb.WriteByte('0')
		}
	}
	return sb.String()
}

func msSince(t time.Time) float64 {
	return float64(time.Since(t).Nanoseconds()) / 1e6
}
