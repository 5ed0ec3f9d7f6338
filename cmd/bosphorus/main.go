// Command bosphorus is the reproduction of the paper's tool: it reads a
// problem in ANF or CNF, runs the XL–ElimLin–SAT-solver fact-learning loop
// with ANF propagation to a fixed point, and writes a processed ANF and
// CNF augmented with the learnt facts. With -solve it keeps going until a
// verdict.
//
// Usage:
//
//	bosphorus -anf problem.anf -out-cnf out.cnf -out-anf out.anf
//	bosphorus -cnf problem.cnf -solve
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"runtime"
	"runtime/pprof"
	"syscall"
	"time"

	"repro/internal/anf"
	"repro/internal/cnf"
	"repro/internal/conv"
	"repro/internal/core"
	"repro/internal/minimize"
	"repro/internal/proof"
	"repro/internal/sat"
)

func main() {
	if err := run(os.Args[1:], os.Stdout, os.Stderr); err != nil {
		fmt.Fprintln(os.Stderr, "bosphorus:", err)
		os.Exit(1)
	}
}

func run(args []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("bosphorus", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		anfPath   = fs.String("anf", "", "input ANF file (one polynomial per line)")
		cnfPath   = fs.String("cnf", "", "input DIMACS CNF file")
		outANF    = fs.String("out-anf", "", "write the processed ANF here")
		outCNF    = fs.String("out-cnf", "", "write the processed CNF here")
		solve     = fs.Bool("solve", false, "keep solving until SAT/UNSAT instead of stopping at the fixed point")
		solver    = fs.String("solver", "cms", "internal SAT solver: minisat | lingeling | cms")
		m         = fs.Int("m", 20, "XL/ElimLin subsample size exponent M (linearized cells ≈ 2^M)")
		deltaM    = fs.Int("dm", 4, "XL expansion allowance δM")
		xlDeg     = fs.Int("d", 1, "XL multiplier degree D")
		karnaugh  = fs.Int("k", 8, fmt.Sprintf("Karnaugh parameter K (ANF→CNF), at most %d", minimize.MaxVars))
		cutLen    = fs.Int("l", 5, "XOR cutting length L (ANF→CNF)")
		clauseCut = fs.Int("lp", 5, "clause cutting length L′ (CNF→ANF)")
		budget    = fs.Int64("confl", 10000, "starting SAT conflict budget C")
		maxIters  = fs.Int("iters", 16, "maximum fact-learning iterations")
		timeLimit = fs.Duration("time", 0, "wall-clock budget for the loop (0 = none)")
		seed      = fs.Int64("seed", 1, "random seed")
		verbose   = fs.Bool("v", false, "log per-iteration progress")
		probe     = fs.Bool("probe", false, "enable failed-literal probing in the SAT step (§V lookahead)")
		routeFlag = fs.Bool("route", false, "classify the converted CNF and route tractable fragments (2SAT/Horn/XOR) to polynomial solvers before CDCL")
		groebner  = fs.Bool("groebner", false, "enable the budgeted Buchberger phase (§V)")
		workers   = fs.Int("j", 0, "fact learners run at once; 0 and 1 = one at a time. The result is identical for every value")
		enum      = fs.Int("enum", 0, "enumerate up to N solutions of the processed system over the original variables")
		proofOut  = fs.String("proof", "", "capture a DRAT proof from the refuting SAT step and write it here (the exact CNF it is against goes to <path>.cnf for proofcheck)")
		proofFmt  = fs.String("proof-format", "text", "proof encoding: text | bin")
		verify    = fs.Bool("verify-facts", false, "track fact provenance and independently re-derive every learnt fact against the input; nonzero exit if any fact fails")
		noXL      = fs.Bool("no-xl", false, "ablation: disable the XL phase")
		noElimLin = fs.Bool("no-elimlin", false, "ablation: disable the ElimLin phase")
		cpuProf   = fs.String("cpuprofile", "", "write a CPU profile of the run to this file (go tool pprof)")
		memProf   = fs.String("memprofile", "", "write a heap allocation profile at exit to this file (go tool pprof)")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if (*anfPath == "") == (*cnfPath == "") {
		return fmt.Errorf("exactly one of -anf or -cnf is required")
	}
	if *karnaugh > minimize.MaxVars {
		return fmt.Errorf("-k %d exceeds the logic minimizer's limit of %d variables", *karnaugh, minimize.MaxVars)
	}

	if *cpuProf != "" {
		f, err := os.Create(*cpuProf)
		if err != nil {
			return err
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			f.Close()
			return err
		}
		defer func() {
			pprof.StopCPUProfile()
			f.Close()
		}()
	}
	if *memProf != "" {
		path := *memProf
		defer func() {
			f, err := os.Create(path)
			if err != nil {
				fmt.Fprintln(stderr, "bosphorus: memprofile:", err)
				return
			}
			defer f.Close()
			runtime.GC() // settle allocations so the heap profile reflects live data
			if err := pprof.WriteHeapProfile(f); err != nil {
				fmt.Fprintln(stderr, "bosphorus: memprofile:", err)
			}
		}()
	}

	cfg := core.DefaultConfig()
	cfg.M = *m
	cfg.DeltaM = *deltaM
	cfg.XLDeg = *xlDeg
	cfg.Conv = conv.Options{CutLen: *cutLen, KarnaughK: *karnaugh, ClauseCutLen: *clauseCut}
	cfg.ConflictBudget = *budget
	cfg.MaxIterations = *maxIters
	cfg.TimeBudget = *timeLimit
	cfg.Seed = *seed
	cfg.StopOnSolution = *solve
	cfg.EnableProbing = *probe
	cfg.Route = *routeFlag
	cfg.EnableGroebner = *groebner
	cfg.Workers = *workers
	cfg.DisableXL = *noXL
	cfg.DisableElimLin = *noElimLin
	cfg.Provenance = *verify
	cfg.EmitProof = *proofOut != ""
	switch *proofFmt {
	case "text":
	case "bin":
		cfg.ProofBinary = true
	default:
		return fmt.Errorf("unknown proof format %q", *proofFmt)
	}
	if *verbose {
		cfg.Log = stderr
	}
	switch *solver {
	case "minisat":
		cfg.Profile = sat.ProfileMiniSat
	case "lingeling":
		cfg.Profile = sat.ProfileLingeling
	case "cms":
		cfg.Profile = sat.ProfileCMS
	default:
		return fmt.Errorf("unknown solver %q", *solver)
	}

	var sys *anf.System
	var origCNF *cnf.Formula
	if *anfPath != "" {
		f, err := os.Open(*anfPath)
		if err != nil {
			return err
		}
		defer f.Close()
		sys, err = anf.ReadSystem(f)
		if err != nil {
			return err
		}
	} else {
		f, err := os.Open(*cnfPath)
		if err != nil {
			return err
		}
		defer f.Close()
		origCNF, err = cnf.ReadDimacs(f)
		if err != nil {
			return err
		}
		sys = conv.CNFToANF(origCNF, cfg.Conv)
	}

	// Ctrl-C / SIGTERM cancels the run cooperatively: the loop stops at
	// the next poll point and the outputs below still carry every fact
	// learnt up to that moment.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	cfg.Context = ctx

	start := time.Now()
	res := core.Process(sys, cfg)
	if res.Interrupted {
		fmt.Fprintln(stdout, "c interrupted: partial results follow")
	}
	fmt.Fprintf(stdout, "c bosphorus: %s\n", res.Summary())
	if res.RoutedVia != "" {
		fmt.Fprintf(stdout, "c routed via %s (%.3fms)\n", res.RoutedVia, float64(res.RouteNs)/1e6)
	}

	switch res.Status {
	case core.SolvedUNSAT:
		fmt.Fprintln(stdout, "s UNSATISFIABLE")
	case core.SolvedSAT:
		fmt.Fprintln(stdout, "s SATISFIABLE")
		fmt.Fprint(stdout, "v")
		for v, b := range res.Solution {
			if v >= sys.NumVars() {
				break
			}
			d := v + 1
			if !b {
				d = -d
			}
			fmt.Fprintf(stdout, " %d", d)
		}
		fmt.Fprintln(stdout, " 0")
	default:
		fmt.Fprintf(stdout, "c processed to fixed point (%v total)\n", time.Since(start))
	}

	if *proofOut != "" {
		if res.Certificate == nil {
			fmt.Fprintln(stdout, "c no proof captured (refutation did not come from the SAT solver)")
		} else {
			if err := os.WriteFile(*proofOut, res.Certificate.Proof, 0o644); err != nil {
				return err
			}
			cf, err := os.Create(*proofOut + ".cnf")
			if err != nil {
				return err
			}
			if err := cnf.WriteDimacs(cf, res.Certificate.Formula); err != nil {
				cf.Close()
				return err
			}
			if err := cf.Close(); err != nil {
				return err
			}
			fmt.Fprintf(stdout, "c proof: %d bytes to %s (formula: %s.cnf)\n",
				len(res.Certificate.Proof), *proofOut, *proofOut)
		}
	}

	if *verify {
		report := proof.VerifyFacts(sys, res.Provenance, proof.VerifyOptions{
			Seed: *seed, Context: ctx, Conv: cfg.Conv, Profile: cfg.Profile,
		})
		fmt.Fprintf(stdout, "c verify: %s\n", report.Summary())
		for _, v := range report.Verdicts {
			if !v.Verdict.Verified() {
				fmt.Fprintf(stdout, "c verify: fact %d (%s, iter %d): %v — %s\n",
					v.ID, v.Technique, v.Iteration, v.Verdict, v.Detail)
			}
		}
		if !report.AllVerified() {
			return fmt.Errorf("fact verification failed: %s", report.Summary())
		}
	}

	if *enum > 0 && res.Status != core.SolvedUNSAT {
		// §V: the processed system constrains the solution space without
		// committing to one solution — enumerate what remains.
		out, _ := res.OutputCNF(cfg.Conv)
		s := sat.New(sat.DefaultOptions(cfg.Profile))
		s.SetInterrupt(ctx)
		if s.AddFormula(out) {
			models := s.EnumerateModels(sys.NumVars(), *enum)
			fmt.Fprintf(stdout, "c %d solution(s) over the original variables (cap %d):\n", len(models), *enum)
			for _, m := range models {
				fmt.Fprint(stdout, "v")
				for v, b := range m {
					d := v + 1
					if !b {
						d = -d
					}
					fmt.Fprintf(stdout, " %d", d)
				}
				fmt.Fprintln(stdout, " 0")
			}
		} else {
			fmt.Fprintln(stdout, "c 0 solutions (processed CNF unsatisfiable)")
		}
	}

	if *outANF != "" {
		f, err := os.Create(*outANF)
		if err != nil {
			return err
		}
		defer f.Close()
		if err := anf.WriteSystem(f, res.OutputANF()); err != nil {
			return err
		}
	}
	if *outCNF != "" {
		out, _ := res.OutputCNF(cfg.Conv)
		if origCNF != nil {
			// The CNF-preprocessor use-case (§III-D): the processed CNF
			// from the internal ANF is suboptimal on its own, so return
			// the original clauses plus the learnt facts.
			merged := origCNF.Clone()
			for _, c := range out.Clauses {
				inRange := true
				for _, l := range c {
					if int(l.Var()) >= origCNF.NumVars {
						inRange = false
						break
					}
				}
				if inRange && len(c) <= 2 {
					merged.AddClause(c...)
				}
			}
			out = merged
		}
		f, err := os.Create(*outCNF)
		if err != nil {
			return err
		}
		defer f.Close()
		if err := cnf.WriteDimacs(f, out); err != nil {
			return err
		}
	}
	return nil
}
