// Command benchtab regenerates the paper's tables and figures:
//
//	benchtab -table 2            # Table II: the PAR-2 solver matrix
//	benchtab -table 2 -hard      # Table II's second SAT-2017 block (hard subset)
//	benchtab -table 1            # Table I: the worked XL example
//	benchtab -table fig2         # Fig. 2/3: Karnaugh vs Tseitin clause counts
//
// Table II runs every benchmark family against MiniSat-, Lingeling- and
// CryptoMiniSat-profile solvers, with and without the Bosphorus
// fact-learning loop, and prints PAR-2 scores with solved counts in the
// paper's row format. Sizes and timeouts are scaled for a single machine;
// -scale paper selects the paper's cipher parameters instead.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math/rand"
	"os"
	"runtime"
	"sort"
	"time"

	"repro/internal/anf"
	"repro/internal/bench"
	"repro/internal/ciphers/sr"
	"repro/internal/cnf"
	"repro/internal/conv"
	"repro/internal/core"
	"repro/internal/gf2"
	"repro/internal/route"
	"repro/internal/sat"
	"repro/internal/satgen"
)

func main() {
	if err := run(os.Args[1:], os.Stdout, os.Stderr); err != nil {
		fmt.Fprintln(os.Stderr, "benchtab:", err)
		os.Exit(1)
	}
}

func run(args []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("benchtab", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		table   = fs.String("table", "2", "what to regenerate: 1 | 2 | fig2")
		scale   = fs.String("scale", "quick", "instance scale: quick | paper")
		count   = fs.Int("count", 3, "instances per family")
		timeout = fs.Duration("timeout", 3*time.Second, "per-instance timeout (the paper used 5000 s)")
		seed    = fs.Int64("seed", 1, "random seed")
		hard    = fs.Bool("hard", false, "also evaluate the SAT-2017 hard subset (Table II's second block)")
		cactus  = fs.String("cactus", "", "with -table 2: also write a cactus-plot CSV (w vs w/o per solver) to this file")
		perf    = fs.String("perf", "", "write a JSON snapshot of the linearization/elimination kernel timings to this file and exit")
		quick   = fs.Bool("quick", false, "with -perf: tiny sizes and few rounds (CI smoke, numbers not comparable)")
		compare = fs.Bool("compare", false, "compare two perf snapshots: benchtab -compare old.json new.json")
		gate    = fs.Float64("gate", 0.10, "with -compare: exit non-zero when any metric regresses by more than this fraction (negative disables)")
		verbose = fs.Bool("v", false, "log each cell as it completes")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}

	if *compare {
		if fs.NArg() != 2 {
			return fmt.Errorf("-compare needs exactly two snapshot paths, got %d", fs.NArg())
		}
		return compareSnapshots(fs.Arg(0), fs.Arg(1), *gate, stdout)
	}
	if *perf != "" {
		return perfSnapshot(*perf, *seed, *quick, stderr)
	}

	switch *table {
	case "1":
		return tableI(stdout)
	case "fig2":
		return fig2(stdout)
	case "2":
		sc := bench.Quick
		if *scale == "paper" {
			sc = bench.Paper
		}
		cfg := bench.DefaultConfig()
		cfg.Timeout = *timeout
		cfg.Seed = *seed
		fams := bench.Families(sc, *count, *seed)
		if *hard {
			for _, f := range fams {
				if f.Name == "SAT-2017" {
					fmt.Fprintln(stderr, "selecting the hard SAT-2017 subset (MiniSat-runtime proxy, as in §IV)...")
					fams = append(fams, bench.HardSubset(f, cfg, 0.5))
				}
			}
		}
		var log io.Writer
		if *verbose {
			log = stderr
		}
		tab := bench.RunTableII(fams, cfg, log)
		fmt.Fprint(stdout, tab.Format())
		if *cactus != "" {
			var jobs []bench.Job
			for _, f := range fams {
				jobs = append(jobs, f.Jobs...)
			}
			configs := map[string]bench.Config{}
			for _, prof := range bench.Profiles {
				for _, useB := range []bool{false, true} {
					c := cfg
					c.Profile = prof
					c.UseBosphorus = useB
					name := prof.String() + "-wo"
					if useB {
						name = prof.String() + "-w"
					}
					configs[name] = c
				}
			}
			series := bench.RunCactus(jobs, configs)
			f, err := os.Create(*cactus)
			if err != nil {
				return err
			}
			defer f.Close()
			if err := bench.WriteCactusCSV(f, series); err != nil {
				return err
			}
			fmt.Fprintf(stderr, "cactus CSV written to %s\n", *cactus)
		}
		return nil
	default:
		return fmt.Errorf("unknown table %q", *table)
	}
}

// perfMeasurement is one kernel timing plus the GOMAXPROCS in effect
// while it ran. Every kernel runs on one goroutine; the "workers" field
// of the frozen snapshots is ignored on read.
type perfMeasurement struct {
	Ns         int64 `json:"ns"`
	GOMAXPROCS int   `json:"gomaxprocs"`
}

// perfBlob is the snapshot schema. "medians_ns" is kept for compatibility
// with the frozen baselines (BENCH_pr1.json has only that section;
// BENCH_pr5.json adds "cdcl") so -compare works uniformly across
// generations; "measurements" carries the same timings with per-entry
// context.
type perfBlob struct {
	Date         string                           `json:"date"`
	GOOS         string                           `json:"goos"`
	GOARCH       string                           `json:"goarch"`
	GOMAXPROCS   int                              `json:"gomaxprocs"`
	Seed         int64                            `json:"seed"`
	Quick        bool                             `json:"quick,omitempty"`
	Medians      map[string]int64                 `json:"medians_ns"`
	Measurements map[string]perfMeasurement       `json:"measurements,omitempty"`
	CDCL         map[string]bench.CDCLMeasurement `json:"cdcl,omitempty"`
	// Cube is the cube-and-conquer scaling family (since BENCH_pr7.json):
	// direct vs 1/2/4-worker cube wall-clock medians per hard instance.
	Cube map[string]bench.CubeScalingMeasurement `json:"cube,omitempty"`
	// Fragment is the tractable-fragment routing family (since
	// BENCH_pr8.json): routed (classifier + polynomial solver) vs full
	// CDCL ns/op per instance, with the speedup ratio.
	Fragment map[string]bench.FragmentMeasurement `json:"fragment,omitempty"`
	// Parity is the native-parity family (since BENCH_pr10.json): the
	// packed parity clause kind vs the 2^(k-1) clausal cut, ns/op per
	// instance, with the cut/native speedup ratio.
	Parity map[string]bench.ParityMeasurement `json:"parity,omitempty"`
}

// perfSnapshot times the hot kernels this reproduction optimizes — the XL
// linearization pass, the ElimLin rounds loop, the M4R elimination, and
// (since PR 5) the CDCL solver's propagation-heavy and
// conflict-analysis-heavy benchmark families — and writes the medians
// as JSON, so successive PRs can diff like against like (see
// BENCH_pr1.json, BENCH_pr5.json). The CDCL entries carry allocs/op and
// bytes/op alongside ns/op: the arena clause store's target is both.
//
// The rref entries clone a pre-generated matrix outside the timed region.
// Snapshots up to BENCH_pr5.json timed matrix *generation* (n² rand.Intn
// calls, ~14 ms at n=1024) together with the elimination, burying the
// kernel being tracked; those frozen numbers are therefore comparable to
// each other but not to snapshots produced by this version (see
// EXPERIMENTS.md for the decomposition).
//
// quick shrinks everything (tiny matrix, short CDCL chain, fewer rounds)
// so CI can assert the harness runs end to end; quick numbers are marked
// in the blob and are not comparable to full runs.
func perfSnapshot(path string, seed int64, quick bool, stderr io.Writer) error {
	runs, matN, cdclRounds := 5, 1024, 5
	if quick {
		runs, matN, cdclRounds = 2, 128, 1
	}
	median := func(f func()) int64 {
		times := make([]int64, runs)
		for i := range times {
			t0 := time.Now()
			f()
			times[i] = time.Since(t0).Nanoseconds()
		}
		sort.Slice(times, func(i, j int) bool { return times[i] < times[j] })
		return times[runs/2]
	}
	srSys := sr.GenerateInstance(sr.Params{N: 1, R: 2, C: 2, E: 4},
		rand.New(rand.NewSource(7))).Sys
	randMatrix := func(n int, src int64) *gf2.Matrix {
		rng := rand.New(rand.NewSource(src))
		m := gf2.NewMatrix(n, n)
		for r := 0; r < n; r++ {
			for c := 0; c < n; c++ {
				if rng.Intn(2) == 1 {
					m.Set(r, c, true)
				}
			}
		}
		return m
	}
	maxprocs := runtime.GOMAXPROCS(0)
	base := randMatrix(matN, seed)
	medianRREF := func() int64 {
		times := make([]int64, runs)
		for i := range times {
			m := base.Clone()
			t0 := time.Now()
			m.RREFM4R()
			times[i] = time.Since(t0).Nanoseconds()
		}
		sort.Slice(times, func(i, j int) bool { return times[i] < times[j] })
		return times[runs/2]
	}
	measurements := map[string]perfMeasurement{
		"xl_sr_ns": {Ns: median(func() {
			core.RunXL(srSys, core.XLConfig{M: 20, DeltaM: 4, Deg: 1,
				Rand: rand.New(rand.NewSource(seed))})
		}), GOMAXPROCS: maxprocs},
		"elimlin_sr_ns": {Ns: median(func() {
			core.RunElimLin(srSys, core.ElimLinConfig{M: 20,
				Rand: rand.New(rand.NewSource(seed))})
		}), GOMAXPROCS: maxprocs},
	}
	// The key names the matrix size so a -quick snapshot (n=128) can never
	// masquerade as a full one; at the default n=1024 the key matches the
	// frozen baselines.
	measurements[fmt.Sprintf("rref_m4r_%d_w1_ns", matN)] =
		perfMeasurement{Ns: medianRREF(), GOMAXPROCS: maxprocs}
	results := make(map[string]int64, len(measurements))
	for k, m := range measurements {
		results[k] = m.Ns
	}
	cdcl := map[string]bench.CDCLMeasurement{}
	if quick {
		for name, m := range bench.MeasureCDCL(quickCDCLJobs(), sat.ProfileMiniSat, cdclRounds) {
			cdcl["cdcl_quick_"+name] = m
		}
	} else {
		for fam, jobs := range map[string][]bench.CDCLJob{
			"propagation": bench.CDCLPropagationJobs(),
			"conflict":    bench.CDCLConflictJobs(),
		} {
			for name, m := range bench.MeasureCDCL(jobs, sat.ProfileMiniSat, cdclRounds) {
				cdcl["cdcl_"+fam+"_"+name] = m
			}
		}
	}
	var cubeRes map[string]bench.CubeScalingMeasurement
	if quick {
		cubeRes = bench.MeasureCubeScaling(quickCubeJobs(), []int{1, 2}, 1)
	} else {
		cubeRes = bench.MeasureCubeScaling(bench.CubeScalingJobs(), []int{1, 2, 4}, cdclRounds)
	}
	cubeSec := make(map[string]bench.CubeScalingMeasurement, len(cubeRes))
	for name, m := range cubeRes {
		key := "cube_" + name
		if quick {
			key = "cube_quick_" + name
		}
		cubeSec[key] = m
		// Flatten the wall-clocks into medians_ns so -compare lists them
		// alongside the kernel timings once two snapshots carry them.
		results[key+"_direct_ns"] = m.DirectNs
		for w, ns := range m.CubeNs {
			results[key+"_w"+w+"_ns"] = ns
		}
	}
	fragJobs, fragPrefix := bench.FragmentJobs(), "fragment_"
	if quick {
		fragJobs, fragPrefix = quickFragmentJobs(), "fragment_quick_"
	}
	fragSec := make(map[string]bench.FragmentMeasurement, len(fragJobs))
	for name, m := range bench.MeasureFragment(fragJobs, sat.ProfileCMS, cdclRounds) {
		key := fragPrefix + name
		fragSec[key] = m
		// Flatten both columns into medians_ns so -compare gates them
		// alongside the kernel timings.
		results[key+"_routed_ns"] = m.RoutedNsPerOp
		results[key+"_cdcl_ns"] = m.CDCLNsPerOp
	}
	parityJobs, parityPrefix := bench.ParityJobs(), "parity_"
	if quick {
		parityJobs, parityPrefix = quickParityJobs(), "parity_quick_"
	}
	paritySec := make(map[string]bench.ParityMeasurement, len(parityJobs))
	for name, m := range bench.MeasureParity(parityJobs, sat.ProfileMiniSat, cdclRounds) {
		key := parityPrefix + name
		paritySec[key] = m
		// Flatten both arms into medians_ns so -compare gates them
		// alongside the kernel timings.
		results[key+"_native_ns"] = m.NativeNsPerOp
		results[key+"_cut_ns"] = m.CutNsPerOp
	}
	blob := perfBlob{
		Date:         time.Now().UTC().Format(time.RFC3339),
		GOOS:         runtime.GOOS,
		GOARCH:       runtime.GOARCH,
		GOMAXPROCS:   maxprocs,
		Seed:         seed,
		Quick:        quick,
		Medians:      results,
		Measurements: measurements,
		CDCL:         cdcl,
		Cube:         cubeSec,
		Fragment:     fragSec,
		Parity:       paritySec,
	}
	data, err := json.MarshalIndent(blob, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
		return err
	}
	fmt.Fprintf(stderr, "perf snapshot written to %s\n", path)
	return nil
}

// quickCDCLJobs is a miniature propagation job for -quick runs: the same
// binary-implication chain shape as cdcl_propagation_chain-20000, cut to
// 500 variables so the whole snapshot finishes in well under a second.
func quickCDCLJobs() []bench.CDCLJob {
	const n = 500
	return []bench.CDCLJob{{
		Name: "chain-500",
		Want: satgen.StatusSat,
		Build: func() *cnf.Formula {
			f := cnf.NewFormula(n)
			for i := 0; i < n-1; i++ {
				f.AddClause(cnf.MkLit(cnf.Var(i), true), cnf.MkLit(cnf.Var(i+1), false))
			}
			f.AddClause(cnf.MkLit(0, false))
			return f
		},
	}}
}

// quickCubeJobs is a miniature cube-scaling job for -quick runs: a small
// pigeonhole instance that splits and refutes in milliseconds, asserting
// the measurement path end to end without the multi-second hard set.
func quickCubeJobs() []bench.CDCLJob {
	return []bench.CDCLJob{{
		Name: "php-5-4",
		Want: satgen.StatusUnsat,
		Build: func() *cnf.Formula {
			return satgen.Pigeonhole(5, 4).Formula
		},
	}}
}

// quickFragmentJobs is a miniature routing family for -quick runs: one
// tiny instance per pure fragment plus the mixed control, asserting the
// routed and CDCL measurement paths end to end in milliseconds.
func quickFragmentJobs() []bench.FragmentJob {
	return []bench.FragmentJob{
		{
			Name: "2sat-gadget-k60",
			Frag: route.Binary,
			Build: func() *cnf.Formula {
				return bench.Gadget2SAT(60)
			},
		},
		{
			Name: "horn-sparse-v20000-m2000",
			Frag: route.Horn,
			Build: func() *cnf.Formula {
				return bench.HornSparse(20000, 2000, rand.New(rand.NewSource(7)))
			},
		},
		{
			Name: "xor-planted-v64-e60",
			Frag: route.AffineXor,
			Build: func() *cnf.Formula {
				return bench.XorSystem(64, 60, 4, false, rand.New(rand.NewSource(82)))
			},
		},
	}
}

// quickParityJobs is a miniature parity family for -quick runs: one
// short cascade asserting the native and cut measurement arms end to end
// in milliseconds.
func quickParityJobs() []bench.ParityJob {
	return []bench.ParityJob{{
		Name: "cascade-v200-w4-unsat",
		Want: sat.Unsat,
		Build: func() *cnf.Formula {
			return bench.ParityCascade(200, 4, true, 5)
		},
	}}
}

// compareSnapshots loads two perf snapshots and prints a ratio table
// (new/old) over every metric present in both: the medians_ns section and,
// when both files have it, the CDCL ns/allocs/bytes triples. Metrics
// present in only one file are listed but not gated. When gate ≥ 0, any
// shared metric whose ratio exceeds 1+gate makes the comparison fail with
// a non-zero exit, so `benchtab -compare old.json new.json` can guard CI.
func compareSnapshots(oldPath, newPath string, gate float64, w io.Writer) error {
	load := func(path string) (*perfBlob, error) {
		data, err := os.ReadFile(path)
		if err != nil {
			return nil, err
		}
		var b perfBlob
		if err := json.Unmarshal(data, &b); err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		return &b, nil
	}
	oldB, err := load(oldPath)
	if err != nil {
		return err
	}
	newB, err := load(newPath)
	if err != nil {
		return err
	}
	if oldB.Quick || newB.Quick {
		fmt.Fprintln(w, "note: at least one snapshot was taken with -quick; numbers are smoke-scale")
	}

	type row struct {
		name     string
		oldV     int64
		newV     int64
		both     bool
		regress  bool
		onlySide string // "old" or "new" when !both
	}
	var rows []row
	addMetric := func(name string, oldV, newV int64, oldOK, newOK bool) {
		r := row{name: name, oldV: oldV, newV: newV, both: oldOK && newOK}
		if !r.both {
			if oldOK {
				r.onlySide = "old"
			} else {
				r.onlySide = "new"
			}
		} else if gate >= 0 && oldV > 0 && float64(newV)/float64(oldV) > 1+gate {
			r.regress = true
		}
		rows = append(rows, r)
	}

	keys := map[string]bool{}
	for k := range oldB.Medians {
		keys[k] = true
	}
	for k := range newB.Medians {
		keys[k] = true
	}
	for _, k := range sortedKeys(keys) {
		ov, ook := oldB.Medians[k]
		nv, nok := newB.Medians[k]
		addMetric(k, ov, nv, ook, nok)
	}
	keys = map[string]bool{}
	for k := range oldB.CDCL {
		keys[k] = true
	}
	for k := range newB.CDCL {
		keys[k] = true
	}
	for _, k := range sortedKeys(keys) {
		om, ook := oldB.CDCL[k]
		nm, nok := newB.CDCL[k]
		addMetric(k+"/ns", om.NsPerOp, nm.NsPerOp, ook, nok)
		addMetric(k+"/allocs", om.AllocsPerOp, nm.AllocsPerOp, ook, nok)
		addMetric(k+"/bytes", om.BytesPerOp, nm.BytesPerOp, ook, nok)
	}

	fmt.Fprintf(w, "%-44s %14s %14s %8s\n", "metric", "old", "new", "ratio")
	failed := 0
	for _, r := range rows {
		switch {
		case !r.both:
			v := r.oldV
			if r.onlySide == "new" {
				v = r.newV
			}
			fmt.Fprintf(w, "%-44s %14s %14s %8s  (only in %s)\n",
				r.name, sideVal(r.onlySide == "old", v), sideVal(r.onlySide == "new", v), "-", r.onlySide)
		default:
			ratio := "-"
			if r.oldV > 0 {
				ratio = fmt.Sprintf("%.3f", float64(r.newV)/float64(r.oldV))
			} else if r.newV == 0 {
				ratio = "1.000"
			}
			mark := ""
			if r.regress {
				mark = "  REGRESSION"
				failed++
			}
			fmt.Fprintf(w, "%-44s %14d %14d %8s%s\n", r.name, r.oldV, r.newV, ratio, mark)
		}
	}
	if failed > 0 {
		return fmt.Errorf("%d metric(s) regressed by more than %.0f%% (%s -> %s)",
			failed, gate*100, oldPath, newPath)
	}
	return nil
}

func sideVal(present bool, v int64) string {
	if present {
		return fmt.Sprintf("%d", v)
	}
	return "-"
}

func sortedKeys(set map[string]bool) []string {
	out := make([]string, 0, len(set))
	for k := range set {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// tableI prints the worked XL example of Table I.
func tableI(w io.Writer) error {
	sys := anf.NewSystem()
	sys.Add(anf.MustParsePoly("x1*x2 + x1 + 1"))
	sys.Add(anf.MustParsePoly("x2*x3 + x3"))
	fmt.Fprintln(w, "Table I reproduction — XL on {x1*x2 + x1 + 1, x2*x3 + x3}, D = 1")
	rng := rand.New(rand.NewSource(1))
	facts := core.RunXL(sys, core.XLConfig{M: 20, DeltaM: 4, Deg: 1, Rand: rng})
	fmt.Fprintln(w, "facts retained after Gauss-Jordan elimination:")
	for _, f := range facts {
		fmt.Fprintf(w, "  %s = 0\n", f)
	}
	fmt.Fprintln(w, "(paper: x1 + 1, x2, x3)")
	return nil
}

// fig2 prints the Karnaugh vs Tseitin comparison of Fig. 2/3.
func fig2(w io.Writer) error {
	p := anf.MustParsePoly("x1*x3 + x1 + x2 + x4 + 1")
	fmt.Fprintf(w, "Fig. 2 reproduction — CNF encodings of %s = 0\n", p)

	kOpts := conv.DefaultOptions()
	kf, kvm := conv.PolyToCNF(p, kOpts)
	fmt.Fprintf(w, "Karnaugh-map path (K=%d): %d clauses, %d auxiliary variables\n",
		kOpts.KarnaughK, len(kf.Clauses), kvm.AuxCount()+kvm.ConnectorCount())
	for _, c := range kf.Clauses {
		fmt.Fprintf(w, "  %s\n", c)
	}

	tOpts := conv.DefaultOptions()
	tOpts.KarnaughK = 0
	tf, tvm := conv.PolyToCNF(p, tOpts)
	fmt.Fprintf(w, "Tseitin path: %d clauses, %d auxiliary variables\n",
		len(tf.Clauses), tvm.AuxCount()+tvm.ConnectorCount())
	for _, c := range tf.Clauses {
		fmt.Fprintf(w, "  %s\n", c)
	}
	fmt.Fprintln(w, "(paper: 6 clauses vs 11 clauses with one auxiliary variable)")
	return nil
}
