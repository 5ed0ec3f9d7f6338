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
	"strings"
	"time"

	"repro/internal/anf"
	"repro/internal/bench"
	"repro/internal/conv"
	"repro/internal/core"
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
		perf    = fs.String("perf", "", "write a JSON snapshot of the kernel table timings (bench.KernelFamilies) to this file and exit")
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

// snapshot is the -perf file: the run's context and one record per
// (family, job, arm) of the kernel table. The frozen BENCH_pr1–pr10 files
// predate the records. Their "medians_ns" section holds "<name>_ns" keys.
// Their "cdcl" section (since BENCH_pr5.json) holds CDCL records keyed by
// name, and metrics folds both into the records' keys. Their per-family
// sections repeat medians_ns and are not read.
type snapshot struct {
	Date       string              `json:"date"`
	GOOS       string              `json:"goos"`
	GOARCH     string              `json:"goarch"`
	GOMAXPROCS int                 `json:"gomaxprocs"`
	Seed       int64               `json:"seed"`
	Quick      bool                `json:"quick,omitempty"`
	Records    []bench.Measurement `json:"records"`

	Medians map[string]int64             `json:"medians_ns,omitempty"`
	CDCL    map[string]bench.Measurement `json:"cdcl,omitempty"`
}

// metrics flattens a snapshot into one map from metric name to value:
// "<name>_ns", "<name>_allocs" and "<name>_bytes" per record.
func (s *snapshot) metrics() map[string]int64 {
	out := make(map[string]int64, 3*(len(s.Records)+len(s.CDCL))+len(s.Medians))
	add := func(name string, m bench.Measurement) {
		out[name+"_ns"] = m.NsPerOp
		out[name+"_allocs"] = m.AllocsPerOp
		out[name+"_bytes"] = m.BytesPerOp
	}
	for _, m := range s.Records {
		add(m.Name, m)
	}
	for name, m := range s.CDCL {
		add(name, m)
	}
	for k, v := range s.Medians {
		out[k] = v
	}
	return out
}

// perfSnapshot times the kernel table (bench.KernelFamilies) and writes
// the records as JSON, so successive changes can diff like against like. A
// full snapshot takes the medians of five rounds of at least half a
// second each; quick shrinks the jobs and the rounds so CI can assert the
// harness runs end to end, and marks the file (its numbers are not
// comparable with full runs). A verdict that contradicts its job's fails
// the snapshot.
func perfSnapshot(path string, seed int64, quick bool, stderr io.Writer) error {
	rounds, window := 5, 500*time.Millisecond
	if quick {
		rounds, window = 3, 10*time.Millisecond
	}
	recs, err := bench.Measure(bench.KernelFamilies(quick, seed), rounds, window)
	if err != nil {
		return err
	}
	if err := writeSnapshot(path, snapshot{
		Date:       time.Now().UTC().Format(time.RFC3339),
		GOOS:       runtime.GOOS,
		GOARCH:     runtime.GOARCH,
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		Seed:       seed,
		Quick:      quick,
		Records:    recs,
	}); err != nil {
		return err
	}
	fmt.Fprintf(stderr, "perf snapshot written to %s\n", path)
	return nil
}

func writeSnapshot(path string, s snapshot) error {
	data, err := json.MarshalIndent(s, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

func loadSnapshot(path string) (*snapshot, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var s snapshot
	if err := json.Unmarshal(data, &s); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &s, nil
}

// gated reports whether -compare gates metric k: every timing, and the
// allocs and bytes of the CDCL records. Those repeat run to run; the cube
// arms with several workers vary theirs with scheduling, and the GF(2)
// kernels with how often a GC empties their workspace pool, by more than
// the default gate between two snapshots of one tree (see EXPERIMENTS.md),
// so the other families' allocs and bytes are listed, not gated.
func gated(k string) bool {
	return strings.HasSuffix(k, "_ns") || strings.HasPrefix(k, "cdcl_")
}

// compareSnapshots loads two perf snapshots and prints a ratio table
// (new/old) over every metric of either. Metrics present in only one
// file are listed but not gated. When gate ≥ 0, any shared gated metric
// whose ratio exceeds 1+gate makes the comparison fail with a non-zero
// exit, so `benchtab -compare old.json new.json` can guard CI.
func compareSnapshots(oldPath, newPath string, gate float64, w io.Writer) error {
	oldS, err := loadSnapshot(oldPath)
	if err != nil {
		return err
	}
	newS, err := loadSnapshot(newPath)
	if err != nil {
		return err
	}
	if oldS.Quick || newS.Quick {
		fmt.Fprintln(w, "note: at least one snapshot was taken with -quick; numbers are smoke-scale")
	}
	oldM, newM := oldS.metrics(), newS.metrics()
	var names []string
	for k := range oldM {
		names = append(names, k)
	}
	for k := range newM {
		if _, ok := oldM[k]; !ok {
			names = append(names, k)
		}
	}
	sort.Strings(names)

	fmt.Fprintf(w, "%-48s %14s %14s %8s\n", "metric", "old", "new", "ratio")
	failed := 0
	for _, k := range names {
		ov, ook := oldM[k]
		nv, nok := newM[k]
		switch {
		case !nok:
			fmt.Fprintf(w, "%-48s %14d %14s %8s  (only in old)\n", k, ov, "-", "-")
		case !ook:
			fmt.Fprintf(w, "%-48s %14s %14d %8s  (only in new)\n", k, "-", nv, "-")
		default:
			ratio := "-"
			if ov > 0 {
				ratio = fmt.Sprintf("%.3f", float64(nv)/float64(ov))
			} else if nv == 0 {
				ratio = "1.000"
			}
			mark := ""
			if gate >= 0 && gated(k) && ov > 0 && float64(nv)/float64(ov) > 1+gate {
				mark = "  REGRESSION"
				failed++
			}
			fmt.Fprintf(w, "%-48s %14d %14d %8s%s\n", k, ov, nv, ratio, mark)
		}
	}
	if failed > 0 {
		return fmt.Errorf("%d metric(s) regressed by more than %.0f%% (%s -> %s)",
			failed, gate*100, oldPath, newPath)
	}
	return nil
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
