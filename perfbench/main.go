// Command perfbench is the repository's end-to-end benchmark. It runs one
// workload against the default configuration (core.Process with
// core.DefaultConfig, bosphorusd's defaults for the daemon), checks every
// verdict, and prints one JSON object as its last line of output: the
// end-to-end metrics, or with -trace 1 the per-layer metrics measured from
// outside the program. See README.md for the workloads, the metric
// definitions and the layer table.
//
//	go build -o perfbench . && ./perfbench --workload simon-elimlin --seed 1 --seconds 20 --trace 0
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"time"
)

// setupRepeats is how many times a run sets up its workload; setup_s is
// the median, so one slow set-up (a host hiccup, the first run's lazy
// one-time work) does not move it. A set-up is timed in CPU time, like a
// batch job (see child.go): the benchmark process's own plus that of the
// warm-up job processes it ran.
const setupRepeats = 3

// workload is one named input set. setup builds everything a run needs
// from the seed; the returned runner then does the timed (or traced) work.
// Only the daemon's setup depends on traced: it installs the engine-call
// wrappers when its server starts.
type workload struct {
	name string
	// procs is the benchmark process's GOMAXPROCS; 0 keeps the default.
	// A batch workload's process only builds inputs and waits for its job
	// processes, so it runs on one P like them, and no idle mark worker
	// adds to the CPU time of its set-up. The daemon serves on the
	// default, as bosphorusd does.
	procs int
	setup func(seed int64, seconds int, traced bool) (runner, error)
}

// runner is a set-up workload, ready to run once.
type runner interface {
	// run does the work. traced selects the outside-in layer trace.
	run(traced bool) (*report, error)
	// close releases what setup started (the in-process daemon).
	close()
}

// report is what a run measured.
type report struct {
	jobs    []jobOutcome
	jobRSS  []float64 // batch workloads: each job process's peak RSS in MB
	failed  int       // jobs whose verdict was wrong, unverified or missing
	wrong   int       // verdicts contradicted by a model check, ground truth or proof check
	timedS  float64   // wall time of the timed phase
	digest  string    // hash of the work done
	notes   []string
	metrics map[string]metric // per-layer metrics (traced runs)
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type output struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

var workloads = []workload{
	{name: "simon-elimlin", procs: jobGOMAXPROCS, setup: setupSimon},
	{name: "bitcoin-cdcl", procs: jobGOMAXPROCS, setup: setupBitcoin},
	{name: "cnf-unsat-proof", procs: jobGOMAXPROCS, setup: setupCNFProof},
	{name: "daemon-mix", setup: setupDaemon},
}

func main() {
	asJobProcess()
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	name := fs.String("workload", "", "workload: simon-elimlin | bitcoin-cdcl | cnf-unsat-proof | daemon-mix")
	seed := fs.Int64("seed", 1, "workload seed; the same seed gives the same inputs and the same work")
	seconds := fs.Int("seconds", 20, "nominal length of the timed phase; it sizes the fixed job set")
	trace := fs.Int("trace", 0, "1 = traced run printing the per-layer metrics")
	if err := fs.Parse(args); err != nil {
		return err
	}
	var wl *workload
	for i := range workloads {
		if workloads[i].name == *name {
			wl = &workloads[i]
		}
	}
	if wl == nil {
		return fmt.Errorf("unknown workload %q", *name)
	}
	if *seconds < 1 {
		return fmt.Errorf("--seconds must be at least 1")
	}
	if *trace != 0 && *trace != 1 {
		return fmt.Errorf("--trace must be 0 or 1")
	}

	if wl.procs > 0 {
		runtime.GOMAXPROCS(wl.procs)
	}
	hostBefore := hostLoopMS()
	var r runner
	var setups []float64
	for i := 0; i < setupRepeats; i++ {
		if r != nil {
			r.close()
			r = nil
		}
		runtime.GC() // drop the previous set-up, so runs start from one heap state
		start := cpuSeconds() + childCPUSeconds()
		var err error
		r, err = wl.setup(*seed, *seconds, *trace == 1)
		if err != nil {
			return fmt.Errorf("setup: %w", err)
		}
		setups = append(setups, cpuSeconds()+childCPUSeconds()-start)
	}
	runtime.GC()
	resetPeakRSS()
	rep, err := r.run(*trace == 1)
	r.close()
	if err != nil {
		return err
	}
	hostAfter := hostLoopMS()

	out := output{
		Correct:   rep.wrong == 0,
		Attempted: len(rep.jobs),
		Failed:    rep.failed,
	}
	fmt.Printf("workload %s seed %d seconds %d trace %d jobs %d\n", wl.name, *seed, *seconds, *trace, len(rep.jobs))
	fmt.Printf("digest %s\n", rep.digest)
	for _, n := range rep.notes {
		fmt.Println(n)
	}
	fmt.Printf("host loop_ms before %.1f after %.1f gomaxprocs %d, in job processes %d (diagnostic only, never gated)\n",
		hostBefore, hostAfter, runtime.GOMAXPROCS(0), jobGOMAXPROCS)

	if *trace == 1 {
		out.Metrics = rep.metrics
	} else {
		out.Metrics = endToEnd(rep, median(setups))
	}
	names := make([]string, 0, len(out.Metrics))
	for k := range out.Metrics {
		names = append(names, k)
	}
	sort.Strings(names)
	for _, k := range names {
		fmt.Printf("  %-28s %14.4f %s\n", k, out.Metrics[k].Value, out.Metrics[k].Unit)
	}
	line, err := json.Marshal(out)
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	return nil
}

// endToEnd computes the seven metrics every workload reports.
func endToEnd(rep *report, setupS float64) map[string]metric {
	ms := make([]float64, len(rep.jobs))
	for i, o := range rep.jobs {
		ms[i] = o.seconds * 1000
	}
	p, tailMS, beyond, ok := tail(ms)
	if !ok {
		tailMS = median(ms)
	}
	fmt.Printf("job_ms.tail is p%d over %d samples (%d beyond)\n", p, len(ms), beyond)
	// The daemon is one long-lived process: its peak over the timed phase.
	// A batch job is one process, so a batch run reports the job
	// processes' peaks at the same tail rule; the rule keeps a garbage
	// collection that happens to start late in one job from setting it.
	rss := peakRSSMB()
	if len(rep.jobRSS) > 0 {
		if _, v, _, ok := tail(rep.jobRSS); ok {
			rss = v
		}
	}
	return map[string]metric{
		"setup_s":     {setupS, "s"},
		"par2_s":      {par2(rep.jobs), "s"},
		"job_ms.p50":  {median(ms), "ms"},
		"job_ms.tail": {tailMS, "ms"},
		"jobs_per_s":  {float64(len(rep.jobs)) / rep.timedS, "1/s"},
		"solved_frac": {solvedFrac(rep.jobs), "frac"},
		"peak_rss_mb": {rss, "MB"},
	}
}

// hostLoopMS times a fixed CPU-only integer loop. It is identical on every
// commit and never scales or gates a metric; a slow reading only flags a
// run taken while the shared host was busy.
func hostLoopMS() float64 {
	start := time.Now()
	x := uint64(88172645463325252)
	for i := 0; i < 50_000_000; i++ {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
	}
	el := time.Since(start)
	if x == 0 { // keeps the loop from being optimized away
		fmt.Fprintln(os.Stderr, "unreachable")
	}
	return float64(el.Microseconds()) / 1000
}

// resetPeakRSS restarts the kernel's peak-RSS count (VmHWM) so that
// peak_rss_mb covers the timed phase: the inputs held for the jobs plus
// what the program needs to run them, not the set-up's garbage.
func resetPeakRSS() {
	if err := os.WriteFile("/proc/self/clear_refs", []byte("5"), 0); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench: cannot reset peak RSS:", err)
	}
}

// peakRSSMB reads the process's peak resident set (VmHWM).
func peakRSSMB() float64 {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := sc.Text()
		if !strings.HasPrefix(line, "VmHWM:") {
			continue
		}
		fields := strings.Fields(line)
		if len(fields) >= 2 {
			kb, err := strconv.ParseFloat(fields[1], 64)
			if err == nil {
				return kb / 1024
			}
		}
	}
	return 0
}
