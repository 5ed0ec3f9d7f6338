package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"strings"
	"syscall"

	"repro/internal/gf2"
)

// Every batch job runs in a fresh process of this binary, the way the
// paper's Table II runs one bosphorus process per instance. The job so
// starts from the heap of a one-instance process, its peak RSS is that
// process's VmHWM, and it runs with what the program sets up once per
// process. One such set-up matters for the spread: the gf2 calibration
// probe picks the elimination kernel's cache working set from a few ms of
// timings, and on a shared host it lands anywhere from 16 to 256 KiB from
// one process to the next. CNF jobs, which spend most of their time in XL,
// ran about a third slower with the smallest choice than with the largest.
// In one long-lived process a single draw would scale a whole run; one
// process per job averages it over the run's jobs.
//
// A job process runs with GOMAXPROCS=1. The default configuration is
// sequential, so this takes no parallelism from the engine; it keeps the
// runtime's own work on the job's core. With two Ps the garbage
// collector's idle mark workers fill the second vCPU and every
// stop-the-world waits for both vCPUs, so a job's time follows how busy
// the host keeps the core it does not compute on. On a shared 2-vCPU VM,
// seven runs of one seed per setting, alternating them, spread 10-15 %
// with two Ps and 4 % with one, at the same median job time.
//
// A job's time is the CPU time of its process (user and system, all
// threads) over the job. With one P the engine and its garbage collector
// take turns on one core, so this is the job's wall time less the time the
// hypervisor gave the vCPU to other tenants, which the paravirtualized
// kernel accounts as steal and leaves out of a task's CPU time. In ten
// runs of simon-elimlin taken while the host's steal went from 0.2 % to
// 11 % of its time, summed job wall time ranged over 51 % and summed job
// CPU time over 30 %; the quartile spread was 28 % against 18 %. While
// steal stays near zero the two agree within 1 %.

// jobEnv marks a process this binary started to run one job.
const jobEnv = "PERFBENCH_JOB"

// jobGOMAXPROCS is the GOMAXPROCS of every job process.
const jobGOMAXPROCS = 1

// calibrateGF2 runs the gf2 calibration probe, which the program runs
// once per process, lazily, at its first M4R elimination: a few ms of XOR
// timings over working sets of 16 to 256 KiB that set the kernel's cache
// blocking. It is one-time work, so the job process does it before the
// job is timed, as a warm-up does for a long-lived process, and set-up
// pays it in the warm-up job processes.
func calibrateGF2() {
	m := gf2.NewMatrix(64, 64)
	for i := 0; i < 64; i++ {
		m.Set(i, i, true)
	}
	m.RREFM4R()
}

// cpuSeconds is the CPU time this process has used so far, user and
// system, all threads.
func cpuSeconds() float64 { return rusageSeconds(syscall.RUSAGE_SELF) }

// childCPUSeconds is the CPU time of the child processes this process
// has waited for.
func childCPUSeconds() float64 { return rusageSeconds(syscall.RUSAGE_CHILDREN) }

func rusageSeconds(who int) float64 {
	var ru syscall.Rusage
	_ = syscall.Getrusage(who, &ru) // cannot fail for a valid who and pointer
	return float64(ru.Utime.Nano()+ru.Stime.Nano()) / 1e9
}

// jobRequest is what a job process reads from its standard input.
type jobRequest struct {
	Job    engineJob
	Traced bool
}

// jobResult is what a job process writes to its standard output.
type jobResult struct {
	verdict
	PeakRSSMB float64
	// Trace and TraceJobMS are the job's per-layer values (traced runs).
	Trace      map[string]float64
	TraceJobMS float64
}

// runJobProcess runs j in a job process and, for a traced run, adds the
// job's layer values to tr. A job process that fails to answer is a
// failed job, with the failure as its status.
func runJobProcess(j engineJob, tr *tracer) jobResult {
	res, err := jobProcess(j, tr != nil)
	if err != nil {
		return jobResult{verdict: verdict{Status: err.Error()}}
	}
	if tr != nil {
		for name, v := range res.Trace {
			tr.add(name, v)
		}
		tr.jobMS += res.TraceJobMS
	}
	return res
}

func jobProcess(j engineJob, traced bool) (jobResult, error) {
	self, err := os.Executable()
	if err != nil {
		return jobResult{}, err
	}
	req, err := json.Marshal(jobRequest{Job: j, Traced: traced})
	if err != nil {
		return jobResult{}, err
	}
	cmd := exec.Command(self)
	cmd.Env = append(os.Environ(), jobEnv+"=1", fmt.Sprintf("GOMAXPROCS=%d", jobGOMAXPROCS))
	cmd.Stdin = bytes.NewReader(req)
	var stdout, stderr bytes.Buffer
	cmd.Stdout, cmd.Stderr = &stdout, &stderr
	if err := cmd.Run(); err != nil {
		return jobResult{}, fmt.Errorf("job process: %v: %s", err, strings.TrimSpace(stderr.String()))
	}
	var res jobResult
	if err := json.Unmarshal(stdout.Bytes(), &res); err != nil {
		return jobResult{}, fmt.Errorf("job process answer: %w", err)
	}
	return res, nil
}

// asJobProcess makes this process a job process when its parent started
// it as one: it runs the job and exits.
func asJobProcess() {
	if os.Getenv(jobEnv) == "" {
		return
	}
	if err := jobMain(); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench job:", err)
		os.Exit(1)
	}
	os.Exit(0)
}

// jobMain reads one jobRequest, parses the job's input and runs the gf2
// calibration probe untimed, runs and checks the job, and writes its
// jobResult.
func jobMain() error {
	var req jobRequest
	if err := json.NewDecoder(os.Stdin).Decode(&req); err != nil {
		return fmt.Errorf("read request: %w", err)
	}
	in, err := req.Job.parse()
	if err != nil {
		return fmt.Errorf("%s: %w", req.Job.Name, err)
	}
	calibrateGF2()
	var tr *tracer
	if req.Traced {
		tr = newTracer()
	}
	res := jobResult{verdict: runEngineJob(req.Job, in, tr), PeakRSSMB: peakRSSMB()}
	if tr != nil {
		res.Trace, res.TraceJobMS = tr.vals, tr.jobMS
	}
	return json.NewEncoder(os.Stdout).Encode(res)
}
