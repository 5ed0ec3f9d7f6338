// Command bosphorusd serves the fact-learning engine over HTTP/JSON: a
// bounded job queue in front of a solve worker pool, with per-job
// deadlines, backpressure (429 + Retry-After when the queue is full),
// an LRU result cache, and a graceful drain on SIGTERM/SIGINT.
//
// Endpoints:
//
//	POST /solve        {"format":"anf"|"dimacs","input":"...","mode":"process"|"solve"|"portfolio"|"cube",...}
//	GET  /healthz      200 "ok role=<role>" while serving, 503 while draining
//	GET  /metrics      plain-text counters (Prometheus exposition format)
//	GET  /cube/next    (coordinator role) next open cube task, 204 when idle
//	POST /cube/result  (coordinator role) a worker node's cube result
//
// Roles (-role):
//
//	solo         answer every job in-process (the default)
//	coordinator  split cube-mode jobs and fan the cubes out to worker nodes
//	worker       pull cube tasks from -coordinator, solve, post results
//
// Usage:
//
//	bosphorusd -listen :8176 -solve-workers 4 -queue 64
//	bosphorusd -listen :8176 -role coordinator
//	bosphorusd -listen :0 -role worker -coordinator http://127.0.0.1:8176
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"log"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"repro/internal/core"
	"repro/internal/sat"
	"repro/internal/server"
)

func main() {
	if err := run(os.Args[1:], os.Stdout, os.Stderr); err != nil {
		fmt.Fprintln(os.Stderr, "bosphorusd:", err)
		os.Exit(1)
	}
}

func run(args []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("bosphorusd", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		listen      = fs.String("listen", "127.0.0.1:8176", "address to serve on (host:port; port 0 picks a free one)")
		workers     = fs.Int("solve-workers", 0, "solve worker pool size (0 = GOMAXPROCS)")
		queueSize   = fs.Int("queue", 64, "job queue capacity; a full queue answers 429")
		cacheSize   = fs.Int("cache", 128, "LRU result-cache capacity (negative disables)")
		defaultTime = fs.Duration("default-timeout", 10*time.Second, "job deadline when the request has no timeout_ms")
		maxTime     = fs.Duration("max-timeout", 60*time.Second, "hard cap on any job deadline")
		drainTime   = fs.Duration("drain-timeout", 30*time.Second, "how long a SIGTERM drain waits for in-flight jobs")
		solver      = fs.String("solver", "cms", "internal SAT solver: minisat | lingeling | cms")
		budget      = fs.Int64("confl", 10000, "default starting SAT conflict budget per job")
		maxIters    = fs.Int("iters", 16, "default maximum fact-learning iterations per job")
		engineJ     = fs.Int("j", 0, "fact learners run at once per engine job (0 and 1 = one at a time; results are identical for every value)")
		role        = fs.String("role", "solo", "clustering role: solo | coordinator | worker")
		coordinator = fs.String("coordinator", "", "coordinator base URL (worker role)")
		poll        = fs.Duration("poll", 100*time.Millisecond, "idle poll interval between cube pulls (worker role)")
		routeFlag   = fs.Bool("route", false, "route tractable CNF fragments (2SAT/Horn/XOR) to polynomial solvers by default on every engine-mode job")
		verbose     = fs.Bool("v", false, "log one line per job")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}

	engine := core.DefaultConfig()
	engine.ConflictBudget = *budget
	engine.MaxIterations = *maxIters
	engine.Workers = *engineJ
	engine.Route = *routeFlag
	switch *solver {
	case "minisat":
		engine.Profile = sat.ProfileMiniSat
	case "lingeling":
		engine.Profile = sat.ProfileLingeling
	case "cms":
		engine.Profile = sat.ProfileCMS
	default:
		return fmt.Errorf("unknown solver %q", *solver)
	}

	if *role == "worker" {
		if *coordinator == "" {
			return fmt.Errorf("worker role needs -coordinator")
		}
		ncfg := server.NodeConfig{
			Coordinator: *coordinator,
			Poll:        *poll,
			Solver:      sat.DefaultOptions(engine.Profile),
		}
		if *verbose {
			ncfg.Log = log.New(stderr, "bosphorusd: ", log.LstdFlags)
		}
		return runWorkerNode(ncfg, *listen, stdout)
	}

	cfg := server.Config{
		Workers:        *workers,
		QueueSize:      *queueSize,
		CacheSize:      *cacheSize,
		DefaultJobTime: *defaultTime,
		MaxJobTime:     *maxTime,
		Engine:         engine,
	}
	if *role == "coordinator" {
		cfg.Role = server.RoleCoordinator
	} else if *role != "solo" {
		return fmt.Errorf("unknown role %q (want solo, coordinator, or worker)", *role)
	}
	if *verbose {
		cfg.Log = log.New(stderr, "bosphorusd: ", log.LstdFlags)
	}
	svc := server.New(cfg)

	ln, err := net.Listen("tcp", *listen)
	if err != nil {
		return err
	}
	// The resolved address line is load-bearing: with -listen :0 it is how
	// callers (and the e2e smoke test) learn the actual port.
	fmt.Fprintf(stdout, "bosphorusd listening on %s\n", ln.Addr())

	httpSrv := &http.Server{Handler: withPprof(svc)}
	errCh := make(chan error, 1)
	go func() { errCh <- httpSrv.Serve(ln) }()

	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGTERM, syscall.SIGINT)
	defer stop()
	select {
	case err := <-errCh:
		return err
	case <-ctx.Done():
	}

	// Graceful drain: stop admitting (healthz flips to 503, new jobs get
	// 503), let queued and running jobs finish under their own deadlines,
	// then close the listener once in-flight responses are written.
	fmt.Fprintln(stdout, "bosphorusd draining")
	drainCtx, cancel := context.WithTimeout(context.Background(), *drainTime)
	defer cancel()
	if err := svc.Shutdown(drainCtx); err != nil {
		return fmt.Errorf("drain: %w", err)
	}
	if err := httpSrv.Shutdown(drainCtx); err != nil {
		return fmt.Errorf("http shutdown: %w", err)
	}
	fmt.Fprintln(stdout, "bosphorusd stopped")
	return nil
}

// runWorkerNode serves a cube worker: a small health/metrics listener
// plus the pull loop against the coordinator, both stopped by
// SIGTERM/SIGINT.
func runWorkerNode(ncfg server.NodeConfig, listen string, stdout io.Writer) error {
	node := server.NewNode(ncfg)
	ln, err := net.Listen("tcp", listen)
	if err != nil {
		return err
	}
	// Same load-bearing address line as the service roles.
	fmt.Fprintf(stdout, "bosphorusd listening on %s\n", ln.Addr())

	httpSrv := &http.Server{Handler: node}
	errCh := make(chan error, 1)
	go func() { errCh <- httpSrv.Serve(ln) }()

	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGTERM, syscall.SIGINT)
	defer stop()
	pullDone := make(chan struct{})
	go func() {
		defer close(pullDone)
		_ = node.Run(ctx)
	}()

	select {
	case err := <-errCh:
		return err
	case <-ctx.Done():
	}
	fmt.Fprintln(stdout, "bosphorusd draining")
	<-pullDone
	shutCtx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := httpSrv.Shutdown(shutCtx); err != nil {
		return fmt.Errorf("http shutdown: %w", err)
	}
	fmt.Fprintln(stdout, "bosphorusd stopped")
	return nil
}
