package server

import (
	"fmt"
	"slices"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// latencyBuckets are the upper bounds (seconds) of the solve-latency
// histogram, chosen to straddle the service's job-time range: interactive
// preprocessing jobs land in the millisecond buckets, portfolio solves in
// the second ones, and everything at the per-job cap in the last.
var latencyBuckets = []float64{0.005, 0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1, 2.5, 5, 10, 30, 60}

// routeBuckets are the upper bounds (nanoseconds) of the fragment-router
// classification-time histogram. Classification is a single linear pass
// plus at most one polynomial solve, so the range is microseconds to a
// few milliseconds even on large residues.
var routeBuckets = []float64{1e3, 1e4, 1e5, 1e6, 1e7, 1e8, 1e9}

// waitBuckets are the upper bounds (seconds) of the queue-wait and
// cache-hit histograms: a hit takes well under a millisecond to a few,
// and a job waits from microseconds on an idle pool to job times behind a
// full queue.
var waitBuckets = []float64{0.0001, 0.00025, 0.0005, 0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1, 2.5, 5, 10, 30, 60}

// Metrics is the daemon's plain-text counter registry. All fields are
// safe for concurrent use; rendering takes a consistent-enough snapshot
// (counters are monotonic, the gauge is read last).
type Metrics struct {
	JobsAccepted  atomic.Int64 // admitted to the queue
	JobsRejected  atomic.Int64 // turned away with 429 (queue full)
	JobsCompleted atomic.Int64 // ran to a verdict/fixed point
	JobsCanceled  atomic.Int64 // cut short by disconnect or deadline
	JobsFailed    atomic.Int64 // malformed input or internal error
	CacheHits     atomic.Int64 // served from the result cache
	QueueDepth    atomic.Int64 // jobs admitted but not yet picked up
	ProofVerified atomic.Int64 // facts independently re-derived (verify=true jobs)
	ProofFailed   atomic.Int64 // facts that failed or exhausted verification

	// Coordinator-role cube fan-out.
	CubesDispatched atomic.Int64 // tasks handed to worker nodes
	CubeResults     atomic.Int64 // node results received (incl. ignored ones)
	CubesRequeued   atomic.Int64 // tasks put back after an UNKNOWN result
	CubesReaped     atomic.Int64 // tasks re-queued by the lease reaper (dead/silent node)
	CubeJobsActive  atomic.Int64 // cube jobs parked awaiting remote conquest
	// Worker-node role.
	NodeCubesSolved atomic.Int64 // tasks this node settled (SAT or UNSAT)

	mu      sync.Mutex
	facts   map[string]int64 // per-technique facts learnt
	routed  map[string]int64 // per-fragment router verdicts (2sat/horn/antihorn/xor)
	latency histogram        // seconds
	route   histogram        // nanoseconds
	wait    histogram        // seconds from admission to worker pickup
	hit     histogram        // seconds a cache hit spends in the handler
}

// NewMetrics returns an empty registry.
func NewMetrics() *Metrics {
	return &Metrics{
		facts:   make(map[string]int64),
		routed:  make(map[string]int64),
		latency: newHistogram(latencyBuckets),
		route:   newHistogram(routeBuckets),
		wait:    newHistogram(waitBuckets),
		hit:     newHistogram(waitBuckets),
	}
}

// histogram is a cumulative histogram over fixed upper bounds; the count
// past the last bound is the +Inf bucket. Its owner's lock guards it.
type histogram struct {
	bounds []float64
	counts []int64
	sum    float64
	n      int64
}

func newHistogram(bounds []float64) histogram {
	return histogram{bounds: bounds, counts: make([]int64, len(bounds)+1)}
}

// observe counts v in the first bucket whose bound is at least v.
func (h *histogram) observe(v float64) {
	i, _ := slices.BinarySearch(h.bounds, v)
	h.counts[i]++
	h.sum += v
	h.n++
}

// render writes h in the Prometheus text format.
func (h *histogram) render(b *strings.Builder, name string) {
	fmt.Fprintf(b, "# TYPE %s histogram\n", name)
	cum := int64(0)
	for i, ub := range h.bounds {
		cum += h.counts[i]
		fmt.Fprintf(b, "%s_bucket{le=\"%g\"} %d\n", name, ub, cum)
	}
	cum += h.counts[len(h.bounds)]
	fmt.Fprintf(b, "%s_bucket{le=\"+Inf\"} %d\n", name, cum)
	fmt.Fprintf(b, "%s_sum %g\n", name, h.sum)
	fmt.Fprintf(b, "%s_count %d\n", name, h.n)
}

// renderLabelled writes a counter with one label, its series in label
// order.
func renderLabelled(b *strings.Builder, name, label string, series map[string]int64) {
	keys := make([]string, 0, len(series))
	for k := range series {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	fmt.Fprintf(b, "# TYPE %s counter\n", name)
	for _, k := range keys {
		fmt.Fprintf(b, "%s{%s=%q} %d\n", name, label, k, series[k])
	}
}

// AddFacts credits n learnt facts to a technique label (xl, elimlin, sat,
// groebner, extra, propagation).
func (m *Metrics) AddFacts(technique string, n int) {
	if n == 0 {
		return
	}
	m.mu.Lock()
	m.facts[technique] += int64(n)
	m.mu.Unlock()
}

// ObserveRoute records one routing-enabled job: the classification time
// in nanoseconds always lands in the route_ns histogram, and a non-empty
// fragment label ("2sat", "horn", "antihorn", "xor") additionally counts
// a routed verdict. fragment is "" when the residue was mixed and the
// job fell through to CDCL.
func (m *Metrics) ObserveRoute(fragment string, ns int64) {
	m.mu.Lock()
	if fragment != "" {
		m.routed[fragment]++
	}
	m.route.observe(float64(ns))
	m.mu.Unlock()
}

// ObserveLatency records one completed solve's wall-clock time.
func (m *Metrics) ObserveLatency(d time.Duration) {
	m.mu.Lock()
	m.latency.observe(d.Seconds())
	m.mu.Unlock()
}

// ObserveQueueWait records how long one job waited in the queue.
func (m *Metrics) ObserveQueueWait(d time.Duration) {
	m.mu.Lock()
	m.wait.observe(d.Seconds())
	m.mu.Unlock()
}

// ObserveHit records one cache hit's time in the handler.
func (m *Metrics) ObserveHit(d time.Duration) {
	m.mu.Lock()
	m.hit.observe(d.Seconds())
	m.mu.Unlock()
}

// Render writes the registry in the Prometheus text exposition format
// (counters, gauges and cumulative histograms) — stdlib-only, scrapable, and
// greppable by the smoke tests.
func (m *Metrics) Render() string {
	var b strings.Builder
	count := func(name string, v int64) {
		fmt.Fprintf(&b, "# TYPE %s counter\n%s %d\n", name, name, v)
	}
	count("bosphorusd_jobs_accepted_total", m.JobsAccepted.Load())
	count("bosphorusd_jobs_rejected_total", m.JobsRejected.Load())
	count("bosphorusd_jobs_completed_total", m.JobsCompleted.Load())
	count("bosphorusd_jobs_canceled_total", m.JobsCanceled.Load())
	count("bosphorusd_jobs_failed_total", m.JobsFailed.Load())
	count("bosphorusd_cache_hits_total", m.CacheHits.Load())
	count("bosphorusd_proof_verified_total", m.ProofVerified.Load())
	count("bosphorusd_proof_failed_total", m.ProofFailed.Load())
	count("bosphorusd_cubes_dispatched_total", m.CubesDispatched.Load())
	count("bosphorusd_cube_results_total", m.CubeResults.Load())
	count("bosphorusd_cubes_requeued_total", m.CubesRequeued.Load())
	count("bosphorusd_cubes_reaped_total", m.CubesReaped.Load())
	count("bosphorusd_node_cubes_solved_total", m.NodeCubesSolved.Load())
	fmt.Fprintf(&b, "# TYPE bosphorusd_queue_depth gauge\nbosphorusd_queue_depth %d\n", m.QueueDepth.Load())
	fmt.Fprintf(&b, "# TYPE bosphorusd_cube_jobs_active gauge\nbosphorusd_cube_jobs_active %d\n", m.CubeJobsActive.Load())

	m.mu.Lock()
	renderLabelled(&b, "bosphorusd_facts_learnt_total", "technique", m.facts)
	renderLabelled(&b, "bosphorusd_routed_total", "fragment", m.routed)
	m.route.render(&b, "bosphorusd_route_ns")
	m.latency.render(&b, "bosphorusd_solve_seconds")
	m.wait.render(&b, "bosphorusd_queue_wait_seconds")
	m.hit.render(&b, "bosphorusd_hit_seconds")
	m.mu.Unlock()
	return b.String()
}
