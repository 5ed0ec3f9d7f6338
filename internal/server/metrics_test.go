package server

import (
	"testing"
	"time"
)

// metricsGolden is Render's output for the observations below. /metrics
// is scraped and grepped by byte, so this text is part of the service's
// interface.
const metricsGolden = `# TYPE bosphorusd_jobs_accepted_total counter
bosphorusd_jobs_accepted_total 7
# TYPE bosphorusd_jobs_rejected_total counter
bosphorusd_jobs_rejected_total 1
# TYPE bosphorusd_jobs_completed_total counter
bosphorusd_jobs_completed_total 5
# TYPE bosphorusd_jobs_canceled_total counter
bosphorusd_jobs_canceled_total 1
# TYPE bosphorusd_jobs_failed_total counter
bosphorusd_jobs_failed_total 2
# TYPE bosphorusd_cache_hits_total counter
bosphorusd_cache_hits_total 3
# TYPE bosphorusd_proof_verified_total counter
bosphorusd_proof_verified_total 40
# TYPE bosphorusd_proof_failed_total counter
bosphorusd_proof_failed_total 1
# TYPE bosphorusd_cubes_dispatched_total counter
bosphorusd_cubes_dispatched_total 16
# TYPE bosphorusd_cube_results_total counter
bosphorusd_cube_results_total 15
# TYPE bosphorusd_cubes_requeued_total counter
bosphorusd_cubes_requeued_total 2
# TYPE bosphorusd_cubes_reaped_total counter
bosphorusd_cubes_reaped_total 1
# TYPE bosphorusd_node_cubes_solved_total counter
bosphorusd_node_cubes_solved_total 9
# TYPE bosphorusd_queue_depth gauge
bosphorusd_queue_depth 4
# TYPE bosphorusd_cube_jobs_active gauge
bosphorusd_cube_jobs_active 1
# TYPE bosphorusd_facts_learnt_total counter
bosphorusd_facts_learnt_total{technique="elimlin"} 11
bosphorusd_facts_learnt_total{technique="sat"} 5
bosphorusd_facts_learnt_total{technique="xl"} 3
# TYPE bosphorusd_routed_total counter
bosphorusd_routed_total{fragment="2sat"} 2
bosphorusd_routed_total{fragment="antihorn"} 1
bosphorusd_routed_total{fragment="horn"} 1
bosphorusd_routed_total{fragment="xor"} 1
# TYPE bosphorusd_route_ns histogram
bosphorusd_route_ns_bucket{le="1000"} 2
bosphorusd_route_ns_bucket{le="10000"} 2
bosphorusd_route_ns_bucket{le="100000"} 3
bosphorusd_route_ns_bucket{le="1e+06"} 4
bosphorusd_route_ns_bucket{le="1e+07"} 5
bosphorusd_route_ns_bucket{le="1e+08"} 5
bosphorusd_route_ns_bucket{le="1e+09"} 5
bosphorusd_route_ns_bucket{le="+Inf"} 6
bosphorusd_route_ns_sum 2.007665306e+09
bosphorusd_route_ns_count 6
# TYPE bosphorusd_solve_seconds histogram
bosphorusd_solve_seconds_bucket{le="0.005"} 2
bosphorusd_solve_seconds_bucket{le="0.01"} 3
bosphorusd_solve_seconds_bucket{le="0.025"} 3
bosphorusd_solve_seconds_bucket{le="0.05"} 3
bosphorusd_solve_seconds_bucket{le="0.1"} 3
bosphorusd_solve_seconds_bucket{le="0.25"} 3
bosphorusd_solve_seconds_bucket{le="0.5"} 3
bosphorusd_solve_seconds_bucket{le="1"} 3
bosphorusd_solve_seconds_bucket{le="2.5"} 4
bosphorusd_solve_seconds_bucket{le="5"} 4
bosphorusd_solve_seconds_bucket{le="10"} 4
bosphorusd_solve_seconds_bucket{le="30"} 4
bosphorusd_solve_seconds_bucket{le="60"} 4
bosphorusd_solve_seconds_bucket{le="+Inf"} 5
bosphorusd_solve_seconds_sum 91.246567
bosphorusd_solve_seconds_count 5
# TYPE bosphorusd_queue_wait_seconds histogram
bosphorusd_queue_wait_seconds_bucket{le="0.0001"} 1
bosphorusd_queue_wait_seconds_bucket{le="0.00025"} 1
bosphorusd_queue_wait_seconds_bucket{le="0.0005"} 1
bosphorusd_queue_wait_seconds_bucket{le="0.001"} 1
bosphorusd_queue_wait_seconds_bucket{le="0.0025"} 1
bosphorusd_queue_wait_seconds_bucket{le="0.005"} 2
bosphorusd_queue_wait_seconds_bucket{le="0.01"} 2
bosphorusd_queue_wait_seconds_bucket{le="0.025"} 2
bosphorusd_queue_wait_seconds_bucket{le="0.05"} 2
bosphorusd_queue_wait_seconds_bucket{le="0.1"} 2
bosphorusd_queue_wait_seconds_bucket{le="0.25"} 2
bosphorusd_queue_wait_seconds_bucket{le="0.5"} 2
bosphorusd_queue_wait_seconds_bucket{le="1"} 2
bosphorusd_queue_wait_seconds_bucket{le="2.5"} 3
bosphorusd_queue_wait_seconds_bucket{le="5"} 3
bosphorusd_queue_wait_seconds_bucket{le="10"} 3
bosphorusd_queue_wait_seconds_bucket{le="30"} 3
bosphorusd_queue_wait_seconds_bucket{le="60"} 3
bosphorusd_queue_wait_seconds_bucket{le="+Inf"} 4
bosphorusd_queue_wait_seconds_sum 77.00304
bosphorusd_queue_wait_seconds_count 4
# TYPE bosphorusd_hit_seconds histogram
bosphorusd_hit_seconds_bucket{le="0.0001"} 1
bosphorusd_hit_seconds_bucket{le="0.00025"} 1
bosphorusd_hit_seconds_bucket{le="0.0005"} 2
bosphorusd_hit_seconds_bucket{le="0.001"} 2
bosphorusd_hit_seconds_bucket{le="0.0025"} 3
bosphorusd_hit_seconds_bucket{le="0.005"} 3
bosphorusd_hit_seconds_bucket{le="0.01"} 3
bosphorusd_hit_seconds_bucket{le="0.025"} 3
bosphorusd_hit_seconds_bucket{le="0.05"} 3
bosphorusd_hit_seconds_bucket{le="0.1"} 3
bosphorusd_hit_seconds_bucket{le="0.25"} 3
bosphorusd_hit_seconds_bucket{le="0.5"} 3
bosphorusd_hit_seconds_bucket{le="1"} 3
bosphorusd_hit_seconds_bucket{le="2.5"} 3
bosphorusd_hit_seconds_bucket{le="5"} 3
bosphorusd_hit_seconds_bucket{le="10"} 3
bosphorusd_hit_seconds_bucket{le="30"} 3
bosphorusd_hit_seconds_bucket{le="60"} 3
bosphorusd_hit_seconds_bucket{le="+Inf"} 3
bosphorusd_hit_seconds_sum 0.0016799999999999999
bosphorusd_hit_seconds_count 3
`

func TestMetricsRenderGolden(t *testing.T) {
	m := NewMetrics()
	m.JobsAccepted.Add(7)
	m.JobsRejected.Add(1)
	m.JobsCompleted.Add(5)
	m.JobsCanceled.Add(1)
	m.JobsFailed.Add(2)
	m.CacheHits.Add(3)
	m.ProofVerified.Add(40)
	m.ProofFailed.Add(1)
	m.CubesDispatched.Add(16)
	m.CubeResults.Add(15)
	m.CubesRequeued.Add(2)
	m.CubesReaped.Add(1)
	m.NodeCubesSolved.Add(9)
	m.QueueDepth.Add(4)
	m.CubeJobsActive.Add(1)
	m.AddFacts("xl", 2)
	m.AddFacts("sat", 5)
	m.AddFacts("propagation", 0)
	m.AddFacts("elimlin", 11)
	m.AddFacts("xl", 1)
	m.ObserveRoute("2sat", 850)
	m.ObserveRoute("", 1000)
	m.ObserveRoute("xor", 123456)
	m.ObserveRoute("horn", 7_500_000)
	m.ObserveRoute("2sat", 2_000_000_000)
	m.ObserveRoute("antihorn", 40_000)
	m.ObserveLatency(7 * time.Millisecond)
	m.ObserveLatency(5 * time.Millisecond)
	m.ObserveLatency(1234567 * time.Microsecond)
	m.ObserveLatency(90 * time.Second)
	m.ObserveLatency(0)
	m.ObserveQueueWait(40 * time.Microsecond)
	m.ObserveQueueWait(3 * time.Millisecond)
	m.ObserveQueueWait(2 * time.Second)
	m.ObserveQueueWait(75 * time.Second)
	m.ObserveHit(80 * time.Microsecond)
	m.ObserveHit(400 * time.Microsecond)
	m.ObserveHit(1200 * time.Microsecond)
	if got := m.Render(); got != metricsGolden {
		t.Errorf("Render drifted from the golden text:\n got:\n%s\nwant:\n%s", got, metricsGolden)
	}
}
