package serve

import (
	"fmt"
	"io"
	"sync"
	"sync/atomic"
	"time"
)

// metrics holds the daemon's counters. Everything is atomic so the hot
// paths (submit, job completion) never serialize on a metrics lock; gauges
// that describe current state (queue depth, jobs by state, cache size) are
// computed from the manager at scrape time instead of being tracked here.
type metrics struct {
	cacheHits      atomic.Int64 // submissions served from the result cache
	cacheMisses    atomic.Int64 // submissions that enqueued a new job
	dedupInflight  atomic.Int64 // submissions attached to a queued/running job
	rejected       atomic.Int64 // submissions shed with 429 (queue full)
	evictions      atomic.Int64 // cache entries dropped to stay under the byte cap
	storeHits      atomic.Int64 // submissions served from the persistent store
	storeWriteErrs atomic.Int64 // write-through Puts that failed (best effort)
	tenantRejected atomic.Int64 // submissions shed with 429 (tenant over quota)
	analyticServed atomic.Int64 // submissions answered inline by the analytic tier
	analyticNanos  atomic.Int64 // total wall-clock spent in analytic answers
	refineEnqueued atomic.Int64 // sim twins enqueued behind analytic answers
	refineSkipped  atomic.Int64 // refinements skipped (queue pressure or window cost)

	finished      [numStates]atomic.Int64 // terminal jobs by final state
	finishedNanos [numStates]atomic.Int64 // total wall-clock by final state

	// Recent sim-job wall-clock durations, for the Retry-After estimate.
	// Analytic answers never pass through here: they are answered inline in
	// microseconds and would drag the mean toward zero.
	durMu   sync.Mutex
	durRing [durRingSize]time.Duration
	durN    int64
}

const durRingSize = 32

// observe records one terminal job.
func (m *metrics) observe(st State, wall time.Duration) {
	m.finished[st].Add(1)
	m.finishedNanos[st].Add(wall.Nanoseconds())
}

// noteJobDuration folds one completed sim job's wall-clock time into the
// recent-duration ring that backs the Retry-After estimate.
func (m *metrics) noteJobDuration(wall time.Duration) {
	m.durMu.Lock()
	m.durRing[m.durN%durRingSize] = wall
	m.durN++
	m.durMu.Unlock()
}

// recentMeanJobDur returns the mean of the last recorded sim-job durations,
// or 0 when no job has completed yet.
func (m *metrics) recentMeanJobDur() time.Duration {
	m.durMu.Lock()
	defer m.durMu.Unlock()
	n := m.durN
	if n == 0 {
		return 0
	}
	if n > durRingSize {
		n = durRingSize
	}
	var sum time.Duration
	for i := int64(0); i < n; i++ {
		sum += m.durRing[i]
	}
	return sum / time.Duration(n)
}

// writeProm emits the Prometheus text exposition format (0.0.4). Hand
// rolled: the repo is stdlib-only, and the format is just typed lines.
func (m *metrics) writeProm(w io.Writer, mgr *manager) {
	gauge := func(name, help string, v any) {
		fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s gauge\n%s %v\n", name, help, name, name, v)
	}
	counter := func(name, help string, v int64) {
		fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s counter\n%s %d\n", name, help, name, name, v)
	}

	gauge("hostnetd_queue_depth", "Jobs waiting for a worker.", mgr.QueueDepth())
	gauge("hostnetd_queue_capacity", "Bounded queue size; beyond this submissions get 429.", cap(mgr.queue))

	var byState [numStates]int
	for _, j := range mgr.Jobs() {
		byState[j.State()]++
	}
	fmt.Fprintf(w, "# HELP hostnetd_jobs Jobs currently tracked (live and cached), by state.\n# TYPE hostnetd_jobs gauge\n")
	for st := StateQueued; st < numStates; st++ {
		fmt.Fprintf(w, "hostnetd_jobs{state=%q} %d\n", st.String(), byState[st])
	}

	entries, bytes := mgr.CacheStats()
	counter("hostnetd_cache_hits_total", "Submissions served from the result cache.", m.cacheHits.Load())
	counter("hostnetd_cache_misses_total", "Submissions that started a new simulation.", m.cacheMisses.Load())
	counter("hostnetd_inflight_dedup_total", "Submissions deduplicated onto an in-flight identical job.", m.dedupInflight.Load())
	counter("hostnetd_jobs_rejected_total", "Submissions shed with 429 because the queue was full.", m.rejected.Load())
	counter("hostnetd_cache_evictions_total", "Cached results evicted to stay under the byte cap.", m.evictions.Load())
	gauge("hostnetd_cache_entries", "Terminal jobs held in the result cache.", entries)
	gauge("hostnetd_cache_bytes", "Approximate bytes held by the result cache.", bytes)
	counter("hostnetd_tenants_rejected_total", "Submissions shed with 429 because the tenant was over quota.", m.tenantRejected.Load())
	counter("hostnetd_analytic_served_total", "Submissions answered inline by the analytic fidelity tier.", m.analyticServed.Load())
	fmt.Fprintf(w, "# HELP hostnetd_analytic_seconds_total Wall-clock seconds spent computing analytic answers.\n# TYPE hostnetd_analytic_seconds_total counter\nhostnetd_analytic_seconds_total %g\n",
		float64(m.analyticNanos.Load())/1e9)
	counter("hostnetd_refine_enqueued_total", "Sim twins enqueued behind analytic answers for cross-validation.", m.refineEnqueued.Load())
	counter("hostnetd_refine_skipped_total", "Refinements skipped under queue pressure or window cost.", m.refineSkipped.Load())

	rs := mgr.runs.Stats()
	counter("hostnetd_runcache_hits_total", "One-host runs served from the run cache.", rs.Hits)
	counter("hostnetd_runcache_waits_total", "One-host run lookups that waited for an identical run in flight.", rs.Waits)
	counter("hostnetd_runcache_misses_total", "One-host runs simulated and offered to the run cache.", rs.Misses)
	counter("hostnetd_runcache_evictions_total", "Runs evicted to stay under the run cache's entry cap.", rs.Evictions)
	gauge("hostnetd_runcache_entries", "One-host runs held in the run cache.", rs.Entries)

	if cv := mgr.cv; cv != nil {
		regions := cv.snapshot()
		gauge("hostnetd_crossval_regions", "Config-space regions with analytic-vs-sim error observations.", len(regions))
		counter("hostnetd_crossval_samples_total", "Analytic-vs-sim comparison points folded into the crossval report.", cv.samples())
		fmt.Fprintf(w, "# HELP hostnetd_crossval_max_abs_err_pct Largest absolute colocated-C2M bandwidth error observed, per region.\n# TYPE hostnetd_crossval_max_abs_err_pct gauge\n")
		for _, r := range regions {
			fmt.Fprintf(w, "hostnetd_crossval_max_abs_err_pct{experiment=%q,quadrant=\"%d\",cores=\"%d\"} %g\n",
				r.Experiment, r.Quadrant, r.Cores, r.MaxAbsErrPct)
		}
	}

	if st := mgr.cfg.Store; st != nil {
		ss := st.Stats()
		counter("hostnetd_store_hits_total", "Submissions served from the persistent store.", m.storeHits.Load())
		counter("hostnetd_store_misses_total", "Store lookups that found nothing (or only damage).", ss.Misses)
		counter("hostnetd_store_puts_total", "Results written to the persistent store.", ss.Puts)
		counter("hostnetd_store_put_noops_total", "Write-throughs skipped because the entry already existed.", ss.PutNoops)
		counter("hostnetd_store_evictions_total", "Store entries removed by GC.", ss.Evictions)
		counter("hostnetd_store_gc_bytes_total", "Payload bytes reclaimed by store GC.", ss.GCBytes)
		counter("hostnetd_store_quarantined_total", "Damaged store entries moved aside.", ss.Quarantined)
		counter("hostnetd_store_write_errors_total", "Write-through failures (result kept in memory only).", m.storeWriteErrs.Load())
		counter("hostnetd_store_atime_errors_total", "Access-time bumps that failed; GC recency order may be stale.", ss.AtimeErrors)
		gauge("hostnetd_store_entries", "Entries held by the persistent store.", ss.Entries)
		gauge("hostnetd_store_bytes", "Payload bytes held by the persistent store.", ss.Bytes)
	}

	if fl := mgr.cfg.Fleet; fl != nil {
		fmt.Fprintf(w, "# HELP hostnetd_fleet_dispatch_total Point dispatches started, per worker (includes retries and steals).\n# TYPE hostnetd_fleet_dispatch_total counter\n")
		stats := fl.Stats()
		for _, ws := range stats {
			fmt.Fprintf(w, "hostnetd_fleet_dispatch_total{worker=%q} %d\n", ws.URL, ws.Dispatched)
		}
		fmt.Fprintf(w, "# HELP hostnetd_fleet_done_total Winning point results returned, per worker.\n# TYPE hostnetd_fleet_done_total counter\n")
		for _, ws := range stats {
			fmt.Fprintf(w, "hostnetd_fleet_done_total{worker=%q} %d\n", ws.URL, ws.Done)
		}
		fmt.Fprintf(w, "# HELP hostnetd_fleet_retries_total Failed dispatches that re-queued their point, per worker.\n# TYPE hostnetd_fleet_retries_total counter\n")
		for _, ws := range stats {
			fmt.Fprintf(w, "hostnetd_fleet_retries_total{worker=%q} %d\n", ws.URL, ws.Retries)
		}
		fmt.Fprintf(w, "# HELP hostnetd_fleet_steals_total Duplicate dispatches of slow in-flight points, per worker.\n# TYPE hostnetd_fleet_steals_total counter\n")
		for _, ws := range stats {
			fmt.Fprintf(w, "hostnetd_fleet_steals_total{worker=%q} %d\n", ws.URL, ws.Steals)
		}
		fmt.Fprintf(w, "# HELP hostnetd_fleet_inflight Points currently dispatched, per worker.\n# TYPE hostnetd_fleet_inflight gauge\n")
		for _, ws := range stats {
			fmt.Fprintf(w, "hostnetd_fleet_inflight{worker=%q} %d\n", ws.URL, ws.InFlight)
		}
	}

	fmt.Fprintf(w, "# HELP hostnetd_jobs_finished_total Jobs that reached a terminal state.\n# TYPE hostnetd_jobs_finished_total counter\n")
	for _, st := range []State{StateDone, StateFailed, StateCanceled} {
		fmt.Fprintf(w, "hostnetd_jobs_finished_total{state=%q} %d\n", st.String(), m.finished[st].Load())
	}
	fmt.Fprintf(w, "# HELP hostnetd_job_seconds_total Wall-clock seconds spent executing jobs, by terminal state.\n# TYPE hostnetd_job_seconds_total counter\n")
	for _, st := range []State{StateDone, StateFailed, StateCanceled} {
		fmt.Fprintf(w, "hostnetd_job_seconds_total{state=%q} %g\n",
			st.String(), float64(m.finishedNanos[st].Load())/1e9)
	}
	gauge("hostnetd_draining", "1 once shutdown has begun, else 0.", boolToInt(mgr.Draining()))
}

func boolToInt(b bool) int {
	if b {
		return 1
	}
	return 0
}
