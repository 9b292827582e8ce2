package server

import (
	"time"

	"mpsched/internal/obs"
	"mpsched/internal/pipeline"
	"mpsched/internal/store"
)

// metrics declares mpschedd's /metrics families on one obs.Registry and
// holds the handles the serving paths record into. Latency families are
// log-linear histograms (internal/obs), O(1) per observation over the
// full history. Values the server owns elsewhere — queue depth, cache
// and tier stats, uptime — are sampled at scrape time.
type metrics struct {
	reg   *obs.Registry
	start time.Time

	// requests and reqSeconds are per route (× codec); Server.route
	// resolves each route's handles once at registration.
	requests   obs.CounterVec
	reqSeconds obs.SummaryVec

	// Handles of the owned families; each one's HELP text in newMetrics
	// says what it counts.
	compiles, compileErrors                                *obs.Counter
	jobsSubmitted, jobsCompleted, jobsFailed, jobsRejected *obs.Counter
	batchJobs, batchRejected                               *obs.Counter
	panics, deadlineExpired, shedAsync, shedSync           *obs.Counter
	inflightRequests, inflightBatch                        *obs.Gauge

	// Compile latency is split by outcome, so an error storm shows in its
	// own quantiles. stages holds compiler-stage wall clock by stage name,
	// plus "cache" for results served from the result cache; it is
	// read-only after newMetrics, so lookups take no lock.
	compileOK, compileErr, queueWait *obs.LockedHistogram
	stages                           map[string]*obs.LockedHistogram
}

func newMetrics(s *Server) *metrics {
	r := obs.NewRegistry()
	m := &metrics{reg: r, start: time.Now()}
	cacheStats := func() store.Stats {
		if s.cache == nil {
			return store.Stats{}
		}
		return s.cache.Stats()
	}

	m.requests = r.CounterVec("mpschedd_requests_total", "HTTP requests by route.", "route")
	m.compiles = r.Counter("mpschedd_compiles_total", "Compile attempts (sync and async).")
	m.compileErrors = r.Counter("mpschedd_compile_errors_total", "Compile attempts that failed.")
	r.CounterFunc("mpschedd_cache_hits_total", "Result-cache hits.", func() float64 { return float64(cacheStats().Hits) })
	r.CounterFunc("mpschedd_cache_misses_total", "Result-cache misses.", func() float64 { return float64(cacheStats().Misses) })
	r.GaugeFunc("mpschedd_cache_entries", "Results currently cached.", func() float64 { return float64(cacheStats().Entries) })

	// A tiered store additionally exposes per-tier breakdowns; plain
	// memory caches emit none, so these families are left out.
	tier := func(name, help string, kind obs.Kind, v func(store.TierStats) int64) {
		r.Sampled(name, help, kind, []string{"tier"}, func(emit func(float64, ...string)) {
			if t, ok := s.cache.(store.Tiers); ok {
				for _, ts := range t.Tiers() {
					emit(float64(v(ts)), ts.Tier)
				}
			}
		})
	}
	tier("mpschedd_store_hits_total", "Result-store hits by tier.", obs.CounterKind,
		func(t store.TierStats) int64 { return t.Hits })
	tier("mpschedd_store_misses_total", "Result-store misses by tier.", obs.CounterKind,
		func(t store.TierStats) int64 { return t.Misses })
	tier("mpschedd_store_evictions_total", "Result-store evictions by tier.", obs.CounterKind,
		func(t store.TierStats) int64 { return t.Evictions })
	tier("mpschedd_store_entries", "Results currently stored by tier.", obs.GaugeKind,
		func(t store.TierStats) int64 { return int64(t.Entries) })
	tier("mpschedd_store_bytes", "Bytes held by tier (disk tiers only).", obs.GaugeKind,
		func(t store.TierStats) int64 { return t.Bytes })

	m.jobsSubmitted = r.Counter("mpschedd_jobs_submitted_total", "Async jobs accepted into the queue.")
	m.jobsCompleted = r.Counter("mpschedd_jobs_completed_total", "Async jobs finished successfully.")
	m.jobsFailed = r.Counter("mpschedd_jobs_failed_total", "Async jobs finished with an error.")
	m.jobsRejected = r.Counter("mpschedd_jobs_rejected_total", "Async jobs refused at admission.")
	m.batchJobs = r.Counter("mpschedd_batch_jobs_total", "Batch jobs admitted across all envelopes.")
	m.batchRejected = r.Counter("mpschedd_batch_rejected_total", "Batch jobs refused at admission.")
	m.panics = r.Counter("mpschedd_panics_total", "Panics isolated to one request or job; the daemon survived each.")
	m.deadlineExpired = r.Counter("mpschedd_deadline_expired_total", "Requests or jobs that ran out of their deadline budget.")
	const shedHelp = "Work shed by the brownout controller, by class."
	m.shedAsync = r.Counter("mpschedd_shed_total", shedHelp, "class", "async")
	m.shedSync = r.Counter("mpschedd_shed_total", shedHelp, "class", "sync")

	r.GaugeFunc("mpschedd_queue_depth", "Async jobs waiting in the queue.", func() float64 { return float64(len(s.queue)) })
	r.GaugeFunc("mpschedd_queue_capacity", "Async queue admission bound.", func() float64 { return float64(s.opts.QueueDepth) })
	m.inflightRequests = r.Gauge("mpschedd_inflight_requests", "HTTP requests currently being handled.")
	m.inflightBatch = r.Gauge("mpschedd_inflight_batch_jobs", "Batch jobs admitted and not yet finished.")
	r.GaugeFunc("mpschedd_uptime_seconds", "Seconds since the daemon started.", func() float64 { return time.Since(m.start).Seconds() })
	// Every compile — sync, async or batch — passes through
	// observeCompile, so successful compiles is the jobs/sec numerator.
	r.GaugeFunc("mpschedd_jobs_per_second", "Successful compiles per second of uptime.", func() float64 {
		uptime := time.Since(m.start).Seconds()
		if uptime <= 0 {
			return 0
		}
		return float64(m.compiles.Value()-m.compileErrors.Value()) / uptime
	})

	m.reqSeconds = r.SummaryVec("mpschedd_request_seconds", "End-to-end request latency by route and codec.", "route", "codec")
	const compileHelp = "Compile wall-clock latency by outcome."
	m.compileOK = r.Summary("mpschedd_compile_seconds", compileHelp, "outcome", "ok")
	m.compileErr = r.Summary("mpschedd_compile_seconds", compileHelp, "outcome", "error")
	m.queueWait = r.Summary("mpschedd_queue_wait_seconds", "Async job wait from admission to a worker picking it up.")
	stage := r.SummaryVec("mpschedd_stage_seconds", `Compiler stage wall clock by stage ("cache" = served from the result cache).`, "stage")
	m.stages = map[string]*obs.LockedHistogram{"cache": stage.With("cache")}
	for st := pipeline.StageParse; st <= pipeline.StageAllocate; st++ {
		m.stages[st.String()] = stage.With(st.String())
	}
	return m
}
