package fleet

import (
	"time"

	"mpsched/internal/obs"
	"mpsched/internal/server/client"
	"mpsched/internal/store"
)

// routerMetrics declares mpschedrouter's /metrics families on one
// obs.Registry — same idioms as mpschedd's surface under the
// mpschedrouter_ prefix, plus the fleet-specific per-backend series the
// CI scaling gate scrapes (backend_up, forwarded/rerouted/errors per
// backend). Pool, shared-cache and resilience state is sampled at
// scrape time.
type routerMetrics struct {
	reg   *obs.Registry
	start time.Time

	// requests and reqSeconds are per route; Router.route resolves each
	// route's handles once at registration.
	requests   obs.CounterVec
	reqSeconds obs.SummaryVec
	inflight   *obs.Gauge

	l2ServedMoved    *obs.Counter // L2 hits served because the ring moved the key
	l2ServedFallback *obs.Counter // L2 hits served because every replica was down
}

func newRouterMetrics(rt *Router) *routerMetrics {
	r := obs.NewRegistry()
	m := &routerMetrics{reg: r, start: time.Now()}

	m.requests = r.CounterVec("mpschedrouter_requests_total", "HTTP requests by route.", "route")

	// Per-backend fleet state — the series the CI fleet gate scrapes.
	backend := func(name, help string, kind obs.Kind, v func(*Backend) int64) {
		r.Sampled(name, help, kind, []string{"backend"}, func(emit func(float64, ...string)) {
			for _, b := range rt.pool.backends {
				emit(float64(v(b)), b.URL)
			}
		})
	}
	backend("mpschedrouter_backend_up", "Whether each backend is in rotation (1) or demoted (0).", obs.GaugeKind,
		func(b *Backend) int64 {
			if b.Up() {
				return 1
			}
			return 0
		})
	backend("mpschedrouter_forwarded_total", "Requests forwarded per backend (any outcome).", obs.CounterKind,
		func(b *Backend) int64 { return b.forwarded.Load() })
	backend("mpschedrouter_rerouted_total", "Forwards that were failovers from an earlier ring replica.", obs.CounterKind,
		func(b *Backend) int64 { return b.rerouted.Load() })
	backend("mpschedrouter_backend_errors_total", "Forwards that failed with a transport fault, 5xx, or open breaker.", obs.CounterKind,
		func(b *Backend) int64 { return b.errored.Load() })

	r.GaugeFunc("mpschedrouter_backends", "Configured fleet size.", func() float64 { return float64(len(rt.pool.backends)) })
	r.GaugeFunc("mpschedrouter_backends_up", "Backends currently in rotation.", func() float64 { return float64(rt.pool.upCount()) })
	r.CounterFunc("mpschedrouter_demotions_total", "Backends taken out of rotation for health.", func() float64 { return float64(rt.pool.demotions.Load()) })
	r.CounterFunc("mpschedrouter_rebalances_total", "Hash-ring rebuilds (demotions plus revivals).", func() float64 { return float64(rt.pool.rebalances.Load()) })

	const servedHelp = "Responses served from the router's shared cache, by reason."
	m.l2ServedMoved = r.Counter("mpschedrouter_l2_served_total", servedHelp, "reason", "moved")
	m.l2ServedFallback = r.Counter("mpschedrouter_l2_served_total", servedHelp, "reason", "fallback")
	r.GaugeFunc("mpschedrouter_l2_entries", "Responses currently in the shared cache.", func() float64 { return float64(rt.l2.entries()) })
	tier := func(name, help string, kind obs.Kind, v func(store.TierStats) int64) {
		r.Sampled(name, help, kind, []string{"tier"}, func(emit func(float64, ...string)) {
			for _, t := range rt.l2.tiers() {
				emit(float64(v(t)), t.Tier)
			}
		})
	}
	tier("mpschedrouter_l2_tier_hits_total", "Shared-cache hits by tier.", obs.CounterKind,
		func(t store.TierStats) int64 { return t.Hits })
	tier("mpschedrouter_l2_tier_entries", "Shared-cache entries by tier.", obs.GaugeKind,
		func(t store.TierStats) int64 { return int64(t.Entries) })
	tier("mpschedrouter_l2_tier_bytes", "Shared-cache bytes by tier (disk only).", obs.GaugeKind,
		func(t store.TierStats) int64 { return t.Bytes })

	// The forwarding clients share one resilience layer, so these are
	// fleet-wide sums; per-backend splits live in the breaker/hedger maps
	// keyed by base URL, surfaced here as totals.
	resilience := func(name, help string, v func(client.ResilienceStats) int64) {
		r.CounterFunc(name, help, func() float64 { return float64(v(rt.root.ResilienceStats())) })
	}
	resilience("mpschedrouter_retried_total", "Forward attempts retried by the client layer.",
		func(s client.ResilienceStats) int64 { return s.Retries })
	resilience("mpschedrouter_hedged_total", "Forward attempts hedged by the client layer.",
		func(s client.ResilienceStats) int64 { return s.Hedges })
	resilience("mpschedrouter_hedge_wins_total", "Hedged attempts that produced the winning response.",
		func(s client.ResilienceStats) int64 { return s.HedgeWins })
	resilience("mpschedrouter_breaker_trips_total", "Per-backend circuit-breaker openings.",
		func(s client.ResilienceStats) int64 { return s.BreakerTrips })
	resilience("mpschedrouter_breaker_fast_fails_total", "Forwards rejected on an already-open breaker.",
		func(s client.ResilienceStats) int64 { return s.BreakerFastFails })

	m.inflight = r.Gauge("mpschedrouter_inflight_requests", "HTTP requests currently being handled.")
	r.GaugeFunc("mpschedrouter_uptime_seconds", "Seconds since the router started.", func() float64 { return time.Since(m.start).Seconds() })
	m.reqSeconds = r.SummaryVec("mpschedrouter_request_seconds", "End-to-end request latency by route.", "route")
	return m
}
