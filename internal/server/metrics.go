package server

import (
	"sync/atomic"
	"time"

	"repro/internal/lp"
	"repro/internal/obs"
)

// metrics is the server's observability surface. Every metric is declared
// once — the unlabelled counters by their field tags, the rest in
// newMetrics — on one obs.Registry that renders the /v1/stats counters map,
// Server.Stats and the /metrics exposition (under the dpmserved_ prefix). The end-to-end tests replay a query stream and assert
// on exactly these numbers.
//
// Outcome counters are incremented where the outcome is known. Solver work
// — pivots, refactorizations, per-stage wall clock and their histograms —
// is counted in one place, finish, fed by the flight recorder once per
// solve attempt.
type metrics struct {
	reg *obs.Registry

	// The unlabelled counters, declared by their tags in this order.
	OptimizeQueries  *atomic.Int64 `metric:"optimize_queries" help:"POST /v1/optimize bodies accepted."`
	SweepQueries     *atomic.Int64 `metric:"sweep_queries" help:"POST /v1/sweep bodies accepted."`
	ExactHits        *atomic.Int64 `metric:"exact_hits" help:"Queries answered from the result cache without a solve."`
	WarmSolves       *atomic.Int64 `metric:"warm_solves" help:"Solves that reused a cached warm-start basis."`
	ColdSolves       *atomic.Int64 `metric:"cold_solves" help:"Solves from scratch."`
	SharedSolves     *atomic.Int64 `metric:"shared_solves" help:"Queries deduplicated onto an in-flight solve."`
	Infeasible       *atomic.Int64 `metric:"infeasible" help:"Solves that proved the constraint set infeasible."`
	CancelledSolves  *atomic.Int64 `metric:"cancelled_solves" help:"Solves aborted by deadline or client detach."`
	BudgetExceeded   *atomic.Int64 `metric:"budget_exceeded" help:"Solves stopped by a client pivot budget."`
	Evictions        *atomic.Int64 `metric:"evictions" help:"Cache entries evicted by the LRU."`
	Pivots           *atomic.Int64 `metric:"pivots" help:"Simplex pivots performed across all solve attempts, discarded ones included."`
	Refactorizations *atomic.Int64 `metric:"refactorizations" help:"Basis refactorizations across all solve attempts, discarded ones included."`

	// Online adaptation (POST /v1/models/{id}/observe).
	ObserveRequests      *atomic.Int64 `metric:"observe_requests" help:"Observe bodies accepted."`
	SlicesIngested       *atomic.Int64 `metric:"slices_ingested" help:"Workload slices fed to streaming estimators."`
	OnlineRefreshes      *atomic.Int64 `metric:"online_refreshes" help:"Policies installed by the drift controller."`
	OnlineDriftRefreshes *atomic.Int64 `metric:"online_drift_refreshes" help:"Refreshes triggered by measured drift."`
	OnlinePatched        *atomic.Int64 `metric:"online_patched" help:"Refreshes that revised the LP in place."`
	OnlineRebuilt        *atomic.Int64 `metric:"online_rebuilt" help:"Refreshes that reassembled the LP."`
	OnlineWarm           *atomic.Int64 `metric:"online_warm" help:"Refreshes whose solve reused the previous basis."`
	OnlineFailed         *atomic.Int64 `metric:"online_failed" help:"Refresh attempts that kept the old policy."`

	// Per-endpoint request counts and latency (nanoseconds), keyed by
	// endpointNames; every request maps onto exactly one endpoint.
	requests map[string]*atomic.Int64
	latency  map[string]*obs.Histogram

	// Per-stage solver work, keyed by lp.Timings stage name.
	stageNS   map[string]*atomic.Int64
	pivotHist *obs.Histogram
	stageHist map[string]*obs.Histogram

	// inflight is the flight recorder's gauge set: solves in flight, in
	// total and per endpoint.
	inflight *obs.Gauges
}

// newMetrics declares the server's metrics. The readings (dropped spans,
// cache size, model count, uptime) are read from s at render time.
func newMetrics(s *Server) *metrics {
	r := obs.NewRegistry("dpmserved_")
	m := &metrics{reg: r, stageNS: map[string]*atomic.Int64{}, inflight: obs.NewGauges()}
	m.requests = r.CounterVec("endpoint_requests", "HTTP requests by endpoint.", "endpoint", endpointNames)
	r.Sum("requests", "HTTP requests across all endpoints.", m.requests)
	r.Counters(m)
	var stages []string
	for _, st := range (lp.Timings{}).Stages() {
		stages = append(stages, st.Name)
		m.stageNS[st.Name] = r.Counter("solve_"+st.Name+"_ns",
			"Cumulative solver "+st.Name+" stage wall clock across all solve attempts, nanoseconds.")
	}

	r.Reading("dropped_spans", "Trace spans dropped by the per-trace span cap.", "counter",
		func() float64 { return float64(s.recorder.DroppedSpans()) })
	// Seed the aggregate gauge so the scrape surface always carries it, idle
	// servers included.
	m.inflight.Add("solves_inflight", 0)
	r.Gauges("Flight-recorder gauge: solves currently in flight.", m.inflight)
	r.Reading("cache_size", "Cached query results and bases.", "gauge", func() float64 { return float64(s.cache.len()) })
	r.Reading("models", "Resident compiled models.", "gauge", func() float64 { return float64(s.reg.size()) })
	r.Reading("uptime_seconds", "Seconds since the server started.", "gauge", func() float64 { return time.Since(s.start).Seconds() })

	m.latency = r.Histograms("request_duration_seconds", "Request latency by endpoint.",
		"endpoint", endpointNames, 1e-9, obs.NewLatencyHistogram)
	m.stageHist = r.Histograms("solve_stage_duration_seconds", "Per-stage solver wall clock per solve attempt.",
		"stage", stages, 1e-9, obs.NewLatencyHistogram)
	m.pivotHist = r.Histograms("solve_pivots", "Simplex pivots per solve attempt.", "", nil, 1, obs.NewCountHistogram)[""]
	return m
}

// finish folds one solve attempt's work, reported by its flight recorder
// "finish" snapshot, into the work counters and histograms. Every solve the
// server runs reports here once per attempt — warm start, cold fallback,
// each sweep point, each online refresh — whether the attempt's answer is
// served, discarded or an error.
func (m *metrics) finish(sn lp.Snapshot) {
	m.Pivots.Add(int64(sn.Pivots))
	m.Refactorizations.Add(int64(sn.Refactorizations))
	m.pivotHist.Observe(float64(sn.Pivots))
	timed := sn.Timings.Total() > 0
	for _, st := range sn.Timings.Stages() {
		m.stageNS[st.Name].Add(int64(st.D))
		if timed {
			m.stageHist[st.Name].ObserveDuration(st.D)
		}
	}
}
