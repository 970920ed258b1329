package server

import (
	"net/http"
	"regexp"
	"slices"
	"sort"
	"strings"
	"testing"
)

// surfaceTraffic drives one of each solver-facing request (a cold optimize
// and its exact hit, a sweep, an observe batch large enough to install a
// policy) plus a scrape of each monitoring surface, so every lazily created
// series exists.
func surfaceTraffic(t *testing.T, base string) {
	t.Helper()
	req := OptimizeRequest{Model: "disk", Bounds: []BoundSpec{{Metric: "penalty", Rel: "<=", Value: 1.5}}}
	for range 2 {
		if st := call(t, http.MethodPost, base+"/v1/optimize", req, nil); st != http.StatusOK {
			t.Fatalf("optimize status %d", st)
		}
	}
	sw := SweepRequest{
		OptimizeRequest: OptimizeRequest{Model: "disk", Objective: "power"},
		Sweep:           SweepSpec{Metric: "penalty", Rel: "<=", Values: []float64{0.8, 1.2}, Workers: 1},
	}
	if st := call(t, http.MethodPost, base+"/v1/sweep", sw, nil); st != http.StatusOK {
		t.Fatalf("sweep status %d", st)
	}
	counts := make([]int, 400)
	for i := range counts {
		counts[i] = i % 3 / 2
	}
	var or ObserveResponse
	if st := call(t, http.MethodPost, base+"/v1/models/disk/observe", observeBody(counts), &or); st != http.StatusOK || !or.Refreshed {
		t.Fatalf("observe status %d refreshed %v (%s)", st, or.Refreshed, or.RefreshError)
	}
	if st := call(t, http.MethodGet, base+"/v1/stats", nil, nil); st != http.StatusOK {
		t.Fatalf("stats status %d", st)
	}
	resp, err := http.Get(base + "/metrics")
	if err != nil {
		t.Fatalf("GET /metrics: %v", err)
	}
	resp.Body.Close()
}

// servedCounters are the /v1/stats "counters" keys.
var servedCounters = []string{
	"budget_exceeded", "cancelled_solves", "cold_solves", "evictions", "exact_hits",
	"infeasible", "observe_requests", "online_drift_refreshes", "online_failed",
	"online_patched", "online_rebuilt", "online_refreshes", "online_warm",
	"optimize_queries", "pivots", "refactorizations", "requests", "shared_solves",
	"slices_ingested", "solve_btran_ns", "solve_factor_ns", "solve_ftran_ns",
	"solve_price_ns", "solve_update_ns", "sweep_queries", "warm_solves",
}

// servedFamilies are the /metrics families after surfaceTraffic: name, type
// and label names (le aside).
var servedFamilies = []string{
	"dpmserved_budget_exceeded_total counter",
	"dpmserved_cache_size gauge",
	"dpmserved_cancelled_solves_total counter",
	"dpmserved_cold_solves_total counter",
	"dpmserved_dropped_spans_total counter",
	"dpmserved_endpoint_requests_total counter endpoint",
	"dpmserved_evictions_total counter",
	"dpmserved_exact_hits_total counter",
	"dpmserved_infeasible_total counter",
	"dpmserved_models gauge",
	"dpmserved_observe_requests_total counter",
	"dpmserved_online_drift_refreshes_total counter",
	"dpmserved_online_failed_total counter",
	"dpmserved_online_patched_total counter",
	"dpmserved_online_rebuilt_total counter",
	"dpmserved_online_refreshes_total counter",
	"dpmserved_online_warm_total counter",
	"dpmserved_optimize_queries_total counter",
	"dpmserved_pivots_total counter",
	"dpmserved_refactorizations_total counter",
	"dpmserved_request_duration_seconds histogram endpoint",
	"dpmserved_requests_total counter",
	"dpmserved_shared_solves_total counter",
	"dpmserved_slices_ingested_total counter",
	"dpmserved_solve_btran_ns_total counter",
	"dpmserved_solve_factor_ns_total counter",
	"dpmserved_solve_ftran_ns_total counter",
	"dpmserved_solve_pivots histogram",
	"dpmserved_solve_price_ns_total counter",
	"dpmserved_solve_stage_duration_seconds histogram stage",
	"dpmserved_solve_update_ns_total counter",
	"dpmserved_solves_inflight gauge",
	"dpmserved_solves_inflight_observe gauge",
	"dpmserved_solves_inflight_optimize gauge",
	"dpmserved_solves_inflight_sweep gauge",
	"dpmserved_sweep_queries_total counter",
	"dpmserved_uptime_seconds gauge",
	"dpmserved_warm_solves_total counter",
}

var labelNameRe = regexp.MustCompile(`([a-zA-Z_][a-zA-Z0-9_]*)="`)

// TestObservableSurface pins every name the daemon serves: the /v1/stats
// counters keys, the Server.Stats keys (the counters plus one
// requests_<endpoint> per endpoint that served traffic), and every /metrics
// family with its type and label names. cmd/dpmtop and the bench
// harness read these names.
func TestObservableSurface(t *testing.T) {
	srv, base := newTestServer(t)
	surfaceTraffic(t, base)

	var stats struct {
		Counters map[string]int64 `json:"counters"`
	}
	if st := call(t, http.MethodGet, base+"/v1/stats", nil, &stats); st != http.StatusOK {
		t.Fatalf("stats status %d", st)
	}
	if got := sortedKeys(stats.Counters); !slices.Equal(got, servedCounters) {
		t.Errorf("/v1/stats counters keys\n got %q\nwant %q", got, servedCounters)
	}

	wantStats := append(slices.Clone(servedCounters),
		"requests_metrics", "requests_observe", "requests_optimize", "requests_stats", "requests_sweep")
	sort.Strings(wantStats)
	if got := sortedKeys(srv.Stats()); !slices.Equal(got, wantStats) {
		t.Errorf("Server.Stats keys\n got %q\nwant %q", got, wantStats)
	}

	resp, err := http.Get(base + "/metrics")
	if err != nil {
		t.Fatalf("GET /metrics: %v", err)
	}
	defer resp.Body.Close()
	var got []string
	for name, f := range parseProm(t, readAll(t, resp)) {
		labels := map[string]bool{}
		for _, sm := range f.samples {
			for _, m := range labelNameRe.FindAllStringSubmatch(sm.labels, -1) {
				if m[1] != "le" {
					labels[m[1]] = true
				}
			}
		}
		got = append(got, strings.Join(append([]string{name, f.typ}, sortedKeys(labels)...), " "))
	}
	sort.Strings(got)
	if !slices.Equal(got, servedFamilies) {
		t.Errorf("/metrics families\n got %q\nwant %q", got, servedFamilies)
	}
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
