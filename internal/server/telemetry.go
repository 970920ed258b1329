package server

import (
	"net/http"
	"strings"

	"repro/internal/obs"
)

// endpointNames is the fixed set of per-endpoint telemetry keys. Every
// request maps onto exactly one (unknown paths land in "other"), so the
// histogram map is immutable after construction and needs no locking.
var endpointNames = []string{
	"optimize", "sweep", "observe", "models", "solves", "healthz", "stats", "metrics", "trace", "other",
}

// endpointOf maps a request path onto its telemetry key.
func endpointOf(r *http.Request) string {
	p := r.URL.Path
	switch {
	case p == "/v1/optimize":
		return "optimize"
	case p == "/v1/sweep":
		return "sweep"
	case strings.HasPrefix(p, "/v1/models"):
		if strings.HasSuffix(p, "/observe") {
			return "observe"
		}
		return "models"
	case p == "/v1/solves" || strings.HasPrefix(p, "/v1/solves/"):
		return "solves"
	case p == "/v1/healthz":
		return "healthz"
	case p == "/v1/stats":
		return "stats"
	case p == "/metrics":
		return "metrics"
	case p == "/v1/trace":
		return "trace"
	}
	return "other"
}

// recorded reports whether an endpoint's traces are retained in the ring
// buffer. Solver-facing endpoints are; the monitoring plane (stats,
// metrics, trace, healthz) is traced for latency but not retained, so a
// scraper polling /metrics cannot evict the traces worth inspecting.
func recorded(endpoint string) bool {
	switch endpoint {
	case "stats", "metrics", "trace", "healthz", "solves":
		return false
	}
	return true
}

// summarize renders a histogram as the quantile summary served on
// /v1/stats, every value divided by scale.
func summarize(h *obs.Histogram, scale float64) Summary {
	s := h.Snapshot()
	mean := 0.0
	if s.Count > 0 {
		mean = s.Sum / float64(s.Count)
	}
	return Summary{
		Count: s.Count,
		Mean:  mean / scale,
		P50:   s.Quantile(0.50) / scale,
		P90:   s.Quantile(0.90) / scale,
		P99:   s.Quantile(0.99) / scale,
	}
}

// latencySummary summarizes a nanosecond histogram in milliseconds.
func latencySummary(h *obs.Histogram) LatencySummary { return LatencySummary(summarize(h, 1e6)) }

// statsEndpoints is the "endpoints" section of /v1/stats.
func (m *metrics) statsEndpoints() map[string]EndpointStats {
	out := make(map[string]EndpointStats, len(endpointNames))
	for _, name := range endpointNames {
		if n := m.requests[name].Load(); n > 0 {
			out[name] = EndpointStats{Latency: latencySummary(m.latency[name]), Requests: n}
		}
	}
	return out
}

// statsSolve is the "solve" section of /v1/stats.
func (m *metrics) statsSolve() SolveStats {
	st := SolveStats{Pivots: summarize(m.pivotHist, 1), Stages: make(map[string]LatencySummary, len(m.stageHist))}
	for name, h := range m.stageHist {
		st.Stages[name] = latencySummary(h)
	}
	return st
}
