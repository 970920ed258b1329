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

// summary renders a histogram as the quantile summary served on /v1/stats:
// count, mean and p50/p90/p99, each divided by scale and keyed with unit
// ("_ms" for nanosecond latencies, "" for pivot counts).
func summary(h *obs.Histogram, scale float64, unit string) map[string]any {
	s := h.Snapshot()
	mean := 0.0
	if s.Count > 0 {
		mean = s.Sum / float64(s.Count)
	}
	return map[string]any{
		"count":       s.Count,
		"mean" + unit: mean / scale,
		"p50" + unit:  s.Quantile(0.50) / scale,
		"p90" + unit:  s.Quantile(0.90) / scale,
		"p99" + unit:  s.Quantile(0.99) / scale,
	}
}

// statsEndpoints is the "endpoints" section of /v1/stats.
func (m *metrics) statsEndpoints() map[string]any {
	out := make(map[string]any, len(endpointNames))
	for _, name := range endpointNames {
		n := m.requests[name].Load()
		if n == 0 {
			continue
		}
		out[name] = map[string]any{
			"requests": n,
			"latency":  summary(m.latency[name], 1e6, "_ms"),
		}
	}
	return out
}

// statsSolve is the "solve" section of /v1/stats.
func (m *metrics) statsSolve() map[string]any {
	stages := make(map[string]any, len(m.stageHist))
	for name, h := range m.stageHist {
		stages[name] = summary(h, 1e6, "_ms")
	}
	return map[string]any{
		"pivots": summary(m.pivotHist, 1, ""),
		"stages": stages,
	}
}
