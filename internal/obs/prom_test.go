package obs

import (
	"strings"
	"testing"
)

func TestPromWriterShape(t *testing.T) {
	var b strings.Builder
	p := NewPromWriter(&b)
	p.Family("dpm_requests_total", "counter", "HTTP requests.")
	p.Sample("dpm_requests_total", "", 12)
	p.Family("dpm_models", "gauge", "Resident models.")
	p.Sample("dpm_models", "", 7)
	h := NewHistogram(10, 10, 4) // bounds 10, 100, 1000, +Inf
	for _, v := range []float64{5, 50, 500, 5000} {
		h.Observe(v)
	}
	p.Histogram("dpm_latency_seconds", "Latency.", Label("path", "optimize"), h.Snapshot(), 1)
	p.Histogram("dpm_latency_seconds", "Latency.", Label("path", "sweep"), h.Snapshot(), 1)
	if p.err != nil {
		t.Fatalf("write error: %v", p.err)
	}
	out := b.String()

	for _, want := range []string{
		"# HELP dpm_requests_total HTTP requests.",
		"# TYPE dpm_requests_total counter",
		"dpm_requests_total 12",
		"# TYPE dpm_models gauge",
		"dpm_models 7",
		"# TYPE dpm_latency_seconds histogram",
		`dpm_latency_seconds_bucket{path="optimize",le="10"} 1`,
		`dpm_latency_seconds_bucket{path="optimize",le="100"} 2`,
		`dpm_latency_seconds_bucket{path="optimize",le="1000"} 3`,
		`dpm_latency_seconds_bucket{path="optimize",le="+Inf"} 4`,
		`dpm_latency_seconds_sum{path="optimize"} 5555`,
		`dpm_latency_seconds_count{path="optimize"} 4`,
		`dpm_latency_seconds_bucket{path="sweep",le="+Inf"} 4`,
	} {
		if !strings.Contains(out, want+"\n") {
			t.Errorf("exposition missing %q:\n%s", want, out)
		}
	}
	// One family header even with two labeled series.
	if n := strings.Count(out, "# TYPE dpm_latency_seconds histogram"); n != 1 {
		t.Errorf("histogram family header emitted %d times, want once", n)
	}
}

func TestPromLabelEscaping(t *testing.T) {
	got := Label("path", `a"b\c`+"\n")
	want := `path="a\"b\\c\n"`
	if got != want {
		t.Errorf("Label = %s, want %s", got, want)
	}
}
