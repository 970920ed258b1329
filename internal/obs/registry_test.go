package obs

import (
	"slices"
	"sort"
	"strings"
	"sync/atomic"
	"testing"
)

// testRegistry declares one metric of every kind.
func testRegistry() (*Registry, map[string]*Histogram) {
	r := NewRegistry("t_")
	vec := r.CounterVec("endpoint_requests", "Requests by endpoint.", "endpoint", []string{"b", "a"})
	r.Sum("requests", "Requests.", vec)
	r.Counter("hits", "Hits.").Add(3)
	vec["a"].Add(2)
	vec["b"].Add(5)
	r.Reading("uptime_seconds", "Uptime.", "gauge", func() float64 { return 1.5 })
	r.Reading("dropped", "Dropped.", "counter", func() float64 { return 4 })
	g := NewGauges()
	g.Add("inflight", 1)
	r.Gauges("In flight.", g)
	hs := r.Histograms("stage_seconds", "Stage time.", "stage", []string{"x", "y"}, 1e-9, NewLatencyHistogram)
	hs["x"].Observe(1e9)
	r.Histograms("pivots", "Pivots.", "", nil, 1, NewCountHistogram)[""].Observe(7)
	return r, hs
}

func render(r *Registry) string {
	var b strings.Builder
	p := NewPromWriter(&b)
	r.WriteProm(p)
	if p.err != nil {
		panic(p.err)
	}
	return b.String()
}

// families returns name → type from the exposition's TYPE lines, in order.
func families(out string) (names []string, types map[string]string) {
	types = map[string]string{}
	for _, line := range strings.Split(out, "\n") {
		if rest, ok := strings.CutPrefix(line, "# TYPE "); ok {
			name, typ, _ := strings.Cut(rest, " ")
			names = append(names, name)
			types[name] = typ
		}
	}
	return names, types
}

func TestRegistryDuplicatePanics(t *testing.T) {
	for _, second := range []func(r *Registry){
		func(r *Registry) { r.Counter("x", "again") },
		func(r *Registry) { r.Histograms("x", "again", "", nil, 1, NewCountHistogram) },
		func(r *Registry) { r.Reading("x", "again", "gauge", func() float64 { return 0 }) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("declaring a name twice did not panic")
				}
			}()
			r := NewRegistry("t_")
			r.Counter("x", "X.")
			second(r)
		}()
	}
}

// TestRegistrySnapshotMatchesExposition: every counter the registry owns
// is in both the snapshot and the exposition, under the _total suffix
// there; the labelled, histogram and reading families are exposition-only.
func TestRegistrySnapshotMatchesExposition(t *testing.T) {
	r, _ := testRegistry()
	snap := r.Snapshot()
	if snap["hits"] != 3 || snap["requests"] != 7 || len(snap) != 2 {
		t.Fatalf("snapshot %v, want hits=3 requests=7", snap)
	}
	out := render(r)
	var fromSnap []string
	for k, v := range snap {
		fromSnap = append(fromSnap, "t_"+k+"_total "+formatValue(float64(v)))
	}
	sort.Strings(fromSnap)
	var fromProm []string
	for _, line := range strings.Split(out, "\n") {
		name, _, _ := strings.Cut(line, " ")
		if !strings.HasPrefix(line, "#") && !strings.Contains(line, "{") && strings.HasSuffix(name, "_total") && name != "t_dropped_total" {
			fromProm = append(fromProm, line)
		}
	}
	sort.Strings(fromProm)
	if !slices.Equal(fromSnap, fromProm) {
		t.Errorf("snapshot counters %q, exposition %q", fromSnap, fromProm)
	}

	names, types := families(out)
	for _, name := range names {
		if types[name] == "counter" && !strings.HasSuffix(name, "_total") {
			t.Errorf("counter %s lacks the _total suffix", name)
		}
	}
	for _, want := range []string{
		`t_endpoint_requests_total{endpoint="a"} 2`,
		"t_uptime_seconds 1.5",
		"t_dropped_total 4",
		"t_inflight 1",
		`t_stage_seconds_count{stage="x"} 1`,
		`t_stage_seconds_sum{stage="x"} 1`,
		"t_pivots_count 1",
	} {
		if !strings.Contains(out, want+"\n") {
			t.Errorf("exposition missing %q:\n%s", want, out)
		}
	}
}

// TestRegistryOrderStable: families render in declaration order, label
// values in their declared order, and a second render repeats the first.
func TestRegistryOrderStable(t *testing.T) {
	r, _ := testRegistry()
	out := render(r)
	names, _ := families(out)
	want := []string{
		"t_endpoint_requests_total", "t_requests_total", "t_hits_total", "t_uptime_seconds",
		"t_dropped_total", "t_inflight", "t_stage_seconds", "t_pivots",
	}
	if !slices.Equal(names, want) {
		t.Errorf("family order %q, want %q", names, want)
	}
	if b, a := strings.Index(out, `endpoint="b"`), strings.Index(out, `endpoint="a"`); b > a {
		t.Errorf("label values out of declared order:\n%s", out)
	}
	if again := render(r); again != out {
		t.Errorf("second render differs:\n%s\nvs\n%s", out, again)
	}
}

// TestRegistryLabelledHistogramsShareHeader: a labelled histogram family
// emits one HELP/TYPE header for all its series.
func TestRegistryLabelledHistogramsShareHeader(t *testing.T) {
	r, hs := testRegistry()
	hs["y"].Observe(5e3)
	out := render(r)
	for _, header := range []string{"# HELP t_stage_seconds ", "# TYPE t_stage_seconds "} {
		if n := strings.Count(out, header); n != 1 {
			t.Errorf("%q emitted %d times, want once", header, n)
		}
	}
	for _, v := range []string{"x", "y"} {
		if !strings.Contains(out, `t_stage_seconds_count{stage="`+v+`"} 1`+"\n") {
			t.Errorf("series stage=%s missing:\n%s", v, out)
		}
	}
}

// TestRegistryCountersFromTags: Counters declares one counter per tagged
// field, in field order, and leaves untagged fields alone.
func TestRegistryCountersFromTags(t *testing.T) {
	var m struct {
		Hits   *atomic.Int64 `metric:"hits" help:"Hits."`
		Misses *atomic.Int64 `metric:"misses" help:"Misses."`
		Other  *atomic.Int64
	}
	r := NewRegistry("t_")
	r.Counters(&m)
	m.Misses.Add(2)
	if m.Other != nil {
		t.Error("untagged field was set")
	}
	if snap := r.Snapshot(); len(snap) != 2 || snap["hits"] != 0 || snap["misses"] != 2 {
		t.Errorf("snapshot %v, want hits=0 misses=2", snap)
	}
	out := render(r)
	if h, m := strings.Index(out, "# HELP t_hits_total Hits."), strings.Index(out, "# HELP t_misses_total Misses."); h < 0 || m < h {
		t.Errorf("tagged counters missing or out of field order:\n%s", out)
	}
}
