package main

import (
	"encoding/json"
	"math"
	"os"
	"testing"
)

// TestWorkloads runs every workload, untraced and traced, at its minimum op
// count (serve-mixed against an in-process server), and checks that the
// checks pass and that each run reports exactly the metrics BENCHMARK.json
// declares.
func TestWorkloads(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	if len(spec.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the program runs %d", len(spec.Workloads), len(workloads))
	}
	for i, w := range spec.Workloads {
		if w.Name != workloads[i].name {
			t.Errorf("workload %d: BENCHMARK.json %q, program %q", i, w.Name, workloads[i].name)
		}
	}
	for _, w := range workloads {
		for _, traced := range []bool{false, true} {
			want := spec.EndToEnd
			if traced {
				want = spec.PerLayer
			}
			w, traced := w, traced
			t.Run(w.name+map[bool]string{false: "", true: "/traced"}[traced], func(t *testing.T) {
				rep, err := w.run(config{seed: 1, seconds: 0.001, trace: traced, traceDir: t.TempDir()})
				if err != nil {
					t.Fatal(err)
				}
				res := summarize(rep, traced)
				if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
					t.Errorf("correct %v, %d of %d failed", res.Correct, res.Failed, res.Attempted)
				}
				if len(res.Metrics) != len(want) {
					t.Errorf("%d metrics, BENCHMARK.json declares %d", len(res.Metrics), len(want))
				}
				for _, m := range want {
					got, ok := res.Metrics[m.Name]
					switch {
					case !ok:
						t.Errorf("metric %s missing", m.Name)
					case got.Unit != m.Unit:
						t.Errorf("metric %s in %s, declared %s", m.Name, got.Unit, m.Unit)
					case math.IsNaN(got.Value) || math.IsInf(got.Value, 0):
						t.Errorf("metric %s = %v", m.Name, got.Value)
					}
				}
				if !traced {
					return
				}
				sum := 0.0
				for _, layer := range layers {
					sum += res.Metrics["attr."+layer+"_frac"].Value
				}
				if math.Abs(sum-1) > 1e-6 {
					t.Errorf("layer fractions sum to %g, want 1", sum)
				}
				if n := res.Metrics["trace.replay_mismatches"].Value; n != 0 {
					t.Errorf("%g replays pivoted differently from the traced op", n)
				}
			})
		}
	}
}
