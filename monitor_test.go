package repro_test

import (
	"bytes"
	"testing"

	"repro/internal/core"
	"repro/internal/devices"
	"repro/internal/lp"
)

// countingMonitor tallies flight-recorder events without retaining them —
// the cheapest realistic consumer.
type countingMonitor struct {
	events, starts, finishes int
	pivots                   int
}

func (m *countingMonitor) Observe(s lp.Snapshot) {
	m.events++
	switch s.Event {
	case "start":
		m.starts++
	case "finish":
		m.finishes++
		m.pivots += s.Pivots
	}
}

// solveK5 builds the model and options of the benchmark's solve-k5
// workload (five-component heterogeneous platform, power minimization
// under a drop-rate bound) at the middle of its drops band.
func solveK5(t testing.TB) (*core.Model, core.Options) {
	sys, err := devices.HeterogeneousSystem(5, 0, core.TwoStateSR("w", 0.05, 0.2))
	if err != nil {
		t.Fatal(err)
	}
	m, err := sys.Build()
	if err != nil {
		t.Fatal(err)
	}
	return m, core.Options{
		Alpha:          core.HorizonToAlpha(1e5),
		Initial:        core.Delta(m.N, 0),
		Objective:      core.Objective{Metric: core.MetricPower, Sense: lp.Minimize},
		Bounds:         []core.Bound{{Metric: core.MetricDrops, Rel: lp.LE, Value: 0.04}},
		SkipEvaluation: true,
	}
}

// TestMonitorParitySolveK5 is the end-to-end no-trajectory-perturbation
// acceptance check on the headline instance: solve-k5 with a flight
// recorder attached at the tightest cadence must follow the bit-identical
// pivot trajectory of the bare solve — same pivot and refactorization
// counts, bit-identical objective, byte-identical optimal basis — while
// the monitor actually observes the full solve.
func TestMonitorParitySolveK5(t *testing.T) {
	m, opts := solveK5(t)
	bare, err := core.Optimize(m, opts)
	if err != nil {
		t.Fatal(err)
	}

	mon := &countingMonitor{}
	opts.LPMonitor = mon
	opts.LPMonitorEvery = 1
	watched, err := core.Optimize(m, opts)
	if err != nil {
		t.Fatal(err)
	}

	if watched.Status != bare.Status {
		t.Fatalf("status %v, bare %v", watched.Status, bare.Status)
	}
	if watched.LPIterations != bare.LPIterations {
		t.Errorf("pivots %d, bare %d", watched.LPIterations, bare.LPIterations)
	}
	if watched.LPRefactorizations != bare.LPRefactorizations {
		t.Errorf("refactorizations %d, bare %d", watched.LPRefactorizations, bare.LPRefactorizations)
	}
	if watched.Objective != bare.Objective {
		t.Errorf("objective %v, bare %v (not bit-identical)", watched.Objective, bare.Objective)
	}
	got, err1 := watched.Basis.MarshalBinary()
	want, err2 := bare.Basis.MarshalBinary()
	if err1 != nil || err2 != nil {
		t.Fatalf("marshal basis: %v / %v", err1, err2)
	}
	if !bytes.Equal(got, want) {
		t.Error("optimal basis differs from bare solve")
	}

	if mon.starts == 0 || mon.starts != mon.finishes {
		t.Errorf("monitor saw %d starts vs %d finishes", mon.starts, mon.finishes)
	}
	if mon.pivots != bare.LPIterations {
		t.Errorf("monitor finish snapshots total %d pivots, solve took %d", mon.pivots, bare.LPIterations)
	}
	if mon.events <= bare.LPIterations {
		t.Errorf("only %d events at cadence 1 for a %d-pivot solve", mon.events, bare.LPIterations)
	}
}
