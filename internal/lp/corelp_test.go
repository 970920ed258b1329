package lp_test

import (
	"context"
	"math"
	"testing"

	"repro/internal/core"
	"repro/internal/devices"
	"repro/internal/lp"
)

// TestCoreLPsAtScaleMatchDense is the sparse kernel's leg of core's
// TestFrequencyLPRevisedMatchesDense: the same four assembled policy LPs
// (LP2 and the constrained LP3/LP4 shapes, at mild and paper-stiff
// discounts) are far below the size threshold, so only ForceAtScale runs
// them through sparse LU with Forrest–Tomlin updates and Devex pricing. The
// objectives must match the dense-tableau oracle within 1e-8.
func TestCoreLPsAtScaleMatchDense(t *testing.T) {
	sys := devices.ExampleSystem()
	m, err := sys.Build()
	if err != nil {
		t.Fatal(err)
	}
	q0 := core.Delta(m.N, sys.Index(core.State{}))
	power := core.Objective{Metric: core.MetricPower, Sense: lp.Minimize}

	cases := []struct {
		name string
		opts core.Options
	}{
		{"unconstrained-1e4", core.Options{Alpha: core.HorizonToAlpha(1e4), Objective: power}},
		{"exampleA2-1e5", core.Options{
			Alpha:     core.HorizonToAlpha(1e5),
			Initial:   q0,
			Objective: power,
			Bounds: []core.Bound{
				{Metric: core.MetricPenalty, Rel: lp.LE, Value: 0.5},
				{Metric: core.MetricLoss, Rel: lp.LE, Value: 0.3},
			},
		}},
		{"service-ge", core.Options{
			Alpha:     core.HorizonToAlpha(1e4),
			Objective: power,
			Bounds:    []core.Bound{{Metric: core.MetricService, Rel: lp.GE, Value: 0.3}},
		}},
		{"penalty-objective", core.Options{
			Alpha:     0.99,
			Objective: core.Objective{Metric: core.MetricPenalty, Sense: lp.Minimize},
			Bounds:    []core.Bound{{Metric: core.MetricPower, Rel: lp.LE, Value: 2}},
		}},
	}
	for _, tc := range cases {
		prob, err := core.BuildFrequencyLP(m, tc.opts)
		if err != nil {
			t.Fatalf("%s: BuildFrequencyLP: %v", tc.name, err)
		}
		den, denErr := lp.SolveDense(prob)
		rev, _, revErr := lp.NewSolver(lp.ForceAtScale()).Solve(context.Background(), prob, nil)
		if (revErr == nil) != (denErr == nil) || rev.Status != den.Status {
			t.Errorf("%s: at-scale status %v (err %v) vs dense %v (err %v)",
				tc.name, rev.Status, revErr, den.Status, denErr)
			continue
		}
		if revErr != nil {
			continue
		}
		if d := math.Abs(rev.Objective - den.Objective); d > 1e-8 {
			t.Errorf("%s: at-scale %.12g vs dense %.12g (Δ=%g)", tc.name, rev.Objective, den.Objective, d)
		}
		if rev.FactorNNZ <= 0 {
			t.Errorf("%s: FactorNNZ = %d, want positive", tc.name, rev.FactorNNZ)
		}
	}
}
