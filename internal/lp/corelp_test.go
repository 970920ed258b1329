package lp_test

import (
	"context"
	"testing"
	"time"

	"repro/internal/cli"
	"repro/internal/core"
	"repro/internal/devices"
	"repro/internal/lp"
)

// kernelOpts are the two configurations the basis-size rule selects
// between; policy LPs this small run the dense kernel unless forced.
var kernelOpts = map[string][]lp.Option{
	"dense+dantzig": nil,
	"sparse+devex":  {lp.ForceAtScale()},
}

// TestCoreLPsAtScaleCertified: the four assembled policy LPs of core's
// TestFrequencyLPCertified (LP2 and the constrained LP3/LP4 shapes, at
// mild and paper-stiff discounts), solved under both kernel
// configurations — the sparse one, with Forrest–Tomlin updates and Devex
// pricing, only reachable at this size through ForceAtScale — must return
// bases that CertifyExact proves optimal. One is accepted within its
// measured residual: service-ge's basis, under both kernels, leaves one
// nonbasic reduced cost at −4.7205e-16 (exactly primal feasible).
func TestCoreLPsAtScaleCertified(t *testing.T) {
	sys := devices.ExampleSystem()
	m, err := sys.Build()
	if err != nil {
		t.Fatal(err)
	}
	q0 := core.Delta(m.N, sys.Index(core.State{}))
	power := core.Objective{Metric: core.MetricPower, Sense: lp.Minimize}

	cases := []struct {
		name     string
		opts     core.Options
		residual float64
	}{
		{"unconstrained-1e4", core.Options{Alpha: core.HorizonToAlpha(1e4), Objective: power}, 0},
		{"exampleA2-1e5", core.Options{
			Alpha:     core.HorizonToAlpha(1e5),
			Initial:   q0,
			Objective: power,
			Bounds: []core.Bound{
				{Metric: core.MetricPenalty, Rel: lp.LE, Value: 0.5},
				{Metric: core.MetricLoss, Rel: lp.LE, Value: 0.3},
			},
		}, 0},
		{"service-ge", core.Options{
			Alpha:     core.HorizonToAlpha(1e4),
			Objective: power,
			Bounds:    []core.Bound{{Metric: core.MetricService, Rel: lp.GE, Value: 0.3}},
		}, 4.73e-16},
		{"penalty-objective", core.Options{
			Alpha:     0.99,
			Objective: core.Objective{Metric: core.MetricPenalty, Sense: lp.Minimize},
			Bounds:    []core.Bound{{Metric: core.MetricPower, Rel: lp.LE, Value: 2}},
		}, 0},
	}
	for _, tc := range cases {
		prob, err := core.BuildFrequencyLP(m, tc.opts)
		if err != nil {
			t.Fatalf("%s: BuildFrequencyLP: %v", tc.name, err)
		}
		for kname, opts := range kernelOpts {
			sol, basis, err := lp.NewSolver(opts...).Solve(context.Background(), prob, nil)
			if err != nil {
				t.Errorf("%s/%s: %v", tc.name, kname, err)
				continue
			}
			if cerr := lp.CertifyVerdict(prob, sol, basis, tc.residual, opts...); cerr != nil {
				t.Errorf("%s/%s: %v", tc.name, kname, cerr)
			}
			if sol.FactorNNZ <= 0 {
				t.Errorf("%s/%s: FactorNNZ = %d, want positive", tc.name, kname, sol.FactorNNZ)
			}
		}
	}
}

// TestPresetLPsCertified: the power-minimizing LP under penalty ≤ 0.5 of
// every preset device up to 67 rows, at horizons 10³ and 10⁵, is solved to
// a basis that CertifyExact proves optimal in exact arithmetic. The
// composite presets stay out: naive rational elimination of the
// heterogeneous platform's 217 rows takes seconds, of multidisk's 487 rows
// far longer.
func TestPresetLPsCertified(t *testing.T) {
	for _, name := range []string{"example", "cpu", "webserver", "baseline", "disk"} {
		dev, err := cli.NewDevice(name, 0, 0)
		if err != nil {
			t.Fatal(err)
		}
		m, err := dev.Sys.Build()
		if err != nil {
			t.Fatal(err)
		}
		for _, h := range []float64{1e3, 1e5} {
			prob, err := core.BuildFrequencyLP(m, core.Options{
				Alpha:     core.HorizonToAlpha(h),
				Initial:   core.Delta(m.N, dev.Sys.Index(dev.Initial)),
				Objective: core.Objective{Metric: core.MetricPower, Sense: lp.Minimize},
				Bounds:    []core.Bound{{Metric: core.MetricPenalty, Rel: lp.LE, Value: 0.5}},
			})
			if err != nil {
				t.Fatal(err)
			}
			sol, basis, err := lp.NewSolver().Solve(context.Background(), prob, nil)
			if err != nil {
				t.Errorf("%s at horizon %g: %v", name, h, err)
				continue
			}
			t0 := time.Now()
			if cerr := lp.CertifyVerdict(prob, sol, basis, 0); cerr != nil {
				t.Errorf("%s at horizon %g (%d rows): %v", name, h, len(prob.Cons), cerr)
			}
			t.Logf("%s at horizon %g: %d rows certified in %v", name, h, len(prob.Cons), time.Since(t0))
		}
	}
}
