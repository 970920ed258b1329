package lp_test

import (
	"context"
	"math"
	"slices"
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
// every preset device up to 67 rows, at horizons 10³ and 10⁵, in the
// deflated form core builds (normalization row in place of balance row 0),
// is solved to a basis that CertifyExact proves optimal in exact
// arithmetic. The
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

// TestDeflatedFrequencyLPEquivalent: core's frequency LP states Σy = 1 in
// place of the paper's balance row 0. The paper's form, with row 0
// rebuilt here from the model, has the same feasible set for every α < 1,
// so on every preset under penalty ≤ 0.5 the two forms must reach the same
// verdict and, at horizons 10³ and 10⁵, optimal objectives within 1e-9.
// The deflated solution must be a distribution to machine precision: its
// frequencies sum to 1 within 1e-15 from 10³ through 10⁷, where the
// paper's form misses by up to 10⁻⁹. (multidisk at 10⁶ and 10⁷ is
// cmd/dpmopt's TestMultidiskHorizonSweep.)
func TestDeflatedFrequencyLPEquivalent(t *testing.T) {
	for _, name := range cli.DeviceNames() {
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			dev, err := cli.NewDevice(name, 0, 0)
			if err != nil {
				t.Fatal(err)
			}
			m, err := dev.Sys.Build()
			if err != nil {
				t.Fatal(err)
			}
			horizons := []float64{1e3, 1e5, 1e6, 1e7}
			if name == "multidisk" {
				horizons = horizons[:2]
			}
			for _, h := range horizons {
				opts := core.Options{
					Alpha:     core.HorizonToAlpha(h),
					Initial:   core.Delta(m.N, dev.Sys.Index(dev.Initial)),
					Objective: core.Objective{Metric: core.MetricPower, Sense: lp.Minimize},
					Bounds:    []core.Bound{{Metric: core.MetricPenalty, Rel: lp.LE, Value: 0.5}},
				}
				prob, err := core.BuildFrequencyLP(m, opts)
				if err != nil {
					t.Fatal(err)
				}
				sol, _, err := lp.NewSolver().Solve(context.Background(), prob, nil)
				if err != nil {
					t.Fatalf("horizon %g: %v", h, err)
				}
				if dev := math.Abs(compensatedSum(sol.X) - 1); dev > 1e-15 {
					t.Errorf("horizon %g: frequencies sum to 1%+.3g", h, dev)
				}
				if h > 1e5 {
					continue
				}
				paper, _, err := lp.NewSolver().Solve(context.Background(), undeflated(m, opts, prob), nil)
				if err != nil {
					t.Fatalf("horizon %g, paper's form: %v", h, err)
				}
				if d := math.Abs(sol.Objective - paper.Objective); d > 1e-9 {
					t.Errorf("horizon %g: objective %.12g, paper's form %.12g (Δ=%.3g)", h, sol.Objective, paper.Objective, d)
				}
			}
		})
	}
}

// undeflated returns a copy of the frequency LP p whose row 0 is the
// paper's balance row of state 0 again, built from the model:
// Σ_a y(0,a) − α Σ_{s,a} p_{s,0}(a) y(s,a) = (1−α)·q0_0.
func undeflated(m *core.Model, opts core.Options, p *lp.Problem) *lp.Problem {
	var cols []int
	var vals []float64
	for a := 0; a < m.A; a++ {
		cols = append(cols, a)
		vals = append(vals, 1)
		for s := 0; s < m.N; s++ {
			if v := m.P[a].At(s, 0); v != 0 {
				cols = append(cols, s*m.A+a)
				vals = append(vals, -opts.Alpha*v)
			}
		}
	}
	cols, vals = lp.CompressRow(cols, vals)
	q := &lp.Problem{Sense: p.Sense, Obj: p.Obj, Cons: slices.Clone(p.Cons)}
	q.Cons[0] = lp.Constraint{Name: "balance[0]", Cols: cols, Vals: vals, Rel: lp.EQ, RHS: (1 - opts.Alpha) * opts.Initial[0]}
	return q
}

// compensatedSum is the Neumaier-compensated sum of v: exact to within one
// rounding of the result for vectors this long, so a deviation from 1 it
// reports belongs to the values, not to the summation.
func compensatedSum(v []float64) float64 {
	s, c := 0.0, 0.0
	for _, x := range v {
		t := s + x
		if math.Abs(s) >= math.Abs(x) {
			c += (s - t) + x
		} else {
			c += (x - t) + s
		}
		s = t
	}
	return s + c
}
