package lp_test

// Regression coverage for the scale-relative optimality test and the
// phase-2 primal repair (see revised.go recomputeD/phase2): policy LPs at
// discounts α = 1−10⁻⁶ and beyond have duals of order 1/(1−α), and under
// the former absolute −1e-9 reduced-cost threshold the solver churned
// through roundoff-driven degenerate pivots until the basis drifted primal
// infeasible and the solve died as Numerical. The external test package is
// used so the cases can be stated as the real policy optimizations that
// exposed the failure.

import (
	"context"
	"math"
	"testing"

	"repro/internal/core"
	"repro/internal/devices"
	"repro/internal/lp"
)

func diskOpts(h, bound float64) core.Options {
	return core.Options{
		Alpha:          core.HorizonToAlpha(h),
		Objective:      core.Objective{Metric: core.MetricPower, Sense: lp.Minimize},
		Bounds:         []core.Bound{{Metric: core.MetricPenalty, Rel: lp.LE, Value: bound}},
		SkipEvaluation: true,
	}
}

// TestHighDiscountRedundantBound is the exact instance that used to fail:
// the Travelstar disk at horizon 10⁶ (α = 1−10⁻⁶) under the redundant
// bound penalty ≤ 2 (the queue never holds more than its capacity 2). The
// solve must come back Optimal, and — because the bound is redundant — at
// the same objective as the unconstrained solve.
func TestHighDiscountRedundantBound(t *testing.T) {
	sys := devices.DiskSystem(core.TwoStateSR("w", 0.002, 0.3))
	m, err := sys.Build()
	if err != nil {
		t.Fatal(err)
	}
	opts := diskOpts(1e6, 2)
	opts.Initial = core.Delta(m.N, sys.Index(core.State{SP: devices.DiskActive}))
	res, err := core.Optimize(m, opts)
	if err != nil {
		t.Fatalf("redundant-bound solve at α=1−1e-6: %v (status %v)", err, res.Status)
	}

	free := diskOpts(1e6, 0)
	free.Bounds = nil
	free.Initial = opts.Initial
	ref, err := core.Optimize(m, free)
	if err != nil {
		t.Fatalf("unconstrained solve: %v", err)
	}
	if d := math.Abs(res.Objective - ref.Objective); d > 1e-8 {
		t.Errorf("redundant bound moved the objective by %g (%g vs %g)", d, res.Objective, ref.Objective)
	}
}

// TestHighDiscountInfeasibleBound: under the CLI's default workload
// (p01 = 0.05, p10 = 0.15) the disk cannot hold its discounted penalty
// below ~0.489, so penalty ≤ 0.45 is infeasible at every horizon.
// At horizon 10⁶ phase 1 used to stop with an artificial residual of
// 8·10⁻⁸ — 8% of the balance rows' rhs mass 1−α = 10⁻⁶, yet under the old
// 10⁻⁷·(1+Σb) cutoff — so the solve went on to phase 2, failed
// verification twice and was reported Numerical. core.Optimize and both
// kernel configurations must say Infeasible, and the verdict is proved in
// exact arithmetic by the LP's elastic relaxation (CertifyVerdict).
func TestHighDiscountInfeasibleBound(t *testing.T) {
	sys := devices.DiskSystem(core.TwoStateSR("w", 0.05, 0.15))
	m, err := sys.Build()
	if err != nil {
		t.Fatal(err)
	}
	for _, h := range []float64{1e3, 1e4, 1e5, 1e6, 1e7} {
		opts := diskOpts(h, 0.45)
		opts.Initial = core.Delta(m.N, sys.Index(core.State{SP: devices.DiskActive}))
		res, err := core.Optimize(m, opts)
		if err == nil || res.Status != lp.Infeasible {
			t.Errorf("horizon %g: status %v (err %v), want infeasible", h, res.Status, err)
		}
		prob, err := core.BuildFrequencyLP(m, opts)
		if err != nil {
			t.Fatal(err)
		}
		for kname, kopts := range kernelOpts {
			sol, basis, _ := lp.NewSolver(kopts...).Solve(context.Background(), prob, nil)
			if sol.Status != lp.Infeasible {
				t.Errorf("horizon %g/%s: status %v, want infeasible", h, kname, sol.Status)
			}
			if cerr := lp.CertifyVerdict(prob, sol, basis, 0, kopts...); cerr != nil {
				t.Errorf("horizon %g/%s: %v", h, kname, cerr)
			}
		}
	}
}

// TestHighDiscountAcrossDevices: feasible optimizations across the device
// zoo stay Optimal at horizons 10⁶ and 10⁷, and the work counters the
// composite benchmarks report are populated.
func TestHighDiscountAcrossDevices(t *testing.T) {
	cases := []struct {
		name  string
		build func() (*core.System, error)
		bound float64
	}{
		{"disk", func() (*core.System, error) {
			return devices.DiskSystem(core.TwoStateSR("w", 0.002, 0.3)), nil
		}, 0.3},
		{"multidisk", func() (*core.System, error) {
			return devices.MultiDiskSystem(3, 2, core.TwoStateSR("w", 0.05, 0.2))
		}, 0.8},
		{"heterogeneous", func() (*core.System, error) {
			return devices.HeterogeneousSystem(3, 2, core.TwoStateSR("w", 0.05, 0.2))
		}, 1.5},
	}
	for _, tc := range cases {
		sys, err := tc.build()
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		m, err := sys.Build()
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		for _, h := range []float64{1e6, 1e7} {
			res, err := core.Optimize(m, diskOpts(h, tc.bound))
			if err != nil {
				t.Errorf("%s at horizon %g: %v (status %v)", tc.name, h, err, res.Status)
				continue
			}
			if res.Objective <= 0 {
				t.Errorf("%s at horizon %g: objective %g", tc.name, h, res.Objective)
			}
			if res.LPIterations <= 0 || res.LPRefactorizations <= 0 {
				t.Errorf("%s at horizon %g: counters %d pivots / %d refactorizations",
					tc.name, h, res.LPIterations, res.LPRefactorizations)
			}
		}
	}
}

// TestWarmDualSimplexAtScale: a warm start at sparse scale whose basis is
// primal infeasible for the tightened bound enters dual simplex before any
// phase has run. The dual pivots update the Devex weights, which used to be
// uninitialized at that point and crashed the solve. The warm answer must
// match the cold one to 1e-6 relative: at α = 1−10⁻⁶ the scale-relative
// optimality test stops this restored basis 2·10⁻⁷ above the cold optimum.
func TestWarmDualSimplexAtScale(t *testing.T) {
	sys, err := devices.MultiDiskSystem(4, 2, core.TwoStateSR("w", 0.05, 0.15))
	if err != nil {
		t.Fatal(err)
	}
	m, err := sys.Build()
	if err != nil {
		t.Fatal(err)
	}
	loose, err := core.Optimize(m, diskOpts(1e6, 2))
	if err != nil {
		t.Fatalf("bound 2: %v", err)
	}
	warmOpts := diskOpts(1e6, 1.5)
	warmOpts.WarmBasis = loose.Basis
	warm, err := core.Optimize(m, warmOpts)
	if err != nil {
		t.Fatalf("bound 1.5 warm: %v", err)
	}
	cold, err := core.Optimize(m, diskOpts(1e6, 1.5))
	if err != nil {
		t.Fatalf("bound 1.5 cold: %v", err)
	}
	if !warm.WarmStarted {
		t.Errorf("warm basis supplied but the solve went cold")
	}
	if d := math.Abs(warm.Objective - cold.Objective); d > 1e-6*cold.Objective {
		t.Errorf("warm objective %.12g vs cold %.12g (Δ=%g)", warm.Objective, cold.Objective, d)
	}
}
