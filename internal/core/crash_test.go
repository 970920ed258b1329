package core_test

import (
	"context"
	"math"
	"testing"

	"repro/internal/cli"
	"repro/internal/core"
	"repro/internal/devices"
	"repro/internal/lp"
)

// TestCrashDiskCertified starts the disk study's frequency LP (67 rows,
// horizon 10⁶, SR(0.002, 0.3), minimum power under penalty ≤ 0.10) from
// the basis of a bound-feasible Lagrangian policy, the one policy
// iteration finds at μ = 0.275, and proves the answer exactly. With basic
// values accepted down to −1e-7, the simplex stopped after 13 pivots on a
// basis whose exact basic values reached −5.7e-8, at an objective 2.5e-5
// below the true optimum 0.97808988457. At the 1e-9 primal tolerance the
// dual simplex repairs that basis.
func TestCrashDiskCertified(t *testing.T) {
	sys := devices.DiskSystem(core.TwoStateSR("w", 0.002, 0.3))
	m, err := sys.Build()
	if err != nil {
		t.Fatal(err)
	}
	opts := core.Options{
		Alpha:     core.HorizonToAlpha(1e6),
		Initial:   core.Delta(m.N, sys.Index(core.State{SP: devices.DiskActive})),
		Objective: core.Objective{Metric: core.MetricPower, Sense: lp.Minimize},
		Bounds:    []core.Bound{{Metric: core.MetricPenalty, Rel: lp.LE, Value: 0.10}},
	}
	prob, crash, err := core.LagrangianBasis(m, opts, 0.275)
	if err != nil || crash == nil {
		t.Fatalf("crash basis %v, err %v", crash, err)
	}
	sol, basis, err := lp.NewSolver().Solve(context.Background(), prob, crash)
	if err != nil {
		t.Fatal(err)
	}
	if !sol.WarmStarted {
		t.Error("the solve fell back from the crash basis to the slack start")
	}
	c, err := lp.CertifyExact(prob, basis)
	if err != nil {
		t.Fatal(err)
	}
	minBasic, _ := c.MinBasic.Float64()
	art, _ := c.Artificial.Float64()
	minRC, _ := c.MinReducedCost.Float64()
	exact, _ := c.Objective.Float64()
	if c.MinBasic.Sign() < 0 || c.Artificial.Sign() != 0 || c.MinReducedCost.Sign() < 0 {
		t.Errorf("basis not exactly optimal: min basic %g, artificial %g, min reduced cost %g", minBasic, art, minRC)
	}
	if math.Abs(sol.Objective-exact) > 1e-12 || math.Abs(exact-0.97808988457) > 1e-11 {
		t.Errorf("objective %.12g, exact %.12g; want 0.97808988457", sol.Objective, exact)
	}
}

// TestCrashMatchesSlackStart solves the multidisk preset's frequency LP
// (487 rows, horizon 10³) cold, as core.Optimize does, and from the slack
// basis with its crash cleared, under each kind of problem the crash gate
// sees. With no bound, a GE bound, or an LE bound under a maximized
// objective, the cold solve must start from the crash basis and reach the
// slack start's objective within 1e-9 relative. A bound no policy meets
// abandons the crash, and the slack start reports the LP infeasible; an
// equality bound gets no crash at all, and neither does a budgeted solve.
func TestCrashMatchesSlackStart(t *testing.T) {
	d, err := cli.NewDevice("multidisk", 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	m, err := d.Sys.Build()
	if err != nil {
		t.Fatal(err)
	}
	minPower := core.Objective{Metric: core.MetricPower, Sense: lp.Minimize}
	for _, tc := range []struct {
		name       string
		obj        core.Objective
		bound      []core.Bound
		crash      bool
		infeasible bool
	}{
		{"unbounded", minPower, nil, true, false},
		{"service>=0.5", minPower, []core.Bound{{Metric: core.MetricService, Rel: lp.GE, Value: 0.5}}, true, false},
		{"max service, power<=5", core.Objective{Metric: core.MetricService, Sense: lp.Maximize},
			[]core.Bound{{Metric: core.MetricPower, Rel: lp.LE, Value: 5}}, true, false},
		{"penalty<=0.05", minPower, []core.Bound{{Metric: core.MetricPenalty, Rel: lp.LE, Value: 0.05}}, true, true},
		{"service==0.5", minPower, []core.Bound{{Metric: core.MetricService, Rel: lp.EQ, Value: 0.5}}, false, false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			t.Parallel()
			opts := core.Options{
				Alpha:          core.HorizonToAlpha(1e3),
				Initial:        core.Delta(m.N, d.Sys.Index(d.Initial)),
				Objective:      tc.obj,
				Bounds:         tc.bound,
				SkipEvaluation: true,
			}
			prob, err := core.BuildFrequencyLP(m, opts)
			if err != nil {
				t.Fatal(err)
			}
			if (prob.Crash != nil) != tc.crash {
				t.Fatalf("crash %v, want %v", prob.Crash != nil, tc.crash)
			}
			res, _, err := lp.NewSolver().Solve(context.Background(), prob, nil)
			switch {
			case tc.infeasible:
				if res.Status != lp.Infeasible || res.Crashed {
					t.Errorf("crashed %v, status %v; want the slack start's infeasible verdict", res.Crashed, res.Status)
				}
				return
			case err != nil:
				t.Fatal(err)
			case res.Crashed != tc.crash:
				t.Errorf("crashed %v, want %v", res.Crashed, tc.crash)
			}
			if !tc.crash {
				return
			}
			budgeted, _, err := lp.NewSolver(lp.WithMaxPivots(1e6)).Solve(context.Background(), prob, nil)
			if err != nil || budgeted.Crashed {
				t.Errorf("budgeted solve crashed %v, err %v; want the slack start", budgeted.Crashed, err)
			}
			prob.Crash = nil
			sol, _, err := lp.NewSolver().Solve(context.Background(), prob, nil)
			if err != nil {
				t.Fatal(err)
			}
			if sol.Iterations != budgeted.Iterations {
				t.Errorf("budgeted solve took %d pivots, slack start %d", budgeted.Iterations, sol.Iterations)
			}
			if math.Abs(res.Objective-sol.Objective) > 1e-9*math.Abs(sol.Objective) {
				t.Errorf("objective %.17g after %d pivots, slack start %.17g after %d", res.Objective, res.Iterations, sol.Objective, sol.Iterations)
			}
		})
	}
}
