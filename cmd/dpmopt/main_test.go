package main

import (
	"bufio"
	"bytes"
	"context"
	"math"
	"strconv"
	"strings"
	"testing"

	"repro/internal/cli"
	"repro/internal/core"
	"repro/internal/lp"
)

// TestMultidiskPaperHorizon pins `dpmopt -device multidisk -horizon 1e7
// -bounds 'penalty<=0.5'`, the shipped preset at the paper's horizon: its
// optimal power is 2.66837022324, the value the simplex reaches in 19 pivots
// from the basis of the policy-iteration policy. Before the frequency LP
// carried its normalization row, the cold solve stopped Numerical here
// after 14,970 pivots.
func TestMultidiskPaperHorizon(t *testing.T) {
	var out bytes.Buffer
	if err := run(&out, "multidisk", 1e7, "power", "penalty<=0.5", 0, 0, 0, false); err != nil {
		t.Fatal(err)
	}
	const want = 2.66837022324
	sc := bufio.NewScanner(&out)
	for sc.Scan() {
		if v, ok := strings.CutPrefix(sc.Text(), "optimal power: "); ok {
			got, err := strconv.ParseFloat(v, 64)
			if err != nil {
				t.Fatal(err)
			}
			if math.Abs(got-want) > 1e-6*want {
				t.Errorf("optimal power %.12g, want %.12g within 1e-6 relative", got, want)
			}
			return
		}
	}
	t.Fatalf("no optimal power line in the output:\n%s", out.String())
}

// TestMultidiskHorizonSweep solves the multidisk preset cold from 10³ to
// the paper's 10⁷ under both of its bound kinds. The flat-pivot check is
// about the slack start's conditioning, so it solves the frequency LP from
// the slack basis, its crash cleared: every solve must be Optimal with
// frequencies that sum to 1 within 1e-15, and no horizon may take more
// than 1.25× the pivots of 10³. Before the frequency LP carried its
// normalization row, the same solves took 40–250 thousand pivots at 10⁶
// and 10⁷, or stopped Numerical. A cold solve of the same LPs, as
// core.Optimize makes it, starts from the policy-iteration crash basis;
// each of its answers must be a distribution to the same 1e-15 and match
// the slack start's objective within 1e-9 relative.
func TestMultidiskHorizonSweep(t *testing.T) {
	d, err := cli.NewDevice("multidisk", 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	m, err := d.Sys.Build()
	if err != nil {
		t.Fatal(err)
	}
	horizons := []float64{1e3, 1e5, 1e6, 1e7}
	for _, bound := range []string{"penalty<=0.5", "drops<=0.05"} {
		bs, err := cli.ParseBounds(bound)
		if err != nil {
			t.Fatal(err)
		}
		pivots := make([]int, len(horizons))
		t.Run(bound, func(t *testing.T) {
			t.Parallel()
			for i, h := range horizons {
				opts := core.Options{
					Alpha:          core.HorizonToAlpha(h),
					Initial:        core.Delta(m.N, d.Sys.Index(d.Initial)),
					Objective:      core.Objective{Metric: core.MetricPower, Sense: lp.Minimize},
					Bounds:         bs,
					SkipEvaluation: true,
				}
				prob, err := core.BuildFrequencyLP(m, opts)
				if err != nil {
					t.Fatal(err)
				}
				crash := prob.Crash
				prob.Crash = nil
				sol, _, err := lp.NewSolver().Solve(context.Background(), prob, nil)
				if err != nil {
					t.Fatalf("horizon %g: %v", h, err)
				}
				pivots[i] = sol.Iterations
				if dev := math.Abs(compensatedSum(sol.X) - 1); dev > 1e-15 {
					t.Errorf("horizon %g: frequencies sum to 1%+.3g", h, dev)
				}
				if pivots[i] > pivots[0]*5/4 {
					t.Errorf("horizon %g: %d pivots, more than 1.25× the %d of horizon %g", h, pivots[i], pivots[0], horizons[0])
				}
				prob.Crash = crash
				res, _, err := lp.NewSolver().Solve(context.Background(), prob, nil)
				if err != nil {
					t.Fatalf("horizon %g, crash start: %v", h, err)
				}
				if !res.Crashed {
					t.Errorf("horizon %g: the solve did not start from the crash basis", h)
				}
				if dev := math.Abs(compensatedSum(res.X) - 1); dev > 1e-15 {
					t.Errorf("horizon %g, crash start: frequencies sum to 1%+.3g", h, dev)
				}
				if math.Abs(res.Objective-sol.Objective) > 1e-9*math.Abs(sol.Objective) {
					t.Errorf("horizon %g: crash objective %.17g, slack start %.17g", h, res.Objective, sol.Objective)
				}
			}
			t.Logf("slack-start pivots at horizons %v: %v", horizons, pivots)
		})
	}
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
