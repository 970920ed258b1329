package main

import (
	"bufio"
	"bytes"
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
// the paper's 10⁷ under both of its bound kinds. Every solve must be
// Optimal with frequencies that sum to 1 within 1e-15, and the pivot count
// must stay flat: no horizon may take more than 1.25× the pivots of 10³.
// Before the frequency LP carried its normalization row, the same solves
// took 40–250 thousand pivots at 10⁶ and 10⁷, or stopped Numerical.
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
				res, err := core.Optimize(m, core.Options{
					Alpha:          core.HorizonToAlpha(h),
					Initial:        core.Delta(m.N, d.Sys.Index(d.Initial)),
					Objective:      core.Objective{Metric: core.MetricPower, Sense: lp.Minimize},
					Bounds:         bs,
					SkipEvaluation: true,
				})
				if err != nil {
					t.Fatalf("horizon %g: %v", h, err)
				}
				pivots[i] = res.LPIterations
				if dev := math.Abs(compensatedSum(res.Frequencies.Data) - 1); dev > 1e-15 {
					t.Errorf("horizon %g: frequencies sum to 1%+.3g", h, dev)
				}
				if pivots[i] > pivots[0]*5/4 {
					t.Errorf("horizon %g: %d pivots, more than 1.25× the %d of horizon %g", h, pivots[i], pivots[0], horizons[0])
				}
			}
			t.Logf("pivots at horizons %v: %v", horizons, pivots)
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
