package core

import (
	"context"
	"testing"

	"repro/internal/lp"
)

// TestPolicyIterationAllocatesOnce: once the factorization's storage has
// grown to the largest it holds, solves allocate nothing, whether the
// switched states are absorbed by Forrest–Tomlin updates or by a
// refactorization.
func TestPolicyIterationAllocatesOnce(t *testing.T) {
	m := buildExample(t)
	pi, err := newPolicyIter(m, HorizonToAlpha(1e4))
	if err != nil {
		t.Fatal(err)
	}
	opts := Options{
		Objective: Objective{Metric: MetricPower, Sense: lp.Minimize},
		Bounds:    []Bound{{Metric: MetricPenalty, Rel: lp.LE, Value: 0.5}},
	}
	if err := pi.setLagrangian(opts); err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	pi.at(0)
	if ok, _ := pi.solve(ctx); !ok {
		t.Fatal("policy iteration did not converge")
	}
	first := append([]int(nil), pi.cmd...)
	swing := func() {
		for _, mu := range []float64{1, 0} {
			pi.at(mu)
			if ok, _ := pi.solve(ctx); !ok {
				t.Fatal("policy iteration did not converge")
			}
		}
	}
	// The factorization's eta storage grows until every slot has held the
	// largest eta it is given.
	for range 2 * piMaxEtas {
		swing()
	}
	work := pi.refactors + pi.updates
	if allocs := testing.AllocsPerRun(20, swing); allocs != 0 {
		t.Errorf("%v allocations per pair of solves", allocs)
	}
	if differ(first, pi.cmd) != 0 || pi.refactors+pi.updates == work {
		t.Errorf("the solves at μ = 1 and back switched no state (%d refactorizations, %d updates)", pi.refactors, pi.updates)
	}
}
