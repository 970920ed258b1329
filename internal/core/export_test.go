package core

import (
	"context"
	"fmt"

	"repro/internal/lp"
)

// LagrangianBasis builds the frequency LP of m under opts, which has one
// inequality bound, and the basis by rows of the deterministic policy that
// policy iteration finds for the crash's Lagrangian cost at multiplier
// μ = mu, started, like the crash, from the myopic policy.
func LagrangianBasis(m *Model, opts Options, mu float64) (*lp.Problem, *lp.Basis, error) {
	prob, err := BuildFrequencyLP(m, opts)
	if err != nil {
		return nil, nil, err
	}
	pi, err := newPolicyIter(m, opts.Alpha)
	if err != nil {
		return nil, nil, err
	}
	if err := pi.setLagrangian(opts); err != nil {
		return nil, nil, err
	}
	pi.at(mu)
	pi.improve()
	if ok, _ := pi.solve(context.Background()); !ok {
		return nil, nil, fmt.Errorf("policy iteration stopped after %d rounds", pi.rounds)
	}
	return prob, lp.BasisFromRows(prob, policyRows(len(prob.Cons), m.A, pi.cmd)), nil
}
