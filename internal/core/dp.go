package core

import (
	"fmt"
	"math"

	"repro/internal/lp"
	"repro/internal/mat"
)

// This file implements successive approximations (value iteration), one of
// the two classical alternatives to the state-action-frequency LP that
// Appendix A cites for the *unconstrained* problem POU, plus the
// value-function linear program LP1. The other, policy improvement, is the
// sparse policy iteration that starts cold solves at scale (crash.go). All
// of them must agree with LP2's optimum (Theorem A.1), which the tests
// exploit as a cross-validation of the optimizer.

// DPResult is the outcome of an unconstrained dynamic-programming solve.
type DPResult struct {
	// Value is the optimal total discounted cost vector v* (one entry per
	// state) satisfying the optimality equations of Theorem A.1.
	Value mat.Vector
	// Policy is an optimal deterministic Markov stationary policy.
	Policy *Policy
	// Iterations counts sweeps (value iteration) or evaluation rounds
	// (policy iteration).
	Iterations int
}

// bellmanBackup computes one Bellman operator application:
// out[s] = min_a cost(s,a) + α Σ_j P_a(s,j) v[j], recording the argmin.
// Each expectation is a sparse row dot, so a sweep costs O(Σ_a nnz(P_a)).
func bellmanBackup(m *Model, cost *mat.Matrix, v mat.Vector, alpha float64, out mat.Vector, argmin []int) {
	for s := 0; s < m.N; s++ {
		best := math.Inf(1)
		bestA := 0
		for a := 0; a < m.A; a++ {
			q := cost.At(s, a) + alpha*m.P[a].RowDot(s, v)
			if q < best {
				best = q
				bestA = a
			}
		}
		out[s] = best
		if argmin != nil {
			argmin[s] = bestA
		}
	}
}

// ValueIteration solves the unconstrained problem min E[Σ αᵗ metric] by
// successive approximations, stopping when the sup-norm Bellman residual
// guarantees the value is within tol of v* (the standard α/(1−α) bound).
func ValueIteration(m *Model, metric string, alpha float64, tol float64) (*DPResult, error) {
	if alpha < 0 || alpha >= 1 {
		return nil, fmt.Errorf("core: discount factor %g outside [0,1)", alpha)
	}
	if tol <= 0 {
		tol = 1e-9
	}
	cost, err := m.Metric(metric)
	if err != nil {
		return nil, err
	}
	v := mat.NewVector(m.N)
	next := mat.NewVector(m.N)
	argmin := make([]int, m.N)
	// Residual threshold so that ‖v − v*‖ ≤ tol.
	stop := tol * (1 - alpha) / math.Max(alpha, 1e-12)
	maxIter := 1 + int(math.Ceil(math.Log(1e12)/math.Max(1e-12, -math.Log(alpha))))
	iters := 0
	for ; iters < maxIter; iters++ {
		bellmanBackup(m, cost, v, alpha, next, argmin)
		if next.MaxAbsDiff(v) <= stop {
			v, next = next, v
			iters++
			break
		}
		v, next = next, v
	}
	pol, err := DeterministicPolicy(argmin, m.A)
	if err != nil {
		return nil, err
	}
	return &DPResult{Value: v, Policy: pol, Iterations: iters}, nil
}

// SolveLP1 solves the value-function linear program of Appendix A (LP1):
//
//	max Σ_s v(s)   s.t.   v(s) ≤ cost(s,a) + α Σ_j P_a(s,j) v(j)  ∀(s,a),
//
// whose optimum is the optimal value vector v* (the inequalities become
// tight at the minimizing actions). Note v is free in sign; since the lp
// package works over nonnegative variables, v is shifted by the worst-case
// constant bound v(s) ≥ 0 when costs are nonnegative — which all built-in
// metrics are; an error is returned otherwise.
func SolveLP1(m *Model, metric string, alpha float64) (mat.Vector, error) {
	if alpha < 0 || alpha >= 1 {
		return nil, fmt.Errorf("core: discount factor %g outside [0,1)", alpha)
	}
	cost, err := m.Metric(metric)
	if err != nil {
		return nil, err
	}
	for _, c := range cost.Data {
		if c < 0 {
			return nil, fmt.Errorf("core: SolveLP1 requires nonnegative costs (metric %q has %g)", metric, c)
		}
	}
	prob := lp.NewProblem(lp.Maximize, m.N)
	for s := 0; s < m.N; s++ {
		prob.Obj[s] = 1
	}
	var idx []int
	var val []float64
	for s := 0; s < m.N; s++ {
		for a := 0; a < m.A; a++ {
			// Row v(s) − α Σ_j P_a(s,j) v(j) ≤ cost(s,a), assembled from the
			// sparse transition row (AddConstraintNZ merges the duplicate at
			// j = s).
			idx = append(idx[:0], s)
			val = append(val[:0], 1)
			cols, vals := m.P[a].RowNZ(s)
			for k, j := range cols {
				idx = append(idx, j)
				val = append(val, -alpha*vals[k])
			}
			prob.AddConstraintNZ(fmt.Sprintf("v[%d]≤q(%d,%d)", s, s, a), idx, val, lp.LE, cost.At(s, a))
		}
	}
	sol, _, err := lp.NewSolver().Solve(nil, prob, nil)
	if err != nil {
		return nil, fmt.Errorf("core: LP1: %w", err)
	}
	return mat.Vector(sol.X), nil
}

// BellmanResidual returns ‖v − Tv‖_∞ for the given metric, the degree to
// which v violates the optimality equations of Theorem A.1.
func BellmanResidual(m *Model, metric string, alpha float64, v mat.Vector) (float64, error) {
	cost, err := m.Metric(metric)
	if err != nil {
		return 0, err
	}
	if len(v) != m.N {
		return 0, fmt.Errorf("core: value vector has %d entries, want %d", len(v), m.N)
	}
	out := mat.NewVector(m.N)
	bellmanBackup(m, cost, v, alpha, out, nil)
	return out.MaxAbsDiff(v), nil
}
