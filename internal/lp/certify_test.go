package lp

import (
	"context"
	"fmt"
	"math"
	"math/big"
	"slices"
)

// certifyVerdict proves the verdict of one Solve of p in exact arithmetic,
// so a test needs no second solver to trust the first:
//
//   - Optimal: CertifyExact on the returned basis must prove it optimal,
//     and the exact objective must match the reported one to 1e-9
//     relative. residual > 0 accepts a basis whose exact primal or dual
//     infeasibility is at most residual; callers pass it only for named
//     instances whose measured residual they record.
//   - Infeasible: certifyInfeasible.
//   - Unbounded: certifyUnbounded.
//
// Every other status has no certificate and is an error. The auxiliary LPs
// are solved with opts, the kernel configuration under test.
func certifyVerdict(p *Problem, sol *Solution, basis *Basis, residual float64, opts ...Option) error {
	switch sol.Status {
	case Optimal:
		c, err := CertifyExact(p, basis)
		if err != nil {
			return err
		}
		if !optimalWithin(c, residual) {
			return fmt.Errorf("basis not exactly optimal: %s", describe(c))
		}
		if obj, _ := c.Objective.Float64(); math.Abs(obj-sol.Objective) > 1e-9*(1+math.Abs(obj)) {
			return fmt.Errorf("reported objective %.17g, exact %.17g", sol.Objective, obj)
		}
		return nil
	case Infeasible:
		return certifyInfeasible(p, opts...)
	case Unbounded:
		return certifyUnbounded(p, opts...)
	}
	return fmt.Errorf("status %v has no certificate", sol.Status)
}

// optimalWithin reports whether c proves its basis optimal up to an exact
// primal and dual residual of at most residual (see Certificate).
func optimalWithin(c *Certificate, residual float64) bool {
	tol := new(big.Rat).SetFloat64(residual)
	neg := new(big.Rat).Neg(tol)
	return c.MinBasic.Cmp(neg) >= 0 && c.Artificial.Cmp(tol) <= 0 && c.MinReducedCost.Cmp(neg) >= 0
}

// describe renders a certificate's residuals as float64 approximations.
func describe(c *Certificate) string {
	f := func(r *big.Rat) float64 { v, _ := r.Float64(); return v }
	return fmt.Sprintf("min basic %.3g, basic artificial %.3g, min reduced cost %.3g",
		f(c.MinBasic), f(c.Artificial), f(c.MinReducedCost))
}

// certifyInfeasible proves p infeasible through its elastic LP: min Σe
// over p's rows with one ± elastic pair added to each, a'x + e⁺ − e⁻
// (rel) b. The elastic LP is always feasible, and p is feasible exactly
// when its optimum is zero. If the basis the solver returns is exactly
// dual feasible, weak duality makes its exact objective yᵀb a lower bound
// on every elastic point, so a positive objective proves that no x meets
// p's rows — whatever rounding the float solver's primal side carried.
func certifyInfeasible(p *Problem, opts ...Option) error {
	n := p.NumVars()
	e := NewProblem(Minimize, n+2*len(p.Cons))
	for i := range p.Cons {
		c := &p.Cons[i]
		e.AddConstraintNZ(c.Name, append(slices.Clone(c.Cols), n+2*i, n+2*i+1),
			append(slices.Clone(c.Vals), 1, -1), c.Rel, c.RHS)
		e.Obj[n+2*i], e.Obj[n+2*i+1] = 1, 1
	}
	_, basis, err := NewSolver(opts...).Solve(context.Background(), e, nil)
	if err != nil {
		return fmt.Errorf("elastic LP: %w", err)
	}
	c, err := CertifyExact(e, basis)
	if err != nil {
		return fmt.Errorf("elastic LP: %w", err)
	}
	if c.MinReducedCost.Sign() < 0 || c.Objective.Sign() <= 0 {
		return fmt.Errorf("elastic LP proves nothing: objective %s, %s", c.Objective.FloatString(20), describe(c))
	}
	return nil
}

// certifyUnbounded proves p unbounded: p has an exactly feasible point,
// and its ray LP — p's rows with zero right-hand sides plus c'd ≤ −1
// (c'd ≥ 1 when maximizing) — has an exactly feasible direction d, along
// which every feasible point improves without limit.
func certifyUnbounded(p *Problem, opts ...Option) error {
	if err := certifyFeasible(p, opts...); err != nil {
		return fmt.Errorf("primal: %w", err)
	}
	ray := NewProblem(p.Sense, p.NumVars())
	for i := range p.Cons {
		c := &p.Cons[i]
		ray.AddConstraintNZ(c.Name, c.Cols, c.Vals, c.Rel, 0)
	}
	if p.Sense == Minimize {
		ray.AddConstraint("improve", p.Obj, LE, -1)
	} else {
		ray.AddConstraint("improve", p.Obj, GE, 1)
	}
	if err := certifyFeasible(ray, opts...); err != nil {
		return fmt.Errorf("ray: %w", err)
	}
	return nil
}

// certifyFeasible proves p feasible: the basis of p solved under a zero
// objective must be exactly primal feasible with every basic artificial at
// exactly zero.
func certifyFeasible(p *Problem, opts ...Option) error {
	q := *p
	q.Obj = make([]float64, p.NumVars())
	_, basis, err := NewSolver(opts...).Solve(context.Background(), &q, nil)
	if err != nil {
		return err
	}
	c, err := CertifyExact(&q, basis)
	if err != nil {
		return err
	}
	if c.MinBasic.Sign() < 0 || c.Artificial.Sign() != 0 {
		return fmt.Errorf("basic solution not exactly feasible: %s", describe(c))
	}
	return nil
}
