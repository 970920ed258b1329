// Package markov implements the discrete-time Markov-chain machinery that
// the DPM stochastic model of Benini et al. is built on: state-distribution
// steps, stationary distributions, discounted total costs (the value vectors
// of Appendix A) and discounted occupancy measures (state frequencies).
//
// Chains consume their transition structure through the Op interface (a
// distribution step and a value step — see op.go), so a chain can be an
// explicit CSR matrix or a matrix-free operator such as a lazy Kronecker
// product. Explicit chains are stored in compressed-sparse-row form
// (internal/mat's CSR): composed DPM chains are extremely sparse — the queue
// law of Eq. 3 is banded and the component chains have tiny out-degrees — so
// distribution steps run in O(nnz). The direct solves behind Stationary,
// DiscountedValue and DiscountedOccupancy assemble their n×n linear systems
// straight from the sparse form (no dense transition matrix, transpose, or
// clone is ever materialized) and hand them to the dense LU — one dense
// system per query, the same "dense factorization of only the system that
// needs it" discipline the revised simplex uses for its basis. Chains above
// directLimit states, and all matrix-free chains, answer the same queries
// iteratively (op.go) at one operator application per sweep.
package markov

import (
	"fmt"

	"repro/internal/mat"
)

// Chain is a stationary discrete-time Markov chain over states 0..N-1. Its
// transition structure is consumed through the Op interface; chains built
// from an explicit matrix (New/NewCSR) additionally keep the CSR form, which
// enables the direct dense-LU solve paths. Chains wrapped around a
// matrix-free operator (NewOp) use the iterative paths exclusively.
type Chain struct {
	op Op
	p  *mat.CSR // nil for matrix-free chains
}

// New validates that p is square and row-stochastic (within tol; pass 0 for
// the default) and wraps it in a Chain, compressing it to sparse form.
func New(p *mat.Matrix, tol float64) (*Chain, error) {
	if p.Rows != p.Cols {
		return nil, fmt.Errorf("markov: transition matrix is %dx%d, want square", p.Rows, p.Cols)
	}
	if err := p.CheckStochastic(tol); err != nil {
		return nil, fmt.Errorf("markov: %w", err)
	}
	csr := mat.FromDense(p)
	return &Chain{op: csr, p: csr}, nil
}

// NewCSR validates that p is square and row-stochastic on its sparse form
// (within tol; pass 0 for the default) and wraps it in a Chain without ever
// densifying. The matrix is not copied; callers must not mutate it.
func NewCSR(p *mat.CSR, tol float64) (*Chain, error) {
	if p.Rows() != p.Cols() {
		return nil, fmt.Errorf("markov: transition matrix is %dx%d, want square", p.Rows(), p.Cols())
	}
	if err := p.CheckStochastic(tol); err != nil {
		return nil, fmt.Errorf("markov: %w", err)
	}
	return &Chain{op: p, p: p}, nil
}

// N returns the number of states.
func (c *Chain) N() int { return c.op.Rows() }

// Sparse returns the CSR transition matrix, or nil for a matrix-free chain.
// Callers must not mutate it.
func (c *Chain) Sparse() *mat.CSR { return c.p }

// Step returns the distribution after one step: dist * P, at one operator
// application (O(nnz) for explicit chains, the factored sweep cost for lazy
// ones).
func (c *Chain) Step(dist mat.Vector) mat.Vector {
	next := mat.NewVector(c.N())
	c.op.MulVecTInto(next, dist)
	return next
}

// Stationary returns a stationary distribution π with π = πP and Σπ = 1.
// Explicit chains below directLimit states solve the balance equations
// directly (one dense LU, one balance row replaced by normalization); larger
// or matrix-free chains take StationaryIter with the default tolerance.
// For an irreducible chain this is the unique stationary distribution; for
// a reducible chain the direct path returns one stationary distribution (or
// ErrSingular if the replacement system happens to be singular).
func (c *Chain) Stationary() (mat.Vector, error) {
	if c.p == nil || c.N() > directLimit {
		return c.StationaryIter(0, 0)
	}
	return c.stationaryDirect()
}

// stationaryDirect is the dense-LU small-n path (and the parity oracle for
// StationaryIter).
func (c *Chain) stationaryDirect() (mat.Vector, error) {
	n := c.N()
	if n == 0 {
		return nil, fmt.Errorf("markov: empty chain")
	}
	// Assemble A = Pᵀ - I directly from the sparse rows (scattering entry
	// (i,j) to position (j,i)), then overwrite the last row with 1s
	// (normalization).
	a := mat.NewMatrix(n, n)
	for i := 0; i < n; i++ {
		cols, vals := c.p.RowNZ(i)
		for k, j := range cols {
			a.Add(j, i, vals[k])
		}
	}
	for i := 0; i < n; i++ {
		a.Add(i, i, -1)
	}
	for j := 0; j < n; j++ {
		a.Set(n-1, j, 1)
	}
	b := mat.NewVector(n)
	b[n-1] = 1
	pi, err := mat.Solve(a, b)
	if err != nil {
		return nil, fmt.Errorf("markov: stationary solve: %w", err)
	}
	// Clean tiny negatives from roundoff.
	for i, v := range pi {
		if v < 0 && v > -1e-10 {
			pi[i] = 0
		}
	}
	return pi, nil
}

// DiscountedValue returns v = Σ_{t≥0} αᵗ Pᵗ cost, the total expected
// discounted cost from each starting state. Explicit chains below
// directLimit states solve (I − αP) v = cost directly; larger or matrix-free
// chains take DiscountedValueIter with the default tolerance — unless α is
// so close to 1 that the iteration cannot reach tolerance within the default
// cap, in which case an explicit chain falls back to the direct solve (slow
// but exact) rather than failing.
// This is the value vector of the optimality equations in Appendix A.
// It requires 0 <= α < 1.
func (c *Chain) DiscountedValue(cost mat.Vector, alpha float64) (mat.Vector, error) {
	if c.p == nil || c.N() > directLimit {
		stiff := geomIters(alpha, DefaultIterTol*(1-alpha)) > DefaultMaxIter
		if c.p == nil || !stiff {
			return c.DiscountedValueIter(cost, alpha, 0, 0)
		}
	}
	return c.discountedValueDirect(cost, alpha)
}

// discountedValueDirect is the dense-LU path (and the iterative parity
// oracle).
func (c *Chain) discountedValueDirect(cost mat.Vector, alpha float64) (mat.Vector, error) {
	if alpha < 0 || alpha >= 1 {
		return nil, fmt.Errorf("markov: discount factor %g outside [0,1)", alpha)
	}
	if len(cost) != c.N() {
		return nil, fmt.Errorf("markov: cost vector length %d, want %d", len(cost), c.N())
	}
	n := c.N()
	a := mat.NewMatrix(n, n)
	for i := 0; i < n; i++ {
		cols, vals := c.p.RowNZ(i)
		row := a.Row(i)
		for k, j := range cols {
			row[j] = -alpha * vals[k]
		}
	}
	for i := 0; i < n; i++ {
		a.Add(i, i, 1)
	}
	v, err := mat.Solve(a, cost)
	if err != nil {
		return nil, fmt.Errorf("markov: discounted value solve: %w", err)
	}
	return v, nil
}

// DiscountedOccupancy returns the normalized discounted occupancy measure
//
//	y = (1−α) Σ_{t≥0} αᵗ q0 Pᵗ,
//
// i.e. y_j is the discounted fraction of time spent in state j starting from
// distribution q0. It solves (I − αPᵀ) yᵀ = (1−α) q0ᵀ, with the system
// assembled straight from the sparse form. Σy = 1 whenever Σq0 = 1. These
// are the (scaled) state frequencies of LP2.
//
// Explicit chains below directLimit states solve directly; larger or
// matrix-free chains take DiscountedOccupancyIter with the default
// tolerance, except that an explicit chain whose α is too stiff for the
// default iteration budget falls back to the direct solve.
func (c *Chain) DiscountedOccupancy(q0 mat.Vector, alpha float64) (mat.Vector, error) {
	if c.p == nil || c.N() > directLimit {
		stiff := geomIters(alpha, DefaultIterTol) > DefaultMaxIter
		if c.p == nil || !stiff {
			return c.DiscountedOccupancyIter(q0, alpha, 0, 0)
		}
	}
	return c.discountedOccupancyDirect(q0, alpha)
}

// discountedOccupancyDirect is the dense-LU path (and the iterative parity
// oracle).
func (c *Chain) discountedOccupancyDirect(q0 mat.Vector, alpha float64) (mat.Vector, error) {
	if alpha < 0 || alpha >= 1 {
		return nil, fmt.Errorf("markov: discount factor %g outside [0,1)", alpha)
	}
	if len(q0) != c.N() {
		return nil, fmt.Errorf("markov: initial distribution length %d, want %d", len(q0), c.N())
	}
	n := c.N()
	a := mat.NewMatrix(n, n)
	for i := 0; i < n; i++ {
		cols, vals := c.p.RowNZ(i)
		for k, j := range cols {
			a.Add(j, i, -alpha*vals[k])
		}
	}
	for i := 0; i < n; i++ {
		a.Add(i, i, 1)
	}
	rhs := q0.Clone().Scale(1 - alpha)
	y, err := mat.Solve(a, rhs)
	if err != nil {
		return nil, fmt.Errorf("markov: occupancy solve: %w", err)
	}
	for i, v := range y {
		if v < 0 && v > -1e-10 {
			y[i] = 0
		}
	}
	return y, nil
}
