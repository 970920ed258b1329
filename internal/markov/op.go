package markov

// The operator interface and the iterative (matrix-free) solver paths.
//
// A Chain consumes its transition matrix only through Op: one distribution
// step (MulVecTInto), one value step (MulVecInto), and the dimensions. Any
// structure that can do those — an explicit CSR, a lazy Kronecker product
// (mat.KronOp), or the composed system and policy operators core builds
// from SP×SR×queue factors — is a chain, and the iterative algorithms below
// evaluate stationary distributions, discounted values and discounted
// occupancies against it without ever materializing Π-sized joint nonzeros,
// at O(cost(one step)) per iteration and O(n) extra memory. Nothing in this
// package samples; the simulator (internal/sim) walks CSR rows and
// FactoredSP.SampleNext itself.
//
// The direct dense-LU solves in markov.go remain the small-n path (below
// directLimit) and the parity oracle the iterative paths are tested against.

import (
	"fmt"
	"math"

	"repro/internal/mat"
)

// Op is the transition-operator contract a Chain needs: dimensions, one
// distribution step and one value step. Implementations must be row-stochastic linear operators over states
// 0..Rows()-1.
//
// Implemented by *mat.CSR, *mat.KronOp, and core's SystemOp and PolicyOp.
type Op interface {
	// Rows and Cols return the (square) operator dimensions.
	Rows() int
	Cols() int
	// MulVecTInto writes dst = x·P — the distribution after one step. dst
	// must not alias x.
	MulVecTInto(dst, x mat.Vector)
	// MulVecInto writes dst = P·v — the expected next-step value. dst must
	// not alias v.
	MulVecInto(dst, v mat.Vector)
}

// directLimit is the state-count threshold below which Stationary,
// DiscountedValue and DiscountedOccupancy use the direct dense-LU solve on
// an explicit CSR chain; above it (or on a matrix-free chain) they take the
// iterative path with the default tolerances. A var so tests can force
// either path.
var directLimit = 2048

// Defaults for the iterative paths; the explicit *Iter entry points accept
// zero to mean these.
const (
	// DefaultIterTol is the default convergence tolerance: L1 change per
	// sweep for StationaryIter, the sup-norm error bound for
	// DiscountedValueIter, and the L1 tail mass for DiscountedOccupancyIter.
	DefaultIterTol = 1e-12
	// DefaultMaxIter caps the iteration count of every iterative path.
	DefaultMaxIter = 200000
)

// NewOp wraps a transition operator in a Chain. An explicit *mat.CSR is
// validated row-stochastic (within tol; 0 means the default) and retains the
// direct solve paths; any other operator is validated by applying it to the
// all-ones vector (P·1 = 1 for a stochastic matrix), and uses the iterative
// paths exclusively.
func NewOp(op Op, tol float64) (*Chain, error) {
	if csr, ok := op.(*mat.CSR); ok {
		return NewCSR(csr, tol)
	}
	if op.Rows() != op.Cols() {
		return nil, fmt.Errorf("markov: transition operator is %dx%d, want square", op.Rows(), op.Cols())
	}
	if tol <= 0 {
		tol = mat.DefaultTol
	}
	n := op.Rows()
	ones := mat.NewVector(n)
	for i := range ones {
		ones[i] = 1
	}
	r := mat.NewVector(n)
	op.MulVecInto(r, ones)
	for i, v := range r {
		if math.Abs(v-1) > tol*float64(n+1) {
			return nil, fmt.Errorf("markov: operator row %d sums to %g, want 1", i, v)
		}
	}
	return &Chain{op: op}, nil
}

// iterParams resolves the (tol, maxIter) pair, zero meaning the default.
func iterParams(tol float64, maxIter int) (float64, int) {
	if tol <= 0 {
		tol = DefaultIterTol
	}
	if maxIter <= 0 {
		maxIter = DefaultMaxIter
	}
	return tol, maxIter
}

// geomIters estimates the iteration count a geometric-rate-α scheme needs to
// push its error below tol, ⌈log(tol)/log(α)⌉, saturating at MaxInt for
// α → 1.
func geomIters(alpha, tol float64) int {
	if alpha <= 0 {
		return 1
	}
	t := math.Log(tol) / math.Log(alpha)
	if t < 1 {
		return 1
	}
	if t > math.MaxInt32 {
		return math.MaxInt32
	}
	return int(t) + 1
}

// StationaryIter computes a stationary distribution by damped power
// iteration: π ← ½π + ½πP. The ½ damping maps every eigenvalue λ of P to
// (1+λ)/2, killing periodic oscillation (λ = −1) while fixing exactly the
// stationary distributions (λ = 1), so the iteration converges for every
// finite chain with a unique stationary distribution. Convergence is
// declared when the L1 change per sweep drops below tol; zero tol/maxIter
// mean the defaults. Cost: one MulVecTInto per iteration, O(n) extra memory.
func (c *Chain) StationaryIter(tol float64, maxIter int) (mat.Vector, error) {
	n := c.N()
	if n == 0 {
		return nil, fmt.Errorf("markov: empty chain")
	}
	tol, maxIter = iterParams(tol, maxIter)
	pi := mat.NewVector(n)
	for i := range pi {
		pi[i] = 1 / float64(n)
	}
	next := mat.NewVector(n)
	for it := 0; it < maxIter; it++ {
		c.op.MulVecTInto(next, pi)
		// Damped update and L1 drift in one pass; renormalize to absorb
		// roundoff mass leakage.
		diff, sum := 0.0, 0.0
		for i := range next {
			v := 0.5*pi[i] + 0.5*next[i]
			diff += math.Abs(v - pi[i])
			pi[i] = v
			sum += v
		}
		if sum != 0 && math.Abs(sum-1) > 1e-15 {
			pi.Scale(1 / sum)
		}
		if diff <= tol {
			for i, v := range pi {
				if v < 0 && v > -1e-10 {
					pi[i] = 0
				}
			}
			return pi, nil
		}
	}
	return nil, fmt.Errorf("markov: stationary iteration did not converge within %d sweeps (last tol target %g); raise maxIter or use an explicit chain of at most %d states", maxIter, tol, directLimit)
}

// DiscountedValueIter computes v = Σ_{t≥0} αᵗ Pᵗ cost by the fixed-point
// iteration v ← cost + αPv, which contracts at rate α in the sup norm;
// iteration stops when the a-posteriori error bound α/(1−α)·‖v_{t+1}−v_t‖∞
// drops below tol. Zero tol/maxIter mean the defaults; an α too close to 1
// for the budget returns an error up front rather than spinning.
func (c *Chain) DiscountedValueIter(cost mat.Vector, alpha, tol float64, maxIter int) (mat.Vector, error) {
	if alpha < 0 || alpha >= 1 {
		return nil, fmt.Errorf("markov: discount factor %g outside [0,1)", alpha)
	}
	if len(cost) != c.N() {
		return nil, fmt.Errorf("markov: cost vector length %d, want %d", len(cost), c.N())
	}
	tol, maxIter = iterParams(tol, maxIter)
	if need := geomIters(alpha, tol*(1-alpha)); need > maxIter {
		return nil, fmt.Errorf("markov: discounted value iteration at α=%g needs ≈%d sweeps for tol %g, over the %d cap; raise maxIter or use the direct path", alpha, need, tol, maxIter)
	}
	n := c.N()
	v := cost.Clone()
	pv := mat.NewVector(n)
	for it := 0; it < maxIter; it++ {
		c.op.MulVecInto(pv, v)
		diff := 0.0
		for i := range pv {
			nv := cost[i] + alpha*pv[i]
			if d := math.Abs(nv - v[i]); d > diff {
				diff = d
			}
			v[i] = nv
		}
		if alpha/(1-alpha)*diff <= tol {
			return v, nil
		}
	}
	return nil, fmt.Errorf("markov: discounted value iteration did not converge within %d sweeps", maxIter)
}

// DiscountedOccupancyIter computes y = (1−α) Σ_{t≥0} αᵗ q0 Pᵗ by forward
// accumulation of the geometric series. The truncation error after T terms
// is exactly bounded in L1 by α^{T+1}·‖q0‖1, so the loop runs the a-priori
// ⌈log(tol)/log(α)⌉ sweeps (capped by maxIter, erroring up front when the
// budget cannot reach tol). Zero tol/maxIter mean the defaults.
func (c *Chain) DiscountedOccupancyIter(q0 mat.Vector, alpha, tol float64, maxIter int) (mat.Vector, error) {
	if alpha < 0 || alpha >= 1 {
		return nil, fmt.Errorf("markov: discount factor %g outside [0,1)", alpha)
	}
	if len(q0) != c.N() {
		return nil, fmt.Errorf("markov: initial distribution length %d, want %d", len(q0), c.N())
	}
	tol, maxIter = iterParams(tol, maxIter)
	need := geomIters(alpha, tol)
	if need > maxIter {
		return nil, fmt.Errorf("markov: discounted occupancy at α=%g needs ≈%d sweeps for tol %g, over the %d cap; raise maxIter or use the direct path", alpha, need, tol, maxIter)
	}
	n := c.N()
	y := q0.Clone().Scale(1 - alpha)
	z := q0.Clone()
	next := mat.NewVector(n)
	w := (1 - alpha) * alpha
	for t := 1; t <= need; t++ {
		c.op.MulVecTInto(next, z)
		copy(z, next)
		y.AddScaled(w, z)
		w *= alpha
	}
	for i, v := range y {
		if v < 0 && v > -1e-10 {
			y[i] = 0
		}
	}
	return y, nil
}
