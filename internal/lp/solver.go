package lp

// Solver: the package's one entry point. Construct a Solver with functional
// options setting a pivot budget, a wall-clock budget or a flight recorder,
// then call Solve with a context and an optional warm basis. The basis
// kernel and the pricing rule are not options: newRevised picks both from
// the basis size (see autoSparseMin).

import (
	"context"
	"fmt"
	"time"
)

// autoSparseMin is the basis size at which the solver switches from dense LU
// with product-form etas and Dantzig pricing to sparse LU with
// Forrest–Tomlin updates and Devex pricing: below it the dense LU's
// contiguous inner loops beat pointer-chasing sparse structures, above it
// asymptotics take over (and above a few thousand rows the dense kernel
// stops being allocatable at all).
const autoSparseMin = 256

// solverConfig is the resolved option set of one Solver.
type solverConfig struct {
	// atScale runs the m ≥ autoSparseMin configuration on every basis size;
	// no option sets it, package tests do (export_test.go).
	atScale bool
	// pricingWorkers sizes the pricing pool (see resolveWorkers); no option
	// sets it, package tests pin it to probe the parallel scans.
	pricingWorkers int
	maxPivots      int
	wallClock      time.Duration
	monitor        Monitor
	monitorEvery   int
}

// Option configures a Solver (functional-options pattern).
type Option func(*solverConfig)

// WithMaxPivots bounds the total simplex pivots of one Solve call (per solve
// attempt: a conservative numerical retry gets a fresh budget, warm-start
// restoration shares the warm attempt's). n <= 0 means unlimited. A solve
// stopped by the budget returns Status BudgetExceeded — callers with a
// freshness deadline (the online adapter) treat it like a cancelled refresh
// and keep the previous policy.
func WithMaxPivots(n int) Option {
	return func(c *solverConfig) { c.maxPivots = n }
}

// WithWallClock bounds the wall-clock time of one Solve call by deriving a
// deadline context; expiry surfaces as Status Cancelled with an error
// unwrapping to context.DeadlineExceeded, indistinguishable from a caller
// deadline (it is one).
func WithWallClock(d time.Duration) Option {
	return func(c *solverConfig) { c.wallClock = d }
}

// Solver is a configured LP solver. The zero value (and NewSolver with no
// options) has no pivot budget and no wall clock. A Solver is immutable and
// safe for concurrent use; all solve state lives per call.
type Solver struct {
	cfg solverConfig
}

// NewSolver returns a Solver configured by the given options.
func NewSolver(opts ...Option) *Solver {
	s := &Solver{}
	for _, o := range opts {
		o(&s.cfg)
	}
	return s
}

// Solve solves the problem, optionally warm-starting from the basis of a
// previous structurally identical solve (nil warm = cold solve). On Optimal
// it returns the solution and the optimal basis for chaining into the next
// solve; otherwise the basis is nil and the error wraps ErrNotOptimal (or
// the context cause when cancelled). The pivot loops check ctx once per
// iteration, so cancellation takes effect within one pivot. A nil ctx is
// context.Background().
func (s *Solver) Solve(ctx context.Context, p *Problem, warm *Basis) (*Solution, *Basis, error) {
	sol, r, err := s.solve(ctx, p, warm, nil)
	if err != nil {
		return sol, nil, err
	}
	return sol, r.exportBasis(), nil
}

// solve is the body of Solve and Resident.Solve. The standard form is built
// once and shared by every attempt: the warm start, the cold fallback and
// the conservative retry. A non-nil resident is a retained solver state
// whose standard form already carries p's current rhs and whose basis is
// warm's; the warm attempt then runs on it instead of on a fresh state
// built from warm. On Optimal, solve also returns the state that produced
// the solution.
func (s *Solver) solve(ctx context.Context, p *Problem, warm *Basis, resident *revised) (*Solution, *revised, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	cfg := s.cfg
	if cfg.wallClock > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, cfg.wallClock)
		defer cancel()
	}

	var sf *stdForm
	var sol *Solution
	var r *revised
	if resident != nil {
		sf = resident.sf
		resident.rearm(ctx)
		sol, r = resident.warmTail()
	} else {
		var pre Status
		sf, pre = newStdForm(p)
		switch {
		case pre != Optimal:
			// Trivial presolve verdicts don't depend on the starting basis.
			sol = &Solution{Status: pre}
		case warm != nil && warm.compatible(sf):
			sol, r = solveWarm(ctx, sf, warm, cfg)
		}
	}
	if sol == nil {
		sol, r = solveRevised(ctx, sf, false, cfg)
		if sol.Status == Numerical {
			// Retry with Bland's rule from the start and aggressive
			// refactorization; slower but maximally stable.
			sol, r = solveRevised(ctx, sf, true, cfg)
		}
	}
	if sol.Status == Cancelled {
		cause := context.Cause(ctx)
		if cause == nil {
			// The deadline was observed directly before the context's timer
			// goroutine ran (see revised.cancelled).
			cause = context.DeadlineExceeded
		}
		return sol, nil, fmt.Errorf("lp: solve cancelled: %w", cause)
	}
	if sol.Status != Optimal {
		return sol, nil, notOptimalErr(sol.Status)
	}
	// Activities and objective are recomputed from the original data.
	finishSolution(p, sol)
	return sol, r, nil
}
