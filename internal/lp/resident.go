package lp

// Resident re-solves: one Problem solved again and again with only its
// right-hand sides moving, the shape of a Pareto sweep (each point is the
// previous LP with one bound's rhs changed). A fresh Solve of such a point
// rebuilds the standard form and the row mirror and refactorizes a basis
// that has not changed; the resident keeps all of that from the last Optimal
// solve and pays only for an FTRAN of the new rhs and the point's own pivots.

import (
	"context"
	"time"
)

// Resident is a Solver bound to one Problem whose right-hand sides change
// between solves through SetRHS. It retains the last Optimal solve's
// standard form, row mirror, pricer and basis factorization (which that
// solve left as an exact factorization of its optimal basis), so a re-solve
// warm-started from that basis skips the standard-form assembly and the LU
// rebuild and goes straight to the warm-start tail: the artificial check,
// dual-simplex repair if the rhs change made the basis primal infeasible,
// phase 2 and verification.
//
// Solve(ctx, warm) is Solver.Solve(ctx, p, warm) on the Problem's current
// data: status, X, objective, pivots, WarmStarted, the final factorization
// and the exported basis are bit-identical, the flight recorder sees the
// same events in the same phases at the same pivot counts, and the pivot
// budget, the wall clock and the health counters apply per solve exactly
// as in a fresh Solve. Only the skipped work shows, as fewer
// Refactorizations and smaller Timings. The retained state is used only
// when warm is the basis the previous Solve returned and only rhs values
// moved since; in every other case — the previous solve was not Optimal or
// came from the conservative retry, an rhs changed sign (which changes the
// standard form), or the warm start fails — Solve does exactly what
// Solver.Solve does.
//
// Between solves the caller may change right-hand sides only through
// SetRHS; row names may change freely, anything else must not change. A
// Resident is not safe for concurrent use.
type Resident struct {
	s *Solver
	p *Problem
	// r is the state the last Optimal solve finished in and basis the Basis
	// that solve returned; both nil when nothing is reusable.
	r     *revised
	basis *Basis
}

// Resident returns a Resident solving p under s's configuration. Its first
// Solve is a plain Solver.Solve.
func (s *Solver) Resident(p *Problem) *Resident {
	return &Resident{s: s, p: p}
}

// SetRHS sets the right-hand side of constraint row (an index into
// Problem.Cons) to v, in the Problem and in the retained standard form.
func (rs *Resident) SetRHS(row int, v float64) {
	c := &rs.p.Cons[row]
	old := c.RHS
	c.RHS = v
	if rs.r == nil {
		return
	}
	if len(c.Cols) == 0 || (old < 0) != (v < 0) {
		// An empty row's presolve verdict depends on its rhs, and a sign
		// change flips the row's standard-form relation: the retained
		// standard form no longer matches, so the next Solve starts over.
		rs.r, rs.basis = nil, nil
		return
	}
	// Presolve drops empty rows, so the standard-form row is the count of
	// non-empty rows before this one; a negative rhs is stored negated.
	i := 0
	for k := range row {
		if len(rs.p.Cons[k].Cols) > 0 {
			i++
		}
	}
	if v < 0 {
		v = -v
	}
	sf := rs.r.sf
	sf.b[i] = v
	sf.artMass = sf.artificialMass()
}

// Solve solves the Problem at its current data, warm-started from warm
// (nil = cold), with Solver.Solve's results and error contract.
func (rs *Resident) Solve(ctx context.Context, warm *Basis) (*Solution, *Basis, error) {
	var resident *revised
	if rs.r != nil && warm == rs.basis {
		resident = rs.r
	}
	rs.r, rs.basis = nil, nil
	sol, r, err := rs.s.solve(ctx, rs.p, warm, resident)
	if err != nil {
		return sol, nil, err
	}
	basis := r.exportBasis()
	if !r.conservative {
		rs.r, rs.basis = r, basis
	}
	return sol, basis, nil
}

// rearm readies a retained state for another solve under ctx. The
// per-solve accounting a fresh state starts from zero starts from zero —
// work counters, stage timings, the kernel's health counters, the flight
// recorder's per-attempt state — and the basic values are marked stale, so
// the first refactor recomputes them from the (changed) exact rhs. The
// basis, the factorization, the row mirror and the pricer's storage carry
// over; every phase recomputes the reduced costs and resets the pricer on
// entry, as it does on a fresh state.
func (r *revised) rearm(ctx context.Context) {
	r.ctx = ctx
	r.deadline, r.hasDeadline = ctx.Deadline()
	if ca, ok := r.fact.(ctxAware); ok {
		ca.setContext(ctx)
	}
	if sp, ok := r.fact.(*sparseFactorizer); ok {
		sp.resetCounters()
	}
	r.bWork = r.sf.b
	r.xBFresh = false
	r.iterations, r.refactors = 0, 0
	r.tm = Timings{}
	if r.mon != nil {
		r.monLast, r.monStall, r.monDone = 0, false, false
		r.monPhase, r.monCost, r.monMaxCol = "", nil, 0
		r.monStart = time.Now()
	}
}
