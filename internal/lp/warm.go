package lp

import (
	"context"
	"fmt"
	"math"
)

// Basis captures the optimal simplex basis of a solved Problem together with
// a fingerprint of the standard form it belongs to. Passing it to
// Solver.Solve on a structurally identical problem (same variables, same
// constraint rows up to right-hand-side values — e.g. consecutive points of
// a Pareto sweep, where only one bound value moves) lets the solver skip
// phase 1 entirely: the basis is refactorized against the new data, primal
// feasibility is restored with dual-simplex pivots if the RHS change made it
// infeasible, and only then does the ordinary phase-2 iteration run. When
// the basis does not carry over (different standard-form shape, singular
// basis matrix, or dual pivoting fails), the solver transparently falls back
// to a cold two-phase solve. Warm starting therefore never changes the
// status or the optimal value; on degenerate problems with multiple optima
// it may land on a different optimal vertex (a different X of equal
// objective) than the cold path would.
type Basis struct {
	cols       []int
	nv, ns, na int
}

// String summarizes the basis shape for diagnostics.
func (b *Basis) String() string {
	return fmt.Sprintf("lp.Basis{m=%d nv=%d ns=%d na=%d}", len(b.cols), b.nv, b.ns, b.na)
}

// exportBasis snapshots the solver's current basis for reuse.
func (r *revised) exportBasis() *Basis {
	cols := make([]int, r.sf.m)
	copy(cols, r.basis)
	return &Basis{cols: cols, nv: r.sf.nv, ns: r.sf.ns, na: r.sf.na}
}

// BasisFromRows returns a starting basis for p given by rows: cols[i] names
// the structural column (a variable index) basic in constraint row i, or is
// negative to leave row i its own starting column — the slack or surplus
// of an LE or GE row, the artificial of an EQ row. Entries for rows with no
// coefficients, which the solver presolves away, are ignored. It returns
// nil when len(cols) differs from len(p.Cons) or an entry names a column
// outside [0, p.NumVars()).
//
// Solver.Solve takes the result like any warm basis: it validates it
// (a column named twice makes it incompatible), refactorizes it against p,
// repairs primal infeasibility with dual-simplex pivots, optimizes from
// there, and falls back to the slack start when the basis is incompatible
// or singular, holds a nonzero artificial, or ends in any verdict but
// Optimal. A basis by rows therefore changes where the simplex starts,
// never the verdict or the optimal objective. A cold solve builds its
// crash basis (Problem.Crash) here too.
func BasisFromRows(p *Problem, cols []int) *Basis {
	if len(cols) != len(p.Cons) {
		return nil
	}
	b := &Basis{nv: p.NumVars()}
	for i := range p.Cons {
		if len(p.Cons[i].Cols) == 0 {
			continue
		}
		if stdRel(&p.Cons[i]) != EQ {
			b.ns++
		}
		if stdRel(&p.Cons[i]) != LE {
			b.na++
		}
	}
	slack, art := b.nv, b.nv+b.ns
	for i := range p.Cons {
		c := &p.Cons[i]
		if len(c.Cols) == 0 {
			continue
		}
		own := slack
		switch stdRel(c) {
		case LE:
			slack++
		case GE:
			slack++
			art++
		case EQ:
			own = art
			art++
		}
		switch j := cols[i]; {
		case j >= b.nv:
			return nil
		case j >= 0:
			own = j
		}
		b.cols = append(b.cols, own)
	}
	return b
}

// solveCrash is the cold start from the basis p.Crash names: a warm start
// from it, reported as Crashed rather than WarmStarted. Like solveWarm it
// returns (nil, nil), the slack start, when there is no basis or it cannot
// be reused, and a Cancelled solution when p.Crash fails.
func solveCrash(ctx context.Context, p *Problem, sf *stdForm, cfg solverConfig) (*Solution, *revised) {
	rows, err := p.Crash(ctx, p)
	if err != nil {
		return &Solution{Status: Cancelled}, nil
	}
	b := BasisFromRows(p, rows)
	if b == nil || !b.compatible(sf) {
		return nil, nil
	}
	sol, r := solveWarm(ctx, sf, b, cfg)
	if sol != nil {
		sol.Crashed, sol.WarmStarted = sol.WarmStarted, false
	}
	return sol, r
}

// compatible reports whether the basis plausibly belongs to the standard
// form: same column-space shape, one distinct in-range column per row. It
// cannot detect every mismatch (a reordered problem with identical shape
// passes), but any accepted basis is still just a starting point — the
// solve refactorizes against the actual data and verifies the final answer,
// so a semantically stale basis costs pivots, never correctness.
func (b *Basis) compatible(sf *stdForm) bool {
	if b == nil || b.nv != sf.nv || b.ns != sf.ns || b.na != sf.na || len(b.cols) != sf.m {
		return false
	}
	seen := make(map[int]bool, sf.m)
	for _, c := range b.cols {
		if c < 0 || c >= sf.nTot || seen[c] {
			return false
		}
		seen[c] = true
	}
	return true
}

// notOptimalErr wraps a non-optimal status in the package error contract;
// a budget stop additionally matches ErrBudgetExceeded.
func notOptimalErr(s Status) error {
	if s == BudgetExceeded {
		return fmt.Errorf("lp: %w: %w", ErrBudgetExceeded, ErrNotOptimal)
	}
	return fmt.Errorf("lp: %v: %w", s, ErrNotOptimal)
}

// solveWarm attempts a solve warm-started from a basis compatible with sf
// (see warmTail for the contract of its result).
func solveWarm(ctx context.Context, sf *stdForm, warm *Basis, cfg solverConfig) (*Solution, *revised) {
	r := newRevised(ctx, sf, cfg)
	copy(r.basis, warm.cols)
	r.rebuildPos()
	return r.warmTail()
}

// warmTail runs a warm start from the basis r holds: a fresh state built
// from a caller's Basis (solveWarm), or a resident state re-armed after an
// rhs change (Resident.Solve). It returns (nil, nil) whenever the basis
// cannot be reused, signalling the caller to fall back to a cold solve; a
// non-nil Solution is definitive (a completed and verified phase-2 run, or
// a cancelled or budget-stopped solve — falling back to a cold solve after
// cancellation would only discover the same dead context again, and after
// budget exhaustion would silently double the budget).
func (r *revised) warmTail() (*Solution, *revised) {
	sf := r.sf
	// The warm path skips r.solve(), so it owns its flight-recorder
	// start/finish pair; a fallback to the cold path is a separate attempt
	// with its own pair.
	r.emit("start")
	defer r.finishMon()
	if !r.refactor() {
		return nil, nil // singular basis matrix under the new data
	}
	// Artificial variables may legitimately sit in an optimal basis (from a
	// redundant constraint) but only at level zero; a nonzero artificial
	// means the basis does not describe a feasible point of the new problem.
	for i, b := range r.basis {
		if b >= sf.nv+sf.ns && math.Abs(r.xB[i]) > artTol {
			return nil, nil
		}
	}
	if !r.primalFeasible() {
		// A pure RHS change (Pareto sweep neighbours) leaves the exported
		// basis dual feasible — reduced costs do not depend on the RHS — so
		// dual-simplex restoration is the natural repair. A coefficient
		// change (an SR-drift patch rewrote parts of A) can break both
		// feasibilities at once; then the dual entry condition fails, but
		// phase2's own repair loop — optimize treating the negative basics
		// as degenerate, exact refactorization, dual-simplex restore at the
		// now dual-feasible optimum — still converges from the stale basis,
		// and any failure there falls back to a cold solve below.
		if r.dualFeasible() && !r.dualSimplex() {
			var st Status
			switch {
			case r.budgetExceeded():
				st = BudgetExceeded
			case r.cancelled():
				st = Cancelled
			default:
				return nil, nil
			}
			sol := &Solution{Status: st}
			r.recordWork(sol)
			return sol, nil
		}
	}
	sol := r.phase2()
	if sol.Status == Cancelled || sol.Status == BudgetExceeded {
		return sol, nil
	}
	// A warm start from an ill-conditioned basis can leave the maintained
	// reduced costs far from the final basis's own, so its optimality is
	// checked against recomputed ones, as its feasibility is against the
	// original rows.
	if sol.Status != Optimal || !sf.verify(sol.X) || !r.dualFeasible() {
		return nil, nil // let the battle-tested cold path have it
	}
	sol.WarmStarted = true
	return sol, r
}
