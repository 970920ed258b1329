package lp

// Dense full-tableau simplex, retained for two jobs: the reference oracle
// that parity tests compare the revised simplex against, and
// the "before" leg of benchmarks measuring what the sparse refactor buys.
// It consumes the same standard form (and produces the same Basis layout)
// as the revised solver, but materializes the full m×nTot tableau — cost
// per pivot O(rows × cols), memory O(rows × cols) — which is exactly the
// blowup that caps large composed systems.

import (
	"math"

	"repro/internal/mat"
)

// SolveDense solves the problem with the two-phase full-tableau simplex.
// Semantics match Solver.Solve (same statuses, same error contract) without
// warm starts, contexts or budgets; only the algorithm differs. It is the
// reference oracle the parity tests hold the revised simplex to.
func SolveDense(p *Problem) (*Solution, error) {
	sol := solveDenseOnce(p, false)
	if sol.Status == Numerical {
		sol = solveDenseOnce(p, true)
	}
	if sol.Status != Optimal {
		return sol, notOptimalErr(sol.Status)
	}
	finishSolution(p, sol)
	return sol, nil
}

func solveDenseOnce(p *Problem, conservative bool) *Solution {
	sf, preStatus := newStdForm(p)
	if preStatus != Optimal {
		return &Solution{Status: preStatus}
	}
	sol := newTableau(sf, conservative).solve()
	if sol.Status == Optimal && !sf.verify(sol.X) {
		sol.Status = Numerical
	}
	return sol
}

// tableau is the dense simplex tableau plus the immutable standard-form
// data it is periodically recomputed from. rows[i] has length nTot+1; the
// last entry is the current basic value. obj holds the reduced-cost row of
// the active phase (last entry: negated objective value).
type tableau struct {
	sf *stdForm

	origA *mat.Matrix // m × nTot, densified standard form

	rows  [][]float64
	obj   []float64
	basis []int

	iterations   int
	refreshEvery int
	blandAlways  bool
}

func newTableau(sf *stdForm, conservative bool) *tableau {
	t := &tableau{
		sf:           sf,
		origA:        mat.NewMatrix(sf.m, sf.nTot),
		basis:        make([]int, sf.m),
		refreshEvery: 40,
	}
	copy(t.basis, sf.initBasis)
	if conservative {
		t.refreshEvery = 8
		t.blandAlways = true
	}
	for j := 0; j < sf.nTot; j++ {
		rows, vals := sf.a.ColNZ(j)
		for k, i := range rows {
			t.origA.Set(i, j, vals[k])
		}
	}
	t.rows = make([][]float64, sf.m)
	for i := range t.rows {
		t.rows[i] = make([]float64, sf.nTot+1)
	}
	t.obj = make([]float64, sf.nTot+1)
	return t
}

// refresh recomputes the whole tableau exactly from the original data and
// the current basis: rows = B⁻¹[A|b], reduced costs = c − yᵀA with
// Bᵀy = c_B. Returns false if the basis matrix is singular (the caller then
// keeps the incrementally-updated tableau).
func (t *tableau) refresh(cost mat.Vector) bool {
	m, nTot := t.sf.m, t.sf.nTot
	b := mat.NewMatrix(m, m)
	for i := 0; i < m; i++ {
		for r := 0; r < m; r++ {
			b.Set(r, i, t.origA.At(r, t.basis[i]))
		}
	}
	f, err := mat.Factor(b)
	if err != nil {
		return false
	}
	// Basic values.
	xb := f.Solve(t.sf.b)
	// Columns: B⁻¹ A, column by column.
	colBuf := mat.NewVector(m)
	newRows := make([][]float64, m)
	for i := range newRows {
		newRows[i] = make([]float64, nTot+1)
	}
	for j := 0; j < nTot; j++ {
		nonzero := false
		for r := 0; r < m; r++ {
			v := t.origA.At(r, j)
			colBuf[r] = v
			if v != 0 {
				nonzero = true
			}
		}
		if !nonzero {
			continue
		}
		sol := f.Solve(colBuf)
		for r := 0; r < m; r++ {
			newRows[r][j] = sol[r]
		}
	}
	for r := 0; r < m; r++ {
		v := xb[r]
		if v < 0 && v > -1e-7 {
			v = 0
		}
		newRows[r][nTot] = v
	}
	// Reduced costs.
	cb := mat.NewVector(m)
	for i, bi := range t.basis {
		cb[i] = cost[bi]
	}
	y := f.SolveT(cb)
	newObj := make([]float64, nTot+1)
	for j := 0; j < nTot; j++ {
		rc := cost[j]
		for r := 0; r < m; r++ {
			rc -= y[r] * t.origA.At(r, j)
		}
		newObj[j] = rc
	}
	for _, bi := range t.basis {
		newObj[bi] = 0
	}
	newObj[nTot] = -y.Dot(t.sf.b)
	t.rows = newRows
	t.obj = newObj
	return true
}

// pivot performs a pivot on (row, col).
func (t *tableau) pivot(row, col int) {
	pr := t.rows[row]
	pv := pr[col]
	inv := 1 / pv
	for j := range pr {
		pr[j] *= inv
	}
	pr[col] = 1
	for i, r := range t.rows {
		if i == row {
			continue
		}
		if f := r[col]; f != 0 {
			for j := range r {
				r[j] -= f * pr[j]
			}
			r[col] = 0
		}
	}
	if f := t.obj[col]; f != 0 {
		for j := range t.obj {
			t.obj[j] -= f * pr[j]
		}
		t.obj[col] = 0
	}
	t.basis[row] = col
	t.iterations++
}

// chooseColumn picks the entering column. maxCol bounds the candidates
// (excludes artificials in phase 2).
func (t *tableau) chooseColumn(maxCol int, bland bool) int {
	if bland {
		for j := 0; j < maxCol; j++ {
			if t.obj[j] < -costTol {
				return j
			}
		}
		return -1
	}
	best, bestVal := -1, -costTol
	for j := 0; j < maxCol; j++ {
		if t.obj[j] < bestVal {
			bestVal = t.obj[j]
			best = j
		}
	}
	return best
}

// chooseRow runs the ratio test for entering column col. Ratio comparisons
// use a relative tolerance; among (near-)ties the largest pivot element
// wins for stability, except under Bland's rule where the smallest basis
// index wins to guarantee termination. Returns -1 when the column is
// unbounded.
func (t *tableau) chooseRow(col int, bland bool) int {
	nTot := t.sf.nTot
	bestRow := -1
	bestRatio := math.Inf(1)
	bestPivot := 0.0
	for i, r := range t.rows {
		a := r[col]
		if a <= pivotTol {
			continue
		}
		rhs := r[nTot]
		if rhs < 0 {
			rhs = 0 // tiny negative from roundoff: treat as degenerate
		}
		ratio := rhs / a
		tol := 1e-9 * (1 + math.Abs(bestRatio))
		switch {
		case ratio < bestRatio-tol:
			bestRow, bestRatio, bestPivot = i, ratio, a
		case ratio <= bestRatio+tol:
			if bland {
				if bestRow == -1 || t.basis[i] < t.basis[bestRow] {
					bestRow, bestPivot = i, a
					if ratio < bestRatio {
						bestRatio = ratio
					}
				}
			} else if a > bestPivot {
				bestRow, bestPivot = i, a
				if ratio < bestRatio {
					bestRatio = ratio
				}
			}
		}
	}
	return bestRow
}

// runPhase iterates to optimality, unboundedness, or the iteration cap,
// refactorizing the tableau every refreshEvery pivots.
func (t *tableau) runPhase(cost mat.Vector, maxCol int) Status {
	m, nTot := t.sf.m, t.sf.nTot
	stallAfter := 200 + 20*(m+nTot)
	limit := 1000 + 400*(m+nTot)
	sinceRefresh := 0
	for iter := 0; ; iter++ {
		if iter > limit {
			return IterationLimit
		}
		if sinceRefresh >= t.refreshEvery {
			t.refresh(cost)
			sinceRefresh = 0
		}
		bland := t.blandAlways || iter > stallAfter
		col := t.chooseColumn(maxCol, bland)
		if col < 0 {
			return Optimal
		}
		row := t.chooseRow(col, bland)
		if row < 0 {
			return Unbounded
		}
		t.pivot(row, col)
		sinceRefresh++
	}
}

// solve runs both phases and extracts the solution.
func (t *tableau) solve() *Solution {
	sol := &Solution{}
	sf := t.sf

	if sf.na > 0 {
		if !t.refresh(sf.cost1) {
			sol.Status = Numerical
			return sol
		}
		st := t.runPhase(sf.cost1, sf.nTot)
		if st == IterationLimit || st == Unbounded {
			// Phase 1 is never unbounded in exact arithmetic; treat as
			// numerical trouble.
			sol.Status = Numerical
			if st == IterationLimit {
				sol.Status = IterationLimit
			}
			return sol
		}
		t.refresh(sf.cost1) // exact phase-1 value
		if phase1 := -t.obj[sf.nTot]; !sf.phase1Feasible(phase1) {
			sol.Status = Infeasible
			sol.Iterations = t.iterations
			return sol
		}
		// Drive any degenerate basic artificials out of the basis.
		for i, b := range t.basis {
			if b < sf.nv+sf.ns {
				continue
			}
			for j := 0; j < sf.nv+sf.ns; j++ {
				if math.Abs(t.rows[i][j]) > pivotTol {
					t.pivot(i, j)
					break
				}
			}
			// If the entire row is zero over real columns the constraint is
			// redundant; its artificial stays basic at value zero, harmless
			// because phase 2 never prices artificial columns.
		}
	}

	return t.phase2()
}

// phase2 optimizes the true objective from the current (primal feasible)
// basis and extracts the solution.
func (t *tableau) phase2() *Solution {
	sol := &Solution{}
	sf := t.sf
	if !t.refresh(sf.cost2) {
		sol.Status = Numerical
		return sol
	}
	st := t.runPhase(sf.cost2, sf.nv+sf.ns)
	sol.Iterations = t.iterations
	if st != Optimal {
		sol.Status = st
		return sol
	}
	// Final exact recomputation of the solution from the basis.
	t.refresh(sf.cost2)
	sol.Status = Optimal
	x := make([]float64, sf.nv)
	for i, b := range t.basis {
		if b < sf.nv {
			v := t.rows[i][sf.nTot]
			if v < 0 {
				if v < -1e-7 {
					sol.Status = Numerical
					return sol
				}
				v = 0
			}
			x[b] = v
		}
	}
	sol.X = x
	return sol
}
