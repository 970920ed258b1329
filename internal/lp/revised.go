package lp

// Revised simplex: the package's solver. Instead of carrying the full m×nTot
// tableau, it keeps only
//
//   - the column-sparse standard-form matrix (immutable),
//   - a Factorizer holding the current m×m basis factorization — dense LU
//     plus product-form etas, or Markowitz sparse LU with Forrest–Tomlin
//     updates (see factorizer.go),
//   - the entering-column rule — Dantzig, or Devex weights at scale (see
//     pricer.go), and
//   - the current basic values.
//
// FTRAN (B⁻¹a, the entering direction) and BTRAN (B⁻ᵀc, the duals) go
// through the factorizer; pricing walks the sparse columns in O(nnz(A)).
// The update file is bounded by refactorEvery, after which the basis is
// refactorized exactly from the original data — the periodic-
// refactorization hygiene that keeps the stiff policy LPs (probabilities
// spanning four orders of magnitude, discounts at 1−10⁻⁶) numerically
// honest. A factorizer may also demand an early refactorization by
// returning an error from Update (a Forrest–Tomlin step gone unstable);
// the loop rebuilds before the next FTRAN/BTRAN.

import (
	"context"
	"math"
	"time"

	"repro/internal/mat"
	"repro/internal/obs"
)

// lpDebug gates per-refactorization tracing (LPDEBUG=1). Lines go through
// the obs structured logger on the solve context, so under the daemon they
// carry the originating request's trace ID.
var lpDebug = obs.DebugOn("lp")

// revised is the solver state for one solve.
type revised struct {
	sf          *stdForm
	ctx         context.Context // checked once per pivot; never nil
	deadline    time.Time       // ctx deadline, checked directly (see cancelled)
	hasDeadline bool
	basis       []int // column index per row
	pos         []int // column -> basis row, or -1
	fact        Factorizer
	devex       devex // Devex weights; priced and maintained only when atScale
	xB          mat.Vector
	cB          mat.Vector // basic costs, the duals' BTRAN input (see duals)
	bWork       mat.Vector // rhs used for basic-value recomputation (perturbed during a cold solve)
	perturbed   bool       // bWork currently carries the anti-degeneracy perturbation
	d           mat.Vector // reduced costs of the active phase, maintained by pivoting
	dScale      mat.Vector // per-column magnitude scale of d (see recomputeD)

	// Row-major mirror of sf.a, built once per solve: rowCols[i]/rowVals[i]
	// hold the column indices and values of constraint row i. The pivot row
	// αᵀ = βᵀA is scattered over the nonzeros of β through this mirror in
	// O(Σ_{β_i≠0} nnz(row i)) — on hyper-sparse bases (sparse LU BTRANs of a
	// unit vector) that is a small fraction of the O(nnz(A)) a column-wise
	// ColDot sweep pays, and it is never asymptotically worse.
	rowCols [][]int32
	rowVals [][]float64
	acell   []alphaCell // pivot-row workspace, valid for entries in touched
	touched []int32     // columns written by the last pivotRow scatter
	stamp   int32

	// Indexed-sparse-vector scratch for the per-pivot kernel solves (see
	// mat.SpVec): the entering-column FTRAN pair and the unit-vector BTRAN
	// pair. Results are valid until the next call on the same pair.
	ftIn, ftOut *mat.SpVec
	btIn, btOut *mat.SpVec

	// tm accumulates the per-stage wall-clock breakdown reported in
	// Solution.Timings.
	tm Timings

	iterations    int
	refactors     int
	refactorEvery int
	maxPivots     int // 0 = unlimited; exceeding returns BudgetExceeded
	needRefactor  bool
	factFresh     bool // the factorization is an exact rebuild of the current basis (see refactor)
	xBFresh       bool // xB is exactly the factorization's FTRAN of bWork (see refactor)
	blandAlways   bool
	conservative  bool
	atScale       bool // m >= autoSparseMin: sparse kernel, Devex, sparse-scale stabilization

	// Flight recorder (see monitor.go). mon == nil — the default — keeps
	// every hook down to a single pointer test.
	mon       Monitor
	monEvery  int        // "progress" pivot cadence
	monLast   int        // iterations at the last progress snapshot
	monStart  time.Time  // attempt start, for Snapshot.Elapsed
	monCost   mat.Vector // active phase's cost vector, for Snapshot.Objective
	monMaxCol int        // columns the active phase prices, for Snapshot.DualInf
	monPhase  string
	monStall  bool // stall event already emitted for the active phase
	monDone   bool // finish event emitted
}

func newRevised(ctx context.Context, sf *stdForm, conservative bool, cfg solverConfig) *revised {
	r := &revised{
		sf:            sf,
		ctx:           ctx,
		basis:         make([]int, sf.m),
		pos:           make([]int, sf.nTot),
		xB:            mat.NewVector(sf.m),
		cB:            mat.NewVector(sf.m),
		bWork:         sf.b,
		refactorEvery: 50,
		maxPivots:     cfg.maxPivots,
	}
	r.deadline, r.hasDeadline = ctx.Deadline()
	r.atScale = sf.m >= autoSparseMin || cfg.atScale
	if cfg.monitor != nil {
		r.mon = cfg.monitor
		r.monEvery = cfg.monitorEvery
		if r.monEvery <= 0 {
			r.monEvery = defaultMonitorEvery
		}
		r.monStart = time.Now()
	}
	copy(r.basis, sf.initBasis)
	if conservative {
		r.refactorEvery = 10
		r.blandAlways = true
		r.conservative = true
	}

	// The one size fact picks the kernel and the pricing rule: sparse LU
	// with Forrest–Tomlin updates and Devex at scale, dense LU with
	// product-form etas and Dantzig below.
	if r.atScale {
		sp := newSparseFactorizer(conservative)
		sp.setContext(ctx)
		r.fact = sp
		// Forrest–Tomlin updates leave U genuinely triangular, so the
		// update file degrades far more slowly than product-form etas; a
		// longer interval amortizes the Markowitz refactorization, which
		// dominates wall clock on 10⁴-row bases.
		if !conservative {
			r.refactorEvery = 120
			// The Markowitz refactorization grows superlinearly with m (the
			// elimination's merge traffic dominated solve-k6's wall clock at
			// cadence 120: ~84% of CPU; stretching it to 960 cut the 12k-pivot probe 3.0×), while a Forrest–Tomlin eta costs
			// O(its nnz) per solve — so on large bases a much longer chain is
			// the right trade. The update's relative stability checks still
			// force an early refactorization whenever the chain degrades, so
			// stretching the schedule only spends etas that are numerically
			// earning their keep. Small bases keep the short cadence: their
			// refactorization is cheap and the shorter chain is tighter
			// hygiene on stiff instances.
			if sf.m >= 4096 {
				r.refactorEvery = 960
			}
		}
	} else {
		r.fact = newDenseFactorizer()
	}

	r.rowCols = make([][]int32, sf.m)
	r.rowVals = make([][]float64, sf.m)
	rowNNZ := make([]int, sf.m)
	for j := 0; j < sf.nTot; j++ {
		rows, _ := sf.a.ColNZ(j)
		for _, i := range rows {
			rowNNZ[i]++
		}
	}
	// One backing array per field; each row gets a capacity-capped window,
	// so the appends below fill it in place.
	colBuf := make([]int32, sf.a.NNZ())
	valBuf := make([]float64, sf.a.NNZ())
	off := 0
	for i, n := range rowNNZ {
		r.rowCols[i] = colBuf[off : off : off+n]
		r.rowVals[i] = valBuf[off : off : off+n]
		off += n
	}
	for j := 0; j < sf.nTot; j++ {
		rows, vals := sf.a.ColNZ(j)
		for k, i := range rows {
			r.rowCols[i] = append(r.rowCols[i], int32(j))
			r.rowVals[i] = append(r.rowVals[i], vals[k])
		}
	}
	r.acell = make([]alphaCell, sf.nTot)
	r.touched = make([]int32, 0, sf.nTot)
	r.ftIn, r.ftOut = mat.NewSpVec(sf.m), mat.NewSpVec(sf.m)
	r.btIn, r.btOut = mat.NewSpVec(sf.m), mat.NewSpVec(sf.m)

	r.rebuildPos()
	return r
}

// alphaCell fuses a pivot-row workspace value with its scatter stamp so each
// scatter access touches one cache line instead of two — the scatter is
// memory-latency bound (random column indices) and runs once per pivot over
// Σ_{β_i≠0} nnz(row i) entries.
type alphaCell struct {
	v    float64
	mark int32
	_    int32
}

// pivotRow computes αᵀ = βᵀA by scattering each nonzero of β through the
// row-major mirror. The results live in r.acell at the indices returned (in
// no particular order) until the next call; entries that cancelled to zero
// may be included. β's sorted pattern keeps the scatter order — and hence
// every accumulated sum — identical to a dense ascending row sweep.
func (r *revised) pivotRow(beta *mat.SpVec) []int32 {
	r.stamp++
	r.touched = r.touched[:0]
	if beta.Dense {
		for i, bv := range beta.Val {
			if bv == 0 {
				continue
			}
			r.pivotRowScatter(i, bv)
		}
		return r.touched
	}
	for _, i := range beta.Ind {
		bv := beta.Val[i]
		if bv == 0 {
			continue
		}
		r.pivotRowScatter(i, bv)
	}
	return r.touched
}

// pivotRowScatter accumulates row i of the mirror, scaled by bv, into the
// alpha workspace.
func (r *revised) pivotRowScatter(i int, bv float64) {
	cols := r.rowCols[i]
	vals := r.rowVals[i]
	acell := r.acell
	stamp := r.stamp
	for k, j := range cols {
		c := &acell[j]
		if c.mark != stamp {
			c.mark = stamp
			c.v = 0
			r.touched = append(r.touched, j)
		}
		c.v += bv * vals[k]
	}
}

func (r *revised) rebuildPos() {
	for j := range r.pos {
		r.pos[j] = -1
	}
	for i, b := range r.basis {
		r.pos[b] = i
	}
}

// refactor rebuilds the basis factorization from the sparse columns and
// recomputes exact basic values. It returns false when the basis matrix is
// singular. The two halves are skipped independently when nothing they
// depend on has moved: the LU is rebuilt only when the basis changed since
// the last rebuild (factFresh: no pivot since) or the factorizer demanded it
// (needRefactor), and xB is recomputed only when the factorization or the
// rhs changed (xBFresh). A rebuild of an unchanged basis would reproduce the
// same factors bit for bit, so an rhs-only change — restoring the exact rhs
// after the anti-degeneracy perturbation, or a resident re-solve (see
// Resident) — costs one FTRAN. Refactorizations counts LU rebuilds only; the
// "refactor" monitor event marks both kinds of exact recomputation point.
func (r *revised) refactor() bool {
	if r.factFresh && !r.needRefactor {
		if !r.xBFresh {
			t0 := time.Now()
			r.recomputeXB()
			r.tm.Factor += time.Since(t0)
			r.emit("refactor")
		}
		return true
	}
	r.factFresh, r.xBFresh = false, false
	r.refactors++
	t0 := time.Now()
	defer func() { r.tm.Factor += time.Since(t0) }()
	if err := r.fact.Refactor(r.sf.a, r.basis); err != nil {
		if lpDebug {
			obs.Debugf(r.ctx, "lp", "refactor %d iter %d FAILED: %v", r.refactors, r.iterations, err)
		}
		return false
	}
	if lpDebug {
		obs.Debugf(r.ctx, "lp", "refactor %d iter %d nnz %d took %v", r.refactors, r.iterations, r.fact.NNZ(), time.Since(t0))
	}
	r.needRefactor = false
	r.factFresh = true
	r.recomputeXB()
	r.emit("refactor")
	return true
}

// recomputeXB sets the basic values exactly from the current factorization
// and the working rhs, clamping roundoff-negative values to zero.
func (r *revised) recomputeXB() {
	copy(r.xB, r.bWork)
	xb := r.fact.Ftran(r.xB)
	for i, v := range xb {
		if v < 0 && v > -1e-7 {
			xb[i] = 0
		}
	}
	r.xB = xb
	r.xBFresh = true
}

// ftranCol returns the entering direction B⁻¹ a_j for standard-form column
// j as an indexed sparse vector: sorted pattern, or marked Dense past the
// kernel's hyper-sparsity threshold. The result lives in per-solve scratch,
// valid until the next ftranCol call.
func (r *revised) ftranCol(j int) *mat.SpVec {
	t0 := time.Now()
	r.ftIn.Reset()
	rows, vals := r.sf.a.ColNZ(j)
	for k, i := range rows {
		if vals[k] != 0 {
			r.ftIn.Set(i, vals[k])
		}
	}
	r.fact.FtranSp(r.ftIn, r.ftOut)
	r.tm.Ftran += time.Since(t0)
	return r.ftOut
}

// btranUnit returns the pivot-row multiplier β = B⁻ᵀe_row as an indexed
// sparse vector in per-solve scratch, valid until the next btranUnit call.
func (r *revised) btranUnit(row int) *mat.SpVec {
	t0 := time.Now()
	r.btIn.Reset()
	r.btIn.Set(row, 1)
	r.fact.BtranSp(r.btIn, r.btOut)
	r.tm.Btran += time.Since(t0)
	return r.btOut
}

// duals returns y with Bᵀ y = c_B for the given cost vector. y may live in
// per-solve scratch, valid until the next duals call.
func (r *revised) duals(cost mat.Vector) mat.Vector {
	t0 := time.Now()
	for i, b := range r.basis {
		r.cB[i] = cost[b]
	}
	y := r.fact.Btran(r.cB)
	r.tm.Btran += time.Since(t0)
	return y
}

// recomputeD refreshes the reduced-cost vector exactly from the duals of
// the current basis: d_j = c_j − yᵀa_j, with basic entries pinned to zero.
// Called at phase entry and after every refactorization; between those
// points d is maintained by the pivot-row update, which keeps it consistent
// with the basis the way a tableau's objective row is — the entering
// column's reduced cost becomes exactly zero and the leaving column's
// exactly −d_enter/pivot, so roundoff can never invite a column straight
// back in (the failure mode that stalls recompute-from-duals pricing on
// stiff instances whose duals reach 1/(1−α)).
//
// Alongside d it records each column's magnitude scale
//
//	dScale_j = 1 + |c_j| + Σ_i |y_i·a_ij|,
//
// the cancellation scale of the subtraction that produced d_j. Optimality
// tests compare d_j against −costTol·dScale_j rather than the absolute
// −costTol: policy LPs at discounts like α = 1−10⁻⁶ have duals of order
// 1/(1−α), so a computed d_j of −10⁻⁸ on a column whose terms are ~10⁶ is
// pure roundoff — an absolute test keeps "improving" on such columns
// through degenerate pivots and stalls into the iteration limit, while the
// relative test recognizes the optimum. On well-scaled problems dScale ≈ 1
// and the behavior is unchanged. The scales refresh with every recompute
// (at most refactorEvery pivots stale, like d itself).
func (r *revised) recomputeD(cost mat.Vector) {
	y := r.duals(cost)
	t0 := time.Now()
	if r.d == nil {
		r.d = mat.NewVector(r.sf.nTot)
		r.dScale = mat.NewVector(r.sf.nTot)
	}
	for j := 0; j < r.sf.nTot; j++ {
		if r.pos[j] >= 0 {
			r.d[j] = 0
			r.dScale[j] = 1
			continue
		}
		rows, vals := r.sf.a.ColNZ(j)
		dot, abs := 0.0, 0.0
		for k, i := range rows {
			t := vals[k] * y[i]
			dot += t
			abs += math.Abs(t)
		}
		r.d[j] = cost[j] - dot
		r.dScale[j] = 1 + math.Abs(cost[j]) + abs
	}
	r.tm.Price += time.Since(t0)
}

// updateD applies the tableau objective-row update after a pivot at (row,
// col) with pivot element piv = α_col: d ← d − (d_col/piv)·α, where
// α_j = βᵀa_j is the pivot row and β = B⁻ᵀe_row in the pre-pivot basis.
// The entering column lands exactly at zero. At scale the same pass
// maintains the Devex weights (O(1) per touched column), which forces it
// even on degenerate pivots where d itself is unchanged.
func (r *revised) updateD(beta *mat.SpVec, row, col int, piv float64) {
	t0 := time.Now()
	if r.atScale {
		r.devex.beginPivot(col, r.basis[row], piv)
	}
	factor := r.d[col] / piv
	if factor != 0 || r.atScale {
		r.applyPivotRow(r.pivotRow(beta), col, factor, piv)
	}
	r.d[col] = 0
	r.tm.Price += time.Since(t0)
}

// applyPivotRow is updateD's per-column pass over the pivot row's touched
// columns: d_j −= factor·α_j, and at scale the Devex weights absorb α_j.
func (r *revised) applyPivotRow(touched []int32, col int, factor, piv float64) {
	if r.atScale {
		// γ_j ← max(γ_j, (α_j/α_q)²·γ_q): the entering direction's footprint
		// on column j, measured in the reference framework. d[col] is
		// overwritten with zero by updateD, so skipping the entering column
		// entirely is equivalent.
		gamma, gq := r.devex.gamma, r.devex.gq
		for _, j := range touched {
			a := r.acell[j].v
			if a == 0 || int(j) == col {
				continue
			}
			if factor != 0 {
				r.d[j] -= factor * a
			}
			t := a / piv
			if w := t * t * gq; w > gamma[j] {
				gamma[j] = w
			}
		}
		return
	}
	// Below scale updateD makes this pass only when factor != 0.
	for _, j := range touched {
		if a := r.acell[j].v; a != 0 {
			r.d[j] -= factor * a
		}
	}
}

// price picks the entering column among [0, maxCol) from the maintained
// reduced costs: by the size-selected pricing rule (Devex at scale, Dantzig
// below) normally, or first eligible under Bland's rule. A column counts as
// improving only when its reduced cost clears the scale-relative tolerance
// −costTol·dScale (see recomputeD). Returns -1 at optimality.
func (r *revised) price(maxCol int, bland bool) int {
	t0 := time.Now()
	var col int
	switch {
	case bland:
		col = blandChoose(r.d, r.dScale, r.pos, maxCol)
	case r.atScale:
		col = r.devex.choose(r.d, r.dScale, r.pos, maxCol)
	default:
		col = dantzigChoose(r.d, r.dScale, r.pos, maxCol)
	}
	r.tm.Price += time.Since(t0)
	return col
}

// ratioTest picks the leaving row for entering direction w. Ratio
// comparisons use a relative tolerance; among (near-)ties the largest pivot
// element wins for stability, except under Bland's rule where the smallest
// basis index wins to guarantee termination. Returns -1 when the column is
// unbounded.
func (r *revised) ratioTest(w *mat.SpVec, bland bool) int {
	// An entry of w that is tiny relative to ‖w‖∞ is indistinguishable from
	// FTRAN roundoff once the basis grows ill-conditioned; pivoting on one
	// steers the basis toward exact singularity. At sparse scale pivots must
	// first clear a scale-relative floor; the absolute tolerance alone is
	// retried only when no entry does (a uniformly small but genuine
	// direction). Small problems keep the seed's absolute test so their
	// degenerate tie-breaking — and hence vertex selection — is unchanged.
	minPiv := pivotTol
	if r.atScale {
		wmax := 0.0
		if w.Dense {
			for _, a := range w.Val {
				if a > wmax {
					wmax = a
				} else if -a > wmax {
					wmax = -a
				}
			}
		} else {
			for _, i := range w.Ind {
				if a := w.Val[i]; a > wmax {
					wmax = a
				} else if -a > wmax {
					wmax = -a
				}
			}
		}
		if rel := pivotRelTol * wmax; rel > minPiv {
			minPiv = rel
		}
	}
	if row := r.ratioTestTol(w, bland, minPiv); row >= 0 {
		return row
	}
	if minPiv > pivotTol {
		return r.ratioTestTol(w, bland, pivotTol)
	}
	return -1
}

// ratioTestTol scans the direction's support in ascending row order — the
// dense sweep's order, so near-tie resolution (and hence the leaving row)
// does not depend on which kernel path produced w: entries the sparse path
// skips are exact zeros, which the dense sweep rejects at the minPiv test.
func (r *revised) ratioTestTol(w *mat.SpVec, bland bool, minPiv float64) int {
	bestRow := -1
	bestRatio := math.Inf(1)
	bestPivot := 0.0
	consider := func(i int, a float64) {
		rhs := r.xB[i]
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
				if bestRow == -1 || r.basis[i] < r.basis[bestRow] {
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
	if w.Dense {
		for i, a := range w.Val {
			if a > minPiv {
				consider(i, a)
			}
		}
	} else {
		for _, i := range w.Ind {
			if a := w.Val[i]; a > minPiv {
				consider(i, a)
			}
		}
	}
	return bestRow
}

// pivotUpdate applies the basis change (row, col) with direction w = B⁻¹a_col,
// updating basic values and handing the column replacement to the
// factorizer. w is retained; callers must not reuse it. If the factorizer
// cannot absorb the update, the factorization is flagged for an immediate
// rebuild (the basis bookkeeping is already correct — only FTRAN/BTRAN must
// wait for the refactorization).
func (r *revised) pivotUpdate(row, col int, w *mat.SpVec) {
	t0 := time.Now()
	defer func() { r.tm.Update += time.Since(t0) }()
	theta := r.xB[row] / w.Val[row]
	if w.Dense {
		for i := range r.xB {
			r.xB[i] -= theta * w.Val[i]
			if r.xB[i] < 0 && r.xB[i] > -zeroTol {
				r.xB[i] = 0
			}
		}
	} else {
		// Rows outside the direction's support keep their basic value
		// exactly (the dense sweep subtracts θ·0 there, and its clamp never
		// fires on an untouched value: every write path already clamps
		// (−zeroTol, 0) to zero, so no stored value lies in that band).
		for _, i := range w.Ind {
			r.xB[i] -= theta * w.Val[i]
			if r.xB[i] < 0 && r.xB[i] > -zeroTol {
				r.xB[i] = 0
			}
		}
	}
	r.xB[row] = theta
	r.factFresh, r.xBFresh = false, false
	r.pos[r.basis[row]] = -1
	r.basis[row] = col
	r.pos[col] = row
	rows, vals := r.sf.a.ColNZ(col)
	if err := r.fact.Update(row, w.Val, rows, vals); err != nil {
		if lpDebug {
			obs.Debugf(r.ctx, "lp", "update unstable iter %d pivot %g theta %g", r.iterations, w.Val[row], theta)
		}
		r.needRefactor = true
	}
	r.iterations++
}

// cancelled reports whether the solve's context has been cancelled or its
// deadline has passed. A pivot costs at least O(nnz(A)), so the
// per-iteration check is noise by comparison and gives cancellation a
// one-pivot response time. The deadline is compared directly rather than
// through Err alone: a deadline context is cancelled by a runtime timer
// goroutine, and on a busy single-CPU box that goroutine may not be
// scheduled while the pivot loop runs — polling the clock makes expiry
// observable regardless.
func (r *revised) cancelled() bool {
	if r.ctx.Err() != nil {
		return true
	}
	return r.hasDeadline && time.Now().After(r.deadline)
}

// budgetExceeded reports whether the configured pivot budget (WithMaxPivots)
// has been consumed. The budget counts pivots across all phases of one
// solve attempt.
func (r *revised) budgetExceeded() bool {
	return r.maxPivots > 0 && r.iterations >= r.maxPivots
}

// runPhase iterates to optimality, unboundedness, or a stopping condition
// (iteration cap, pivot budget, cancellation), refactorizing whenever the
// update file reaches refactorEvery or the factorizer demands it.
func (r *revised) runPhase(cost mat.Vector, maxCol int) Status {
	stallAfter := 200 + 20*(r.sf.m+r.sf.nTot)
	limit := 1000 + 400*(r.sf.m+r.sf.nTot)
	r.recomputeD(cost)
	if r.atScale {
		r.devex.reset(r.sf.nTot)
	}
	for iter := 0; ; iter++ {
		if iter > limit {
			return IterationLimit
		}
		if r.budgetExceeded() {
			return BudgetExceeded
		}
		if r.cancelled() {
			return Cancelled
		}
		if r.needRefactor || r.fact.Updates() >= r.refactorEvery {
			if !r.refactor() {
				return Numerical
			}
			r.recomputeD(cost)
		}
		r.emitProgress()
		bland := r.blandAlways || iter > stallAfter
		if bland && !r.blandAlways && !r.monStall && r.mon != nil {
			r.monStall = true
			r.emit("stall")
		}
		col := r.price(maxCol, bland)
		if col < 0 {
			return Optimal
		}
		w := r.ftranCol(col)
		row := r.ratioTest(w, bland)
		if row < 0 {
			return Unbounded
		}
		beta := r.btranUnit(row) // pivot row in the pre-pivot basis
		r.updateD(beta, row, col, w.Val[row])
		r.pivotUpdate(row, col, w)
	}
}

// driveOutArtificials pivots degenerate basic artificials out of the basis
// after phase 1. If an artificial's entire row is zero over real columns the
// constraint is redundant; the artificial stays basic at value zero,
// harmless because phase 2 never prices artificial columns.
func (r *revised) driveOutArtificials() {
	real := r.sf.nv + r.sf.ns
	for i := 0; i < r.sf.m; i++ {
		if r.needRefactor && !r.refactor() {
			return // phase 2 refactorizes again and reports Numerical
		}
		if r.basis[i] < real {
			continue
		}
		beta := r.btranUnit(i)
		for j := 0; j < real; j++ {
			if r.pos[j] >= 0 {
				continue
			}
			if math.Abs(r.sf.a.ColDot(j, beta.Val)) <= pivotTol {
				continue
			}
			w := r.ftranCol(j)
			if math.Abs(w.Val[i]) > pivotTol {
				r.pivotUpdate(i, j, w)
				break
			}
		}
	}
}

// perturb replaces the working rhs with a deterministically jittered copy:
// b̃_i = b_i + ε·(1+|b_i|)·u_i with u_i ∈ [0.5, 1.5). Policy LPs are massively
// primal degenerate — b is zero on almost every row, so most vertices have
// basic values pinned at zero and the ratio test ties everywhere. The simplex
// then wanders the optimal face in zero-length steps for tens of thousands of
// iterations, and on stiff instances (α = 1−10⁻⁵) the wandering assembles
// ever worse-conditioned bases until refactorization finds them singular.
// The jitter makes the perturbed problem nondegenerate (ties break, steps
// have positive length), and phase 2 restores the exact rhs once optimal,
// repairing the small primal infeasibility with the existing dual-simplex
// loop.
func (r *revised) perturb() {
	const eps = 1e-9
	pb := r.sf.b.Clone()
	seed := uint64(0x9e3779b97f4a7c15)
	for i := range pb {
		seed = seed*6364136223846793005 + 1442695040888963407
		u := 0.5 + float64(seed>>11)/float64(1<<53)
		pb[i] += eps * (1 + math.Abs(pb[i])) * u
	}
	r.bWork = pb
	r.perturbed = true
	r.xBFresh = false
	r.emit("perturb")
}

// restoreB undoes perturb: the next refactor recomputes basic values from
// the exact rhs (an FTRAN only, when the basis has not moved since the last
// rebuild).
func (r *revised) restoreB() {
	r.bWork = r.sf.b
	r.perturbed = false
	r.xBFresh = false
}

// solve runs both phases and extracts the solution. Every exit records the
// work counters, so even aborted solves (cancelled, iteration-limited,
// numerical, budget-exhausted) report the pivots and refactorizations they
// actually paid.
func (r *revised) solve() (sol *Solution) {
	sol = &Solution{}
	defer r.finishMon()
	defer r.recordWork(sol)
	r.emit("start")
	if !r.conservative && r.atScale {
		// Perturbation is an anti-degeneracy device for sparse-scale bases,
		// where zero-length pivots can wander for tens of thousands of
		// iterations; small problems keep the exact rhs so cold and warm
		// solves land on identical vertices (the sweep determinism
		// contract). The conservative retry also stays on the exact rhs: if
		// the perturbed path failed numerically, the retry must not inherit
		// its strategy.
		r.perturb()
	}
	if !r.refactor() {
		sol.Status = Numerical
		return sol
	}
	if r.sf.na > 0 {
		r.setMonPhase("phase1", r.sf.cost1, r.sf.nTot)
		for {
			st := r.runPhase(r.sf.cost1, r.sf.nTot)
			if lpDebug {
				obs.Debugf(r.ctx, "lp", "phase1 status %v at iter %d (perturbed %v)", st, r.iterations, r.perturbed)
			}
			if st != Optimal {
				// Phase 1 is never unbounded in exact arithmetic; treat it as
				// numerical trouble.
				sol.Status = Numerical
				if st == IterationLimit || st == Cancelled || st == BudgetExceeded {
					sol.Status = st
				}
				return sol
			}
			if !r.refactor() { // exact phase-1 values
				sol.Status = Numerical
				return sol
			}
			phase1 := 0.0
			for i, b := range r.basis {
				if b >= r.sf.nv+r.sf.ns {
					phase1 += r.xB[i]
				}
			}
			if r.sf.phase1Feasible(phase1) {
				break
			}
			if !r.perturbed {
				sol.Status = Infeasible
				return sol
			}
			// The perturbed problem may be infeasible even though the true one
			// is (an equality row can reject the jitter). Restore the exact
			// rhs and re-run phase 1 from the current basis before concluding
			// anything about the problem itself.
			r.restoreB()
			if !r.refactor() {
				sol.Status = Numerical
				return sol
			}
		}
		r.driveOutArtificials()
	}
	return r.phase2()
}

// phase2 optimizes the true objective from the current (primal feasible)
// basis and extracts the solution. It is the shared tail of the cold
// two-phase solve and of warm starts that enter with a reusable basis.
//
// On stiff instances (discounts at 1−10⁻⁶ and beyond) the degenerate-value
// clamps in the pivot loop can let the basis drift primal infeasible
// between refactorizations while the reduced costs remain optimal; the
// final exact refactorization then exposes basic values that are genuinely
// negative. Such a basis is still dual feasible — exactly the dual-simplex
// entry condition — so instead of giving up as Numerical, phase2 repairs
// primal feasibility with dual pivots and re-optimizes, a bounded number of
// times.
func (r *revised) phase2() *Solution {
	sol := &Solution{}
	sol.Status = Numerical
	for attempt := 0; attempt < 6; attempt++ {
		r.setMonPhase("phase2", r.sf.cost2, r.sf.nv+r.sf.ns)
		if !r.refactor() {
			break
		}
		st := r.runPhase(r.sf.cost2, r.sf.nv+r.sf.ns)
		if lpDebug {
			obs.Debugf(r.ctx, "lp", "phase2 attempt %d status %v at iter %d (perturbed %v)", attempt, st, r.iterations, r.perturbed)
		}
		if st != Optimal {
			sol.Status = st
			break
		}
		if !r.refactor() { // final exact recomputation from the basis
			break
		}
		if r.perturbed {
			// Optimal for the jittered rhs (see perturb). Swap the exact rhs
			// back in and go around again: the reduced costs are unchanged (d
			// does not depend on b), so the re-run terminates immediately and
			// any primal infeasibility the swap exposes lands in the
			// dual-simplex repair below.
			r.restoreB()
			continue
		}
		worst := 0.0
		for _, v := range r.xB {
			if v < worst {
				worst = v
			}
		}
		if worst >= -1e-7 {
			sol.Status = Optimal
			x := make([]float64, r.sf.nv)
			for i, b := range r.basis {
				if b < r.sf.nv {
					v := r.xB[i]
					if v < 0 {
						v = 0
					}
					x[b] = v
				}
			}
			sol.X = x
			break
		}
		if !r.dualFeasible() || !r.dualSimplex() {
			if r.budgetExceeded() {
				sol.Status = BudgetExceeded
			} else if r.cancelled() {
				sol.Status = Cancelled
			}
			break
		}
	}
	r.recordWork(sol)
	return sol
}

// recordWork copies the solve's work counters and stage timings into sol.
// Every exit that returns a Solution from a running solver calls it, so
// aborted solves report the work they actually paid.
func (r *revised) recordWork(sol *Solution) {
	sol.Iterations = r.iterations
	sol.Refactorizations = r.refactors
	sol.FactorNNZ = r.fact.NNZ()
	sol.Timings = r.tm
}

// primalFeasible reports whether every basic value is nonnegative (up to
// roundoff slack).
func (r *revised) primalFeasible() bool {
	for _, v := range r.xB {
		if v < -1e-9 {
			return false
		}
	}
	return true
}

// dualFeasible reports whether every priced (non-artificial) column has a
// nonnegative phase-2 reduced cost, the precondition for dual simplex.
func (r *revised) dualFeasible() bool {
	r.recomputeD(r.sf.cost2)
	for j := 0; j < r.sf.nv+r.sf.ns; j++ {
		if r.pos[j] < 0 && r.d[j] < -costTol*r.dScale[j] {
			return false
		}
	}
	return true
}

// dualSimplex restores primal feasibility of a dual-feasible basis: the row
// with the most negative basic value leaves, and the entering column is
// chosen by the dual ratio test over that row's strictly negative entries
// (computed as βᵀa_j with β = B⁻ᵀe_row; ties broken toward the largest
// pivot magnitude for stability). It returns false when no entering column
// exists (the new problem is primal infeasible from this basis), the pivot
// limit, pivot budget, or cancellation stops it, or the basis goes
// numerically bad; callers then fall back to a cold solve rather than
// trusting a half-converged state (budget and cancellation are surfaced by
// re-checking budgetExceeded/cancelled).
func (r *revised) dualSimplex() bool {
	real := r.sf.nv + r.sf.ns
	limit := 1000 + 400*(r.sf.m+r.sf.nTot)
	r.setMonPhase("dual", r.sf.cost2, real)
	r.recomputeD(r.sf.cost2)
	// Dual pivots stream through updateD, which maintains the Devex
	// weights; a warm start gets here before any phase has set them up. The
	// weights never steer a dual pivot, and the next runPhase resets them
	// again, so this changes no pivot choice.
	if r.atScale {
		r.devex.reset(r.sf.nTot)
	}
	for iter := 0; ; iter++ {
		if iter > limit || r.cancelled() || r.budgetExceeded() {
			return false
		}
		if r.needRefactor || r.fact.Updates() >= r.refactorEvery {
			if !r.refactor() {
				return false
			}
			r.recomputeD(r.sf.cost2)
		}
		r.emitProgress()
		row, worst := -1, -1e-9
		for i, v := range r.xB {
			if v < worst {
				worst, row = v, i
			}
		}
		if row < 0 {
			return true
		}
		beta := r.btranUnit(row)
		tp := time.Now()
		cand := r.pivotRow(beta)
		minPiv := pivotTol
		if r.atScale {
			amax := 0.0
			for _, j32 := range cand {
				if a := math.Abs(r.acell[j32].v); a > amax {
					amax = a
				}
			}
			if rel := pivotRelTol * amax; rel > minPiv {
				minPiv = rel
			}
		}
		col, bestRatio, bestMag := -1, math.Inf(1), 0.0
		for _, j32 := range cand {
			j := int(j32)
			if j >= real || r.pos[j] >= 0 {
				continue
			}
			a := r.acell[j].v
			if a >= -minPiv {
				continue
			}
			rc := r.d[j]
			if rc < 0 {
				rc = 0 // roundoff on a nonbasic column: treat as degenerate
			}
			ratio := rc / -a
			tol := 1e-9 * (1 + math.Abs(bestRatio))
			switch {
			case ratio < bestRatio-tol:
				col, bestRatio, bestMag = j, ratio, -a
			case ratio <= bestRatio+tol && -a > bestMag:
				col, bestMag = j, -a
				if ratio < bestRatio {
					bestRatio = ratio
				}
			}
		}
		r.tm.Price += time.Since(tp)
		if col < 0 {
			return false
		}
		w := r.ftranCol(col)
		if math.Abs(w.Val[row]) <= pivotTol {
			return false // direction disagrees with the priced row: bail out
		}
		r.updateD(beta, row, col, w.Val[row])
		r.pivotUpdate(row, col, w)
	}
}

// solveRevised runs one cold revised-simplex solve of sf under the given
// solver configuration.
func solveRevised(ctx context.Context, sf *stdForm, conservative bool, cfg solverConfig) (*Solution, *revised) {
	r := newRevised(ctx, sf, conservative, cfg)
	sol := r.solve()
	if sol.Status != Optimal {
		return sol, nil
	}
	if !sf.verify(sol.X) {
		sol.Status = Numerical
	}
	return sol, r
}
