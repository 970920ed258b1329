package lp

// Basis-kernel strategies for the revised simplex. The solver's inner loop
// only ever needs four operations from its factorization — rebuild from the
// basis columns, FTRAN, BTRAN, and absorb one column replacement — so the
// kernel is a strategy interface with two implementations:
//
//   - denseFactorizer: the original dense m×m LU plus a product-form eta
//     file. O(m³) refactorizations, O(m²) triangular solves, O(m) per eta;
//     the kernel below autoSparseMin rows, where its constant factors win.
//   - sparseFactorizer: mat.SparseLU — Markowitz-ordered sparse LU with
//     threshold partial pivoting and Forrest–Tomlin updates. Everything is
//     O(nnz), which is what lets k≈6 composite networks (m ≈ 10⁴) solve at
//     all: a single dense refactorization at that size costs ~10¹² flops and
//     ~800 MB, the sparse one a few million and a few MB.

import (
	"context"

	"repro/internal/mat"
	"repro/internal/obs"
)

// ctxAware lets a kernel receive the solve context without widening the
// Factorizer interface: LUDEBUG diagnostics emitted deep inside
// mat.SparseLU then carry the owning request's trace ID instead of
// interleaving anonymously with other solves.
type ctxAware interface{ setContext(ctx context.Context) }

// Factorizer is the strategy interface for the simplex basis kernel: it
// maintains a factorization of the m×m basis matrix B across pivots.
// Implementations are stateful and single-solve; after Update returns an
// error the factorization is invalid and the caller must Refactor before the
// next Ftran/Btran.
type Factorizer interface {
	// Refactor rebuilds the factorization exactly from the standard-form
	// columns selected by basis (basis[i] is the column in slot i). It
	// returns a non-nil error when the basis matrix is singular.
	Refactor(a *mat.CSC, basis []int) error
	// Ftran solves B x = v. v is consumed; the result may alias it.
	Ftran(v mat.Vector) mat.Vector
	// Btran solves Bᵀ y = c. c is consumed; the result may alias it.
	Btran(c mat.Vector) mat.Vector
	// FtranSp solves B x = b for a sparse right-hand side (an entering
	// column), writing the direction into x. b is consumed. On return x has
	// a sorted pattern, or is marked Dense when the result outgrew the
	// kernel's hyper-sparsity threshold (always, for the dense kernel).
	// Results are bit-identical to Ftran on the same rhs.
	FtranSp(b, x *mat.SpVec)
	// BtranSp solves Bᵀ y = c for a sparse right-hand side (the unit vector
	// of a leaving row), writing into y; same contract as FtranSp.
	BtranSp(c, y *mat.SpVec)
	// Update absorbs the replacement of the basis column in slot row by the
	// standard-form column with sparse entries (rows, vals); w = B⁻¹a is the
	// column's FTRAN image in the pre-pivot basis (the entering direction
	// the pivot loop already computed). w is retained.
	Update(row int, w mat.Vector, rows []int, vals []float64) error
	// Updates reports the column replacements absorbed since the last
	// Refactor — the solver's refactorization cadence trigger.
	Updates() int
	// NNZ reports the stored nonzeros of the current factorization (m² for
	// the dense kernel), the fill-in statistic surfaced in Solution.
	NNZ() int
	// Health reports the kernel's numerical-health record, with lifetime
	// counters (FT rejections, hyper/dense solve counts) accumulated across
	// refactorizations of this solve. The dense kernel, which carries no
	// such instrumentation, returns the zero value.
	Health() mat.HealthStats
}

// eta is one product-form basis update: the basis column at row r was
// replaced, and w = B⁻¹a_enter (in the pre-pivot basis) with pivot w[r].
type eta struct {
	r int
	w mat.Vector
}

// denseFactorizer is the original kernel: a dense LU of the basis matrix
// plus a product-form eta file recording the pivots since the last
// refactorization. It owns all of its storage — the m×m matrix the LU is
// factored into, a solve scratch vector, and the eta vectors, which a
// refactorization retires for the next updates to overwrite — so once the
// first refactorization cycle has sized them, no operation allocates.
type denseFactorizer struct {
	m    int
	bm   *mat.Matrix // basis matrix, overwritten by its LU factors
	lu   mat.LU
	work mat.Vector // solve scratch, length m
	etas []eta      // live etas; the backing array keeps retired w vectors
}

func newDenseFactorizer() *denseFactorizer { return &denseFactorizer{} }

func (f *denseFactorizer) Refactor(a *mat.CSC, basis []int) error {
	m := len(basis)
	if f.bm == nil || f.m != m {
		f.m = m
		f.bm = mat.NewMatrix(m, m)
		f.work = mat.NewVector(m)
		f.etas = nil
	} else {
		clear(f.bm.Data)
	}
	f.etas = f.etas[:0]
	for i, bcol := range basis {
		rows, vals := a.ColNZ(bcol)
		for k, row := range rows {
			f.bm.Data[row*m+i] = vals[k]
		}
	}
	return f.lu.FactorInPlace(f.bm)
}

// Ftran solves B x = v in place: the result is v itself.
func (f *denseFactorizer) Ftran(v mat.Vector) mat.Vector {
	copy(f.work, v)
	f.ftranInto(v, f.work)
	return v
}

// ftranInto solves B x = v into x (which must not alias v): the LU solve,
// then the eta file applied in order. v is not modified.
func (f *denseFactorizer) ftranInto(x, v mat.Vector) {
	f.lu.SolveInto(x, v)
	for e := range f.etas {
		et := &f.etas[e]
		piv := x[et.r] / et.w[et.r]
		if piv != 0 {
			for i, wi := range et.w {
				x[i] -= piv * wi
			}
		}
		x[et.r] = piv
	}
}

// Btran solves Bᵀ y = c in place: the result is c itself.
func (f *denseFactorizer) Btran(c mat.Vector) mat.Vector {
	f.btranInto(c, c)
	return c
}

// btranInto solves Bᵀ y = c into y (which may alias c) through the work
// vector: c is copied there, the eta file is applied in reverse, and the
// transposed LU solve consumes it.
func (f *denseFactorizer) btranInto(y, c mat.Vector) {
	v := f.work
	copy(v, c)
	for e := len(f.etas) - 1; e >= 0; e-- {
		et := &f.etas[e]
		s := 0.0
		for i, wi := range et.w {
			s += v[i] * wi
		}
		// s includes the r-th term; v_r' = (v_r − (s − v_r·w_r)) / w_r.
		v[et.r] = (v[et.r] - (s - v[et.r]*et.w[et.r])) / et.w[et.r]
	}
	f.lu.SolveTInto(y, v)
}

// FtranSp densifies and solves straight into x — the dense kernel has no
// sparse path, so the result is always marked Dense. Every entry of x is
// overwritten, so its old pattern needs no clearing.
func (f *denseFactorizer) FtranSp(b, x *mat.SpVec) {
	x.Ind = x.Ind[:0]
	x.Dense = true
	f.ftranInto(x.Val, b.Val)
}

// BtranSp densifies and solves straight into y, like FtranSp.
func (f *denseFactorizer) BtranSp(c, y *mat.SpVec) {
	y.Ind = y.Ind[:0]
	y.Dense = true
	f.btranInto(y.Val, c.Val)
}

func (f *denseFactorizer) Update(row int, w mat.Vector, rows []int, vals []float64) error {
	// w is the solver's reused direction scratch, mutated by the next
	// FTRAN; the eta file needs its own copy, in a vector a previous
	// refactorization retired when there is one.
	n := len(f.etas)
	if n < cap(f.etas) {
		f.etas = f.etas[:n+1]
	} else {
		f.etas = append(f.etas, eta{})
	}
	et := &f.etas[n]
	et.r = row
	if et.w == nil {
		et.w = mat.NewVector(len(w))
	}
	copy(et.w, w)
	return nil
}

func (f *denseFactorizer) Updates() int { return len(f.etas) }

func (f *denseFactorizer) NNZ() int { return f.m * f.m }

func (f *denseFactorizer) Health() mat.HealthStats { return mat.HealthStats{} }

// sparseFactorizer wraps mat.SparseLU: Markowitz-ordered sparse LU with
// threshold partial pivoting, updated in place by Forrest–Tomlin column
// replacements. tau is the pivot threshold (raised in conservative mode to
// favor stability over sparsity).
type sparseFactorizer struct {
	tau    float64
	f      *mat.SparseLU
	acc    mat.HealthStats                  // counter totals of retired factorizations
	debugf func(format string, args ...any) // context-bound LUDEBUG sink, set via setContext
}

func newSparseFactorizer(conservative bool) *sparseFactorizer {
	tau := 0.1
	if conservative {
		tau = 0.5
	}
	return &sparseFactorizer{tau: tau}
}

func (s *sparseFactorizer) setContext(ctx context.Context) {
	s.debugf = func(format string, args ...any) { obs.Debugf(ctx, "lu", format, args...) }
	if s.f != nil {
		s.f.Debugf = s.debugf
	}
}

func (s *sparseFactorizer) Refactor(a *mat.CSC, basis []int) error {
	if s.f != nil {
		// The retiring factorization's lifetime counters fold into the
		// accumulator so Health reports per-solve totals, not just the
		// activity since the last refactorization.
		s.acc.AddCounters(s.f.Health())
	}
	f, err := mat.FactorColumns(len(basis), func(i int) ([]int, []float64) {
		return a.ColNZ(basis[i])
	}, s.tau)
	if err != nil {
		s.f = nil
		return err
	}
	f.Debugf = s.debugf
	s.f = f
	return nil
}

// resetCounters starts the per-solve counter totals over while keeping the
// factorization (see revised.rearm).
func (s *sparseFactorizer) resetCounters() {
	s.acc = mat.HealthStats{}
	if s.f != nil {
		s.f.ResetCounters()
	}
}

func (s *sparseFactorizer) Ftran(v mat.Vector) mat.Vector { return s.f.Solve(v) }

func (s *sparseFactorizer) Btran(c mat.Vector) mat.Vector { return s.f.SolveT(c) }

func (s *sparseFactorizer) FtranSp(b, x *mat.SpVec) { s.f.SolveSp(b, x) }

func (s *sparseFactorizer) BtranSp(c, y *mat.SpVec) { s.f.SolveTSp(c, y) }

func (s *sparseFactorizer) Update(row int, w mat.Vector, rows []int, vals []float64) error {
	return s.f.Update(row, rows, vals)
}

func (s *sparseFactorizer) Updates() int {
	if s.f == nil {
		return 0
	}
	return s.f.Updates()
}

func (s *sparseFactorizer) NNZ() int {
	if s.f == nil {
		return 0
	}
	return s.f.NNZ()
}

func (s *sparseFactorizer) Health() mat.HealthStats {
	if s.f == nil {
		return s.acc
	}
	h := s.f.Health()
	h.AddCounters(s.acc)
	return h
}
