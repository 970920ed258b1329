package lp

// Basis-kernel strategies for the revised simplex. The solver's inner loop
// only ever needs four operations from its factorization — rebuild from the
// basis columns, FTRAN, BTRAN, and absorb one column replacement — so the
// kernel is a strategy interface with two implementations:
//
//   - denseFactorizer: the original dense m×m LU plus a product-form eta
//     file. O(m³) refactorizations, O(m²) triangular solves, O(m) per eta;
//     the kernel below AtScaleRows rows, where its constant factors win.
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

// factorizer is the strategy interface for the simplex basis kernel: it
// maintains a factorization of the m×m basis matrix B across pivots.
// Implementations are stateful and single-solve; after Update returns an
// error the factorization is invalid and the caller must Refactor before the
// next Ftran/Btran.
type factorizer interface {
	// Refactor rebuilds the factorization exactly from the standard-form
	// columns selected by basis (basis[i] is the column in slot i). It
	// returns a non-nil error when the basis matrix is singular.
	Refactor(a *mat.CSC, basis []int) error
	// Ftran solves B x = v: the basic values, and the entering direction
	// of every pivot. v is consumed; the result may alias it.
	Ftran(v mat.Vector) mat.Vector
	// Btran solves Bᵀ y = c. c is consumed; the result may alias it.
	Btran(c mat.Vector) mat.Vector
	// BtranSp solves Bᵀ y = c for a sparse right-hand side (the unit vector
	// of a leaving row), writing into y. c is consumed. On return y has a
	// sorted pattern, or is marked Dense when the result outgrew the
	// kernel's hyper-sparsity threshold (always, for the dense kernel).
	// Results are bit-identical to Btran on the same rhs.
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
	// counters (FT rejections, hyper/dense BTRAN counts) accumulated across
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

// Ftran solves B x = v in place through the work vector: the LU solve,
// then the eta file applied in order. The result is v itself.
func (f *denseFactorizer) Ftran(v mat.Vector) mat.Vector {
	copy(f.work, v)
	f.lu.SolveInto(v, f.work)
	for e := range f.etas {
		et := &f.etas[e]
		piv := v[et.r] / et.w[et.r]
		if piv != 0 {
			for i, wi := range et.w {
				v[i] -= piv * wi
			}
		}
		v[et.r] = piv
	}
	return v
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

// BtranSp densifies and solves straight into y — the dense kernel has no
// sparse path, so the result is always marked Dense. Every entry of y is
// overwritten, so its old pattern needs no clearing.
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
// replacements, at the customary pivot threshold τ = 0.1. Like the dense
// kernel it owns its storage: every refactorization of a solve — and of a
// Resident's later re-solves — factors into the one SparseLU, failed
// refactorizations included, so steady-state pivots and refactorizations
// allocate nothing.
type sparseFactorizer struct {
	lu  mat.SparseLU    // its Debugf is the context-bound LUDEBUG sink, set via setContext
	f   *mat.SparseLU   // &lu while it holds a valid factorization, else nil
	acc mat.HealthStats // counter totals of retired factorizations
}

// setContext binds the LUDEBUG sink to the solve context, so diagnostics
// emitted deep inside mat.SparseLU carry the owning request's trace ID
// instead of interleaving anonymously with other solves.
func (s *sparseFactorizer) setContext(ctx context.Context) {
	s.lu.Debugf = func(format string, args ...any) { obs.Debugf(ctx, "lu", format, args...) }
}

func (s *sparseFactorizer) Refactor(a *mat.CSC, basis []int) error {
	if s.f != nil {
		// The retiring factorization's lifetime counters fold into the
		// accumulator so Health reports per-solve totals, not just the
		// activity since the last refactorization.
		s.acc.AddCounters(s.f.Health())
	}
	s.f = nil
	if err := s.lu.Refactor(len(basis), func(i int) ([]int, []float64) {
		return a.ColNZ(basis[i])
	}, 0.1); err != nil {
		return err
	}
	s.f = &s.lu
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

// Ftran solves B x = v in place: the result is v itself.
func (s *sparseFactorizer) Ftran(v mat.Vector) mat.Vector {
	s.f.SolveInto(v, v)
	return v
}

// Btran solves Bᵀ y = c in place: the result is c itself.
func (s *sparseFactorizer) Btran(c mat.Vector) mat.Vector {
	s.f.SolveTInto(c, c)
	return c
}

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
