package mat

// Sparse kernel: triplet (COO) builder, CSR and CSC compressed forms,
// sparse×dense products, and stochastic-matrix validation directly on the
// sparse representation.
//
// The composed controlled Markov chains of this repository are extremely
// sparse — the queue law (paper Eq. 3) is banded and the SP/SR component
// chains have tiny out-degrees — so the per-command transition matrices and
// the policy-optimization LP columns are built and consumed in these forms;
// dense |S|×|S| matrices are materialized only where a direct linear solve
// genuinely needs them.

import (
	"fmt"
	"math"
	"sort"
)

// Triplet accumulates (row, col, value) entries for a sparse matrix under
// construction. Duplicate coordinates are summed on compression, which makes
// the builder a natural target for the scatter-style accumulation used when
// composing product chains.
type Triplet struct {
	rows, cols int
	ri, ci     []int
	v          []float64
}

// NewTriplet returns an empty builder for an r-by-c matrix.
func NewTriplet(r, c int) *Triplet {
	if r < 0 || c < 0 {
		panic(fmt.Sprintf("mat: NewTriplet with negative dimension %dx%d", r, c))
	}
	return &Triplet{rows: r, cols: c}
}

// Add records entry (i, j) += v. Zero values are kept until compression (they
// can cancel a duplicate). It panics on out-of-range coordinates.
func (t *Triplet) Add(i, j int, v float64) {
	if i < 0 || i >= t.rows || j < 0 || j >= t.cols {
		panic(fmt.Sprintf("mat: Triplet.Add (%d,%d) outside %dx%d", i, j, t.rows, t.cols))
	}
	t.ri = append(t.ri, i)
	t.ci = append(t.ci, j)
	t.v = append(t.v, v)
}

// ToCSR compresses the builder into a CSR matrix: duplicates summed, columns
// sorted within each row, exact zeros dropped. The builder may be reused
// afterwards (it is not consumed).
func (t *Triplet) ToCSR() *CSR {
	// Counting sort by row.
	count := make([]int, t.rows+1)
	for _, i := range t.ri {
		count[i+1]++
	}
	for i := 0; i < t.rows; i++ {
		count[i+1] += count[i]
	}
	colIdx := make([]int, len(t.v))
	vals := make([]float64, len(t.v))
	next := make([]int, t.rows)
	copy(next, count[:t.rows])
	for k, i := range t.ri {
		p := next[i]
		colIdx[p] = t.ci[k]
		vals[p] = t.v[k]
		next[i]++
	}
	// Sort within each row, then merge duplicates and drop zeros in place.
	rowPtr := make([]int, t.rows+1)
	out := 0
	for i := 0; i < t.rows; i++ {
		lo, hi := count[i], count[i+1]
		seg := colIdx[lo:hi]
		sort.Sort(&colValSort{seg, vals[lo:hi]})
		rowPtr[i] = out
		for k := lo; k < hi; {
			j := colIdx[k]
			s := vals[k]
			k++
			for k < hi && colIdx[k] == j {
				s += vals[k]
				k++
			}
			if s != 0 {
				colIdx[out] = j
				vals[out] = s
				out++
			}
		}
	}
	rowPtr[t.rows] = out
	return &CSR{rows: t.rows, cols: t.cols, rowPtr: rowPtr, colIdx: colIdx[:out], vals: vals[:out]}
}

// colValSort sorts paired (column, value) slices by column.
type colValSort struct {
	c []int
	v []float64
}

func (s *colValSort) Len() int           { return len(s.c) }
func (s *colValSort) Less(i, j int) bool { return s.c[i] < s.c[j] }
func (s *colValSort) Swap(i, j int) {
	s.c[i], s.c[j] = s.c[j], s.c[i]
	s.v[i], s.v[j] = s.v[j], s.v[i]
}

// CSR is a compressed-sparse-row matrix: row i's nonzeros live at positions
// rowPtr[i]..rowPtr[i+1] of (colIdx, vals), with colIdx sorted within each
// row. The zero value is not usable; build through Triplet, NewCSR,
// FromDense, or another CSR.
type CSR struct {
	rows, cols int
	rowPtr     []int
	colIdx     []int
	vals       []float64
}

// FromDense compresses a dense matrix, dropping exact zeros.
func FromDense(m *Matrix) *CSR {
	nnz := 0
	for _, v := range m.Data {
		if v != 0 {
			nnz++
		}
	}
	rowPtr := make([]int, m.Rows+1)
	colIdx := make([]int, 0, nnz)
	vals := make([]float64, 0, nnz)
	for i := 0; i < m.Rows; i++ {
		for j, v := range m.Row(i) {
			if v != 0 {
				colIdx = append(colIdx, j)
				vals = append(vals, v)
			}
		}
		rowPtr[i+1] = len(colIdx)
	}
	return &CSR{rows: m.Rows, cols: m.Cols, rowPtr: rowPtr, colIdx: colIdx, vals: vals}
}

// NewCSR wraps compressed-row arrays as a rows×cols CSR matrix without
// copying them: row i's entries are colIdx[rowPtr[i]:rowPtr[i+1]] with
// values vals[rowPtr[i]:rowPtr[i+1]]. The caller guarantees the form every
// other constructor produces — column indices in [0, cols), strictly
// increasing within each row, no explicit zeros — and hands the arrays
// over. It panics on inconsistent array lengths.
func NewCSR(rows, cols int, rowPtr, colIdx []int, vals []float64) *CSR {
	if rows < 0 || cols < 0 || len(rowPtr) != rows+1 || rowPtr[rows] != len(colIdx) || len(colIdx) != len(vals) {
		panic(fmt.Sprintf("mat: compressed arrays inconsistent with a %dx%d matrix", rows, cols))
	}
	return &CSR{rows: rows, cols: cols, rowPtr: rowPtr, colIdx: colIdx, vals: vals}
}

// Rows returns the number of rows.
func (m *CSR) Rows() int { return m.rows }

// Cols returns the number of columns.
func (m *CSR) Cols() int { return m.cols }

// NNZ returns the number of stored entries.
func (m *CSR) NNZ() int { return len(m.vals) }

// RowNZ returns the column indices and values of row i's nonzeros. The
// slices alias internal storage; callers must not mutate them.
func (m *CSR) RowNZ(i int) ([]int, []float64) {
	lo, hi := m.rowPtr[i], m.rowPtr[i+1]
	return m.colIdx[lo:hi], m.vals[lo:hi]
}

// RewriteRowNZ overwrites the stored values of row i with vals after
// verifying that cols matches the stored (sorted) nonzero pattern exactly.
// This is the in-place revision hook for callers that rebuild a structurally
// identical matrix with drifted coefficients (core.PatchModel): the row
// index structure carries over verbatim.
// A pattern mismatch returns an error with the row left unchanged.
func (m *CSR) RewriteRowNZ(i int, cols []int, vals []float64) error {
	lo, hi := m.rowPtr[i], m.rowPtr[i+1]
	stored := m.colIdx[lo:hi]
	if len(cols) != len(stored) {
		return fmt.Errorf("mat: row %d has %d nonzeros, want %d", i, len(stored), len(cols))
	}
	for k, j := range cols {
		if stored[k] != j {
			return fmt.Errorf("mat: row %d nonzero %d at column %d, want %d", i, k, stored[k], j)
		}
	}
	copy(m.vals[lo:hi], vals)
	return nil
}

// At returns the (i, j) entry (zero if not stored).
func (m *CSR) At(i, j int) float64 {
	cols, vals := m.RowNZ(i)
	k := sort.SearchInts(cols, j)
	if k < len(cols) && cols[k] == j {
		return vals[k]
	}
	return 0
}

// RowDot returns the inner product of row i with dense vector v.
// It panics if len(v) != Cols.
func (m *CSR) RowDot(i int, v Vector) float64 {
	if len(v) != m.cols {
		panic(fmt.Sprintf("mat: CSR.RowDot dimension mismatch cols=%d len(v)=%d", m.cols, len(v)))
	}
	cols, vals := m.RowNZ(i)
	s := 0.0
	for k, j := range cols {
		s += vals[k] * v[j]
	}
	return s
}

// MulVec returns m*v (v as a column vector). Cost O(nnz).
func (m *CSR) MulVec(v Vector) Vector {
	if len(v) != m.cols {
		panic(fmt.Sprintf("mat: CSR.MulVec dimension mismatch cols=%d len(v)=%d", m.cols, len(v)))
	}
	out := NewVector(m.rows)
	for i := 0; i < m.rows; i++ {
		cols, vals := m.RowNZ(i)
		s := 0.0
		for k, j := range cols {
			s += vals[k] * v[j]
		}
		out[i] = s
	}
	return out
}

// VecMul returns v*m (v as a row vector). Cost O(nnz).
func (m *CSR) VecMul(v Vector) Vector {
	if len(v) != m.rows {
		panic(fmt.Sprintf("mat: CSR.VecMul dimension mismatch rows=%d len(v)=%d", m.rows, len(v)))
	}
	out := NewVector(m.cols)
	for i := 0; i < m.rows; i++ {
		vi := v[i]
		if vi == 0 {
			continue
		}
		cols, vals := m.RowNZ(i)
		for k, j := range cols {
			out[j] += vi * vals[k]
		}
	}
	return out
}

// MulVecTInto writes dst = v·m (v as a row vector; dst may not alias v) —
// one distribution step — without allocating. Cost O(nnz).
func (m *CSR) MulVecTInto(dst, v Vector) {
	if len(v) != m.rows || len(dst) != m.cols {
		panic(fmt.Sprintf("mat: CSR.MulVecTInto dimension mismatch rows=%d len(v)=%d len(dst)=%d", m.rows, len(v), len(dst)))
	}
	for i := range dst {
		dst[i] = 0
	}
	for i := 0; i < m.rows; i++ {
		vi := v[i]
		if vi == 0 {
			continue
		}
		cols, vals := m.RowNZ(i)
		for k, j := range cols {
			dst[j] += vi * vals[k]
		}
	}
}

// MulVecInto is MulVec writing into dst (which may not alias v).
func (m *CSR) MulVecInto(dst, v Vector) {
	if len(v) != m.cols || len(dst) != m.rows {
		panic(fmt.Sprintf("mat: CSR.MulVecInto dimension mismatch cols=%d len(v)=%d len(dst)=%d", m.cols, len(v), len(dst)))
	}
	for i := 0; i < m.rows; i++ {
		cols, vals := m.RowNZ(i)
		s := 0.0
		for k, j := range cols {
			s += vals[k] * v[j]
		}
		dst[i] = s
	}
}

// RowSample draws a successor of state i from the probability row m[i,·] by
// an inverse-CDF walk over the stored entries; residual mass from implicit
// zeros (and roundoff) lands on the last stored entry, the tail-clamp
// convention the simulator uses. It consumes exactly one uniform from u and
// panics on an empty row. Safe for concurrent use.
func (m *CSR) RowSample(i int, u func() float64) int {
	cols, vals := m.RowNZ(i)
	if len(cols) == 0 {
		panic(fmt.Sprintf("mat: CSR.RowSample on empty row %d", i))
	}
	uu := u()
	for k, p := range vals {
		uu -= p
		if uu <= 0 {
			return cols[k]
		}
	}
	return cols[len(cols)-1]
}

// T returns the transpose as a new CSR (equivalently, the CSC view of m).
func (m *CSR) T() *CSR {
	count := make([]int, m.cols+1)
	for _, j := range m.colIdx {
		count[j+1]++
	}
	for j := 0; j < m.cols; j++ {
		count[j+1] += count[j]
	}
	rowPtr := make([]int, m.cols+1)
	copy(rowPtr, count)
	colIdx := make([]int, len(m.vals))
	vals := make([]float64, len(m.vals))
	next := make([]int, m.cols)
	copy(next, count[:m.cols])
	for i := 0; i < m.rows; i++ {
		cols, vs := m.RowNZ(i)
		for k, j := range cols {
			p := next[j]
			colIdx[p] = i
			vals[p] = vs[k]
			next[j]++
		}
	}
	return &CSR{rows: m.cols, cols: m.rows, rowPtr: rowPtr, colIdx: colIdx, vals: vals}
}

// Clone returns a deep copy of m.
func (m *CSR) Clone() *CSR {
	c := &CSR{
		rows: m.rows, cols: m.cols,
		rowPtr: make([]int, len(m.rowPtr)),
		colIdx: make([]int, len(m.colIdx)),
		vals:   make([]float64, len(m.vals)),
	}
	copy(c.rowPtr, m.rowPtr)
	copy(c.colIdx, m.colIdx)
	copy(c.vals, m.vals)
	return c
}

// Dense materializes m as a dense matrix.
func (m *CSR) Dense() *Matrix {
	d := NewMatrix(m.rows, m.cols)
	for i := 0; i < m.rows; i++ {
		cols, vals := m.RowNZ(i)
		row := d.Row(i)
		for k, j := range cols {
			row[j] = vals[k]
		}
	}
	return d
}

// MaxAbsDiff returns the largest absolute elementwise difference between m
// and other, walking the merged sparsity patterns. It panics on dimension
// mismatch.
func (m *CSR) MaxAbsDiff(other *CSR) float64 {
	if m.rows != other.rows || m.cols != other.cols {
		panic(fmt.Sprintf("mat: CSR.MaxAbsDiff shape mismatch %dx%d vs %dx%d",
			m.rows, m.cols, other.rows, other.cols))
	}
	d := 0.0
	for i := 0; i < m.rows; i++ {
		ac, av := m.RowNZ(i)
		bc, bv := other.RowNZ(i)
		ka, kb := 0, 0
		for ka < len(ac) || kb < len(bc) {
			var diff float64
			switch {
			case kb >= len(bc) || (ka < len(ac) && ac[ka] < bc[kb]):
				diff = av[ka]
				ka++
			case ka >= len(ac) || bc[kb] < ac[ka]:
				diff = bv[kb]
				kb++
			default:
				diff = av[ka] - bv[kb]
				ka++
				kb++
			}
			if x := math.Abs(diff); x > d {
				d = x
			}
		}
	}
	return d
}

// CheckStochastic returns a descriptive error for the first row of m that is
// not a probability distribution within tol, or nil if all rows are. The
// check runs on the sparse form in O(nnz).
func (m *CSR) CheckStochastic(tol float64) error {
	if tol <= 0 {
		tol = DefaultTol
	}
	for i := 0; i < m.rows; i++ {
		cols, vals := m.RowNZ(i)
		s := 0.0
		for k, v := range vals {
			if v < -tol || v > 1+tol || math.IsNaN(v) {
				return fmt.Errorf("mat: row %d entry %d = %g out of [0,1]", i, cols[k], v)
			}
			s += v
		}
		if math.Abs(s-1) > tol*float64(m.cols+1) {
			return fmt.Errorf("mat: row %d sums to %g, want 1", i, s)
		}
	}
	return nil
}

// CSC is a compressed-sparse-column matrix, stored as the CSR form of its
// transpose. Column j's nonzeros are contiguous with sorted row indices,
// which is the access pattern the revised simplex needs (pricing and basis
// assembly walk columns, never rows).
type CSC struct {
	t *CSR // CSR of the transpose: row j of t = column j of the matrix
}

// NewCSC wraps compressed-column arrays as a rows×cols CSC matrix without
// copying them: column j's entries are rowIdx[colPtr[j]:colPtr[j+1]] with
// values vals[colPtr[j]:colPtr[j+1]]. The caller guarantees the form every
// other constructor produces — row indices in [0, rows), strictly
// increasing within each column, no explicit zeros — and hands the arrays
// over. It panics on inconsistent array lengths.
func NewCSC(rows, cols int, colPtr, rowIdx []int, vals []float64) *CSC {
	return &CSC{t: NewCSR(cols, rows, colPtr, rowIdx, vals)}
}

// NNZ returns the number of stored entries.
func (m *CSC) NNZ() int { return m.t.NNZ() }

// ColNZ returns the row indices and values of column j's nonzeros. The
// slices alias internal storage; callers must not mutate them.
func (m *CSC) ColNZ(j int) ([]int, []float64) { return m.t.RowNZ(j) }

// ColDot returns the inner product of column j with dense vector v.
func (m *CSC) ColDot(j int, v Vector) float64 { return m.t.RowDot(j, v) }
