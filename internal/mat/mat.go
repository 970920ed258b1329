// Package mat provides the small dense linear-algebra substrate used by the
// rest of the repository: vectors, row-major dense matrices, an LU solver
// with partial pivoting, and validation helpers for stochastic matrices.
//
// Everything in this package is deliberately simple and allocation-explicit;
// the systems built on top of it (Markov chains with tens to a few hundred
// states, linear programs with a few hundred variables) never need more.
package mat

import (
	"errors"
	"fmt"
	"math"
	"strings"
)

// DefaultTol is the absolute tolerance used by validation helpers when the
// caller does not supply one.
const DefaultTol = 1e-9

// ErrSingular is returned by solvers when the system matrix is singular to
// working precision.
var ErrSingular = errors.New("mat: singular matrix")

// Vector is a dense float64 vector.
type Vector []float64

// NewVector returns a zero vector of length n.
func NewVector(n int) Vector { return make(Vector, n) }

// Clone returns a copy of v.
func (v Vector) Clone() Vector {
	c := make(Vector, len(v))
	copy(c, v)
	return c
}

// Sum returns the sum of the elements of v.
func (v Vector) Sum() float64 {
	s := 0.0
	for _, x := range v {
		s += x
	}
	return s
}

// Dot returns the inner product of v and w. It panics if lengths differ.
func (v Vector) Dot(w Vector) float64 {
	if len(v) != len(w) {
		panic(fmt.Sprintf("mat: Dot length mismatch %d vs %d", len(v), len(w)))
	}
	s := 0.0
	for i, x := range v {
		s += x * w[i]
	}
	return s
}

// Scale multiplies every element of v by k in place and returns v.
func (v Vector) Scale(k float64) Vector {
	for i := range v {
		v[i] *= k
	}
	return v
}

// AddScaled adds k*w to v in place and returns v. It panics if lengths differ.
func (v Vector) AddScaled(k float64, w Vector) Vector {
	if len(v) != len(w) {
		panic(fmt.Sprintf("mat: AddScaled length mismatch %d vs %d", len(v), len(w)))
	}
	for i := range v {
		v[i] += k * w[i]
	}
	return v
}

// Max returns the maximum element of v, or -Inf for an empty vector.
func (v Vector) Max() float64 {
	m := math.Inf(-1)
	for _, x := range v {
		if x > m {
			m = x
		}
	}
	return m
}

// Normalize scales v in place so its elements sum to 1 and returns v.
// It panics if the sum is zero or not finite.
func (v Vector) Normalize() Vector {
	s := v.Sum()
	if s == 0 || math.IsNaN(s) || math.IsInf(s, 0) {
		panic("mat: Normalize on vector with zero or non-finite sum")
	}
	return v.Scale(1 / s)
}

// MaxAbsDiff returns max_i |v[i]-w[i]|. It panics if lengths differ.
func (v Vector) MaxAbsDiff(w Vector) float64 {
	if len(v) != len(w) {
		panic(fmt.Sprintf("mat: MaxAbsDiff length mismatch %d vs %d", len(v), len(w)))
	}
	m := 0.0
	for i, x := range v {
		if d := math.Abs(x - w[i]); d > m {
			m = d
		}
	}
	return m
}

// IsDistribution reports whether v is a probability distribution: all
// elements in [0,1] (within tol) and summing to 1 (within tol).
func (v Vector) IsDistribution(tol float64) bool {
	if tol <= 0 {
		tol = DefaultTol
	}
	for _, x := range v {
		if x < -tol || x > 1+tol || math.IsNaN(x) {
			return false
		}
	}
	return math.Abs(v.Sum()-1) <= tol*float64(len(v)+1)
}

// Matrix is a dense row-major matrix.
type Matrix struct {
	Rows, Cols int
	Data       []float64 // len Rows*Cols, row-major
}

// NewMatrix returns a zero r-by-c matrix.
func NewMatrix(r, c int) *Matrix {
	if r < 0 || c < 0 {
		panic(fmt.Sprintf("mat: NewMatrix with negative dimension %dx%d", r, c))
	}
	return &Matrix{Rows: r, Cols: c, Data: make([]float64, r*c)}
}

// FromRows builds a matrix from row slices. All rows must share a length.
func FromRows(rows [][]float64) *Matrix {
	r := len(rows)
	if r == 0 {
		return NewMatrix(0, 0)
	}
	c := len(rows[0])
	m := NewMatrix(r, c)
	for i, row := range rows {
		if len(row) != c {
			panic(fmt.Sprintf("mat: FromRows ragged input, row %d has %d cols, want %d", i, len(row), c))
		}
		copy(m.Row(i), row)
	}
	return m
}

// At returns the element at row i, column j.
func (m *Matrix) At(i, j int) float64 { return m.Data[i*m.Cols+j] }

// Set assigns the element at row i, column j.
func (m *Matrix) Set(i, j int, v float64) { m.Data[i*m.Cols+j] = v }

// Add increments the element at row i, column j by v.
func (m *Matrix) Add(i, j int, v float64) { m.Data[i*m.Cols+j] += v }

// Row returns row i as a slice aliasing the matrix storage.
func (m *Matrix) Row(i int) Vector { return Vector(m.Data[i*m.Cols : (i+1)*m.Cols]) }

// Clone returns a deep copy of m.
func (m *Matrix) Clone() *Matrix {
	c := NewMatrix(m.Rows, m.Cols)
	copy(c.Data, m.Data)
	return c
}

// T returns the transpose of m as a new matrix.
func (m *Matrix) T() *Matrix {
	t := NewMatrix(m.Cols, m.Rows)
	for i := 0; i < m.Rows; i++ {
		for j := 0; j < m.Cols; j++ {
			t.Set(j, i, m.At(i, j))
		}
	}
	return t
}

// AddMatrixScaled adds k*other to m in place and returns m.
// It panics on dimension mismatch.
func (m *Matrix) AddMatrixScaled(k float64, other *Matrix) *Matrix {
	if m.Rows != other.Rows || m.Cols != other.Cols {
		panic(fmt.Sprintf("mat: AddMatrixScaled shape mismatch %dx%d vs %dx%d",
			m.Rows, m.Cols, other.Rows, other.Cols))
	}
	for i := range m.Data {
		m.Data[i] += k * other.Data[i]
	}
	return m
}

// MulVec returns m*v (treating v as a column vector).
// It panics if len(v) != m.Cols.
func (m *Matrix) MulVec(v Vector) Vector {
	if len(v) != m.Cols {
		panic(fmt.Sprintf("mat: MulVec dimension mismatch cols=%d len(v)=%d", m.Cols, len(v)))
	}
	out := NewVector(m.Rows)
	for i := 0; i < m.Rows; i++ {
		out[i] = m.Row(i).Dot(v)
	}
	return out
}

// VecMul returns v*m (treating v as a row vector).
// It panics if len(v) != m.Rows.
func (m *Matrix) VecMul(v Vector) Vector {
	if len(v) != m.Rows {
		panic(fmt.Sprintf("mat: VecMul dimension mismatch rows=%d len(v)=%d", m.Rows, len(v)))
	}
	out := NewVector(m.Cols)
	for i := 0; i < m.Rows; i++ {
		vi := v[i]
		if vi == 0 {
			continue
		}
		row := m.Row(i)
		for j, x := range row {
			out[j] += vi * x
		}
	}
	return out
}

// Mul returns the matrix product m*other.
// It panics if m.Cols != other.Rows.
func (m *Matrix) Mul(other *Matrix) *Matrix {
	if m.Cols != other.Rows {
		panic(fmt.Sprintf("mat: Mul dimension mismatch %dx%d * %dx%d",
			m.Rows, m.Cols, other.Rows, other.Cols))
	}
	out := NewMatrix(m.Rows, other.Cols)
	for i := 0; i < m.Rows; i++ {
		for k := 0; k < m.Cols; k++ {
			a := m.At(i, k)
			if a == 0 {
				continue
			}
			orow := other.Row(k)
			out.Row(i).AddScaled(a, orow)
		}
	}
	return out
}

// MaxAbsDiff returns the largest absolute elementwise difference between
// m and other. It panics on dimension mismatch.
func (m *Matrix) MaxAbsDiff(other *Matrix) float64 {
	if m.Rows != other.Rows || m.Cols != other.Cols {
		panic(fmt.Sprintf("mat: MaxAbsDiff shape mismatch %dx%d vs %dx%d",
			m.Rows, m.Cols, other.Rows, other.Cols))
	}
	d := 0.0
	for i := range m.Data {
		if x := math.Abs(m.Data[i] - other.Data[i]); x > d {
			d = x
		}
	}
	return d
}

// CheckStochastic returns a descriptive error for the first row of m that is
// not a probability distribution within tol, or nil if all rows are.
func (m *Matrix) CheckStochastic(tol float64) error {
	if tol <= 0 {
		tol = DefaultTol
	}
	for i := 0; i < m.Rows; i++ {
		row := m.Row(i)
		for j, x := range row {
			if x < -tol || x > 1+tol || math.IsNaN(x) {
				return fmt.Errorf("mat: row %d entry %d = %g out of [0,1]", i, j, x)
			}
		}
		if s := row.Sum(); math.Abs(s-1) > tol*float64(m.Cols+1) {
			return fmt.Errorf("mat: row %d sums to %g, want 1", i, s)
		}
	}
	return nil
}

// String renders m with 6 significant digits, one row per line.
func (m *Matrix) String() string {
	var b strings.Builder
	for i := 0; i < m.Rows; i++ {
		for j := 0; j < m.Cols; j++ {
			if j > 0 {
				b.WriteByte(' ')
			}
			fmt.Fprintf(&b, "%10.6g", m.At(i, j))
		}
		b.WriteByte('\n')
	}
	return b.String()
}
