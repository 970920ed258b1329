package mat

import "math"

// LU holds the LU factorization (with partial pivoting) of a square matrix,
// ready to solve linear systems for multiple right-hand sides.
//
// The zero value is an empty factorization that FactorInPlace fills; a
// single LU refactorized in place and solved through SolveInto/SolveTInto
// allocates nothing once its pivot vector is sized, which is what lets the
// simplex basis kernel refactorize and solve per pivot without garbage.
//
// The factors are packed row-major in one n×n matrix: L's multipliers below
// the diagonal (its unit diagonal implied), U on and above it. The solves
// sweep them by columns of the triangle being solved (see SolveInto and
// SolveTInto), and that order of operations is part of the contract: the
// simplex's pivot trajectories are reproducible bit for bit only while it
// holds.
type LU struct {
	lu   *Matrix
	piv  []int
	sign int
}

// Factor computes the LU factorization of square matrix a with partial
// pivoting. It returns ErrSingular if a pivot is exactly zero or smaller in
// magnitude than tiny (1e-14 times the largest row scale). a is not
// modified.
func Factor(a *Matrix) (*LU, error) {
	f := &LU{}
	if err := f.FactorInPlace(a.Clone()); err != nil {
		return nil, err
	}
	return f, nil
}

// FactorInPlace computes the LU factorization of square matrix a into a
// itself, reusing f's pivot storage: a is overwritten by the factors and
// must not be modified while f is in use. On error (ErrSingular) f holds no
// usable factorization. The arithmetic is exactly Factor's.
func (f *LU) FactorInPlace(a *Matrix) error {
	if a.Rows != a.Cols {
		panic("mat: Factor requires a square matrix")
	}
	n := a.Rows
	f.lu = a
	if cap(f.piv) < n {
		f.piv = make([]int, n)
	}
	piv := f.piv[:n]
	f.piv = piv
	for i := range piv {
		piv[i] = i
	}
	f.sign = 1
	data := a.Data

	// Row scales for a relative singularity threshold.
	scale := 0.0
	for _, x := range data {
		if v := math.Abs(x); v > scale {
			scale = v
		}
	}
	tiny := 1e-14 * scale
	if tiny == 0 {
		tiny = 1e-300
	}

	for k := 0; k < n; k++ {
		// Find pivot in column k.
		p, best := k, math.Abs(data[k*n+k])
		for i := k + 1; i < n; i++ {
			if v := math.Abs(data[i*n+k]); v > best {
				best, p = v, i
			}
		}
		if best < tiny {
			f.lu = nil
			return ErrSingular
		}
		rk := data[k*n : (k+1)*n]
		if p != k {
			rp := data[p*n : (p+1)*n]
			for j := range rk {
				rk[j], rp[j] = rp[j], rk[j]
			}
			piv[k], piv[p] = piv[p], piv[k]
			f.sign = -f.sign
		}
		pivVal := rk[k]
		tail := rk[k+1:]
		for i := k + 1; i < n; i++ {
			ri := data[i*n : (i+1)*n]
			fi := ri[k] / pivVal
			ri[k] = fi
			if fi == 0 {
				continue
			}
			ri = ri[k+1:][:len(tail)]
			for j, v := range tail {
				ri[j] -= fi * v
			}
		}
	}
	return nil
}

// Solve solves A x = b using the factorization. b is not modified.
func (f *LU) Solve(b Vector) Vector {
	x := NewVector(f.lu.Rows)
	f.SolveInto(x, b)
	return x
}

// SolveInto solves A x = b into x without allocating. b is not modified;
// x must not alias b.
//
// Both triangular passes are column sweeps: once x_j is final it is
// subtracted from every entry it still affects (x_i −= l_ij·x_j), so the
// inner loop's iterations are independent and a zero x_j skips its column.
// The forward pass with L applies each entry's subtractions in ascending j,
// as a row-by-row dot product would; the backward pass with U applies them
// in descending j. Both read their columns with stride n.
func (f *LU) SolveInto(x, b Vector) {
	n := f.lu.Rows
	if len(b) != n || len(x) != n {
		panic("mat: LU.Solve dimension mismatch")
	}
	data := f.lu.Data
	for i, p := range f.piv {
		x[i] = b[p]
	}
	// Forward substitution with unit lower triangle: column j of L below
	// the diagonal.
	for j := 0; j < n-1; j++ {
		xj := x[j]
		if xj == 0 {
			continue
		}
		for i, k := j+1, (j+1)*n+j; i < n; i, k = i+1, k+n {
			x[i] -= data[k] * xj
		}
	}
	// Back substitution with upper triangle: column j of U above the
	// diagonal.
	for j := n - 1; j >= 0; j-- {
		xj := x[j] / data[j*n+j]
		x[j] = xj
		if xj == 0 {
			continue
		}
		for i, k := 0, j; i < j; i, k = i+1, k+n {
			x[i] -= data[k] * xj
		}
	}
}

// SolveT solves the transposed system Aᵀ x = b using the factorization of A,
// without factoring Aᵀ separately. With PA = LU (P the row permutation the
// pivot vector records), Aᵀ = Uᵀ Lᵀ P, so the solve runs Uᵀ (forward), Lᵀ
// (backward), then undoes the permutation. b is not modified. This is the
// BTRAN step of the revised simplex, where one factorization serves both
// B x = b and Bᵀ y = c.
func (f *LU) SolveT(b Vector) Vector {
	x := NewVector(f.lu.Rows)
	f.SolveTInto(x, b.Clone())
	return x
}

// SolveTInto solves Aᵀ x = b into x without allocating (see SolveT). b is
// consumed: the triangular passes run in place on it. x must not alias b.
//
// The passes are column sweeps of Uᵀ and Lᵀ, that is, row sweeps of the
// packed factors: a final z_j is subtracted from every entry it still
// affects, reading row j of U (or of L) contiguously, and a zero z_j skips
// its row. The forward pass with Uᵀ applies each entry's subtractions in
// ascending j; the backward pass with Lᵀ applies them in descending j.
func (f *LU) SolveTInto(x, b Vector) {
	n := f.lu.Rows
	if len(b) != n || len(x) != n {
		panic("mat: LU.SolveT dimension mismatch")
	}
	data := f.lu.Data
	z := b
	// Forward substitution with Uᵀ (lower triangular, diagonal from U): row
	// j of U right of the diagonal.
	for j := 0; j < n; j++ {
		row := data[j*n : (j+1)*n]
		zj := z[j] / row[j]
		z[j] = zj
		if zj == 0 {
			continue
		}
		tail := z[j+1 : n]
		for i, v := range row[j+1:] {
			tail[i] -= v * zj
		}
	}
	// Back substitution with Lᵀ (unit-diagonal upper triangular): row j of
	// L left of the diagonal.
	for j := n - 1; j > 0; j-- {
		zj := z[j]
		if zj == 0 {
			continue
		}
		head := z[:j]
		for i, v := range data[j*n : j*n+j] {
			head[i] -= v * zj
		}
	}
	for i, p := range f.piv {
		x[p] = z[i]
	}
}

// Solve solves the square linear system A x = b.
func Solve(a *Matrix, b Vector) (Vector, error) {
	f, err := Factor(a)
	if err != nil {
		return nil, err
	}
	return f.Solve(b), nil
}
