package mat

import "math"

// LU holds the LU factorization (with partial pivoting) of a square matrix,
// ready to solve linear systems for multiple right-hand sides.
//
// The zero value is an empty factorization that FactorInPlace fills; a
// single LU refactorized in place and solved through SolveInto/SolveTInto
// allocates nothing once its pivot vector is sized, which is what lets the
// simplex basis kernel refactorize and solve per pivot without garbage.
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
func (f *LU) SolveInto(x, b Vector) {
	n := f.lu.Rows
	if len(b) != n || len(x) != n {
		panic("mat: LU.Solve dimension mismatch")
	}
	data := f.lu.Data
	for i, p := range f.piv {
		x[i] = b[p]
	}
	// Forward substitution with unit lower triangle.
	for i := 1; i < n; i++ {
		row := data[i*n : i*n+i]
		s := x[i]
		for j, v := range row {
			s -= v * x[j]
		}
		x[i] = s
	}
	// Back substitution with upper triangle.
	for i := n - 1; i >= 0; i-- {
		row := data[i*n : (i+1)*n]
		s := x[i]
		for j := i + 1; j < n; j++ {
			s -= row[j] * x[j]
		}
		x[i] = s / row[i]
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
func (f *LU) SolveTInto(x, b Vector) {
	n := f.lu.Rows
	if len(b) != n || len(x) != n {
		panic("mat: LU.SolveT dimension mismatch")
	}
	data := f.lu.Data
	z := b
	// Forward substitution with Uᵀ (lower triangular, diagonal from U):
	// column i of U, read down its rows above the diagonal.
	for i := 0; i < n; i++ {
		s := z[i]
		for j := 0; j < i; j++ {
			s -= data[j*n+i] * z[j]
		}
		z[i] = s / data[i*n+i]
	}
	// Back substitution with Lᵀ (unit-diagonal upper triangular): column i
	// of L below the diagonal, j ascending.
	for i := n - 1; i >= 0; i-- {
		s := z[i]
		for j := i + 1; j < n; j++ {
			s -= data[j*n+i] * z[j]
		}
		z[i] = s
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
