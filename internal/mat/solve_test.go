package mat

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// refLU is the reference dense LU: the straightforward At/Set loops the
// in-place kernel must reproduce operation for operation.
type refLU struct {
	lu  *Matrix
	piv []int
}

func refFactor(a *Matrix) (*refLU, error) {
	n := a.Rows
	lu := a.Clone()
	piv := make([]int, n)
	for i := range piv {
		piv[i] = i
	}
	scale := 0.0
	for _, x := range lu.Data {
		if v := math.Abs(x); v > scale {
			scale = v
		}
	}
	tiny := 1e-14 * scale
	if tiny == 0 {
		tiny = 1e-300
	}
	for k := 0; k < n; k++ {
		p, best := k, math.Abs(lu.At(k, k))
		for i := k + 1; i < n; i++ {
			if v := math.Abs(lu.At(i, k)); v > best {
				best, p = v, i
			}
		}
		if best < tiny {
			return nil, ErrSingular
		}
		if p != k {
			rk, rp := lu.Row(k), lu.Row(p)
			for j := range rk {
				rk[j], rp[j] = rp[j], rk[j]
			}
			piv[k], piv[p] = piv[p], piv[k]
		}
		for i := k + 1; i < n; i++ {
			f := lu.At(i, k) / lu.At(k, k)
			lu.Set(i, k, f)
			if f == 0 {
				continue
			}
			for j := k + 1; j < n; j++ {
				lu.Set(i, j, lu.At(i, j)-f*lu.At(k, j))
			}
		}
	}
	return &refLU{lu: lu, piv: piv}, nil
}

// solve is the reference for SolveInto in its order of operations: column
// sweeps in which a final x_j, unless zero, is subtracted from every later
// (forward) or earlier (backward) entry.
func (f *refLU) solve(b Vector) Vector {
	n := f.lu.Rows
	x := NewVector(n)
	for i := 0; i < n; i++ {
		x[i] = b[f.piv[i]]
	}
	for j := 0; j < n; j++ {
		if x[j] == 0 {
			continue
		}
		for i := j + 1; i < n; i++ {
			x[i] -= f.lu.At(i, j) * x[j]
		}
	}
	for j := n - 1; j >= 0; j-- {
		x[j] /= f.lu.At(j, j)
		if x[j] == 0 {
			continue
		}
		for i := 0; i < j; i++ {
			x[i] -= f.lu.At(i, j) * x[j]
		}
	}
	return x
}

// solveT is the reference for SolveTInto in its order of operations: column
// sweeps of Uᵀ and Lᵀ, which read the packed factors by rows.
func (f *refLU) solveT(b Vector) Vector {
	n := f.lu.Rows
	z := b.Clone()
	for j := 0; j < n; j++ {
		z[j] /= f.lu.At(j, j)
		if z[j] == 0 {
			continue
		}
		for i := j + 1; i < n; i++ {
			z[i] -= f.lu.At(j, i) * z[j]
		}
	}
	for j := n - 1; j >= 0; j-- {
		if z[j] == 0 {
			continue
		}
		for i := 0; i < j; i++ {
			z[i] -= f.lu.At(j, i) * z[j]
		}
	}
	x := NewVector(n)
	for i := range x {
		x[f.piv[i]] = z[i]
	}
	return x
}

// oracleSolve is row-oriented substitution: each entry is one dot product
// over its row of L or U, in ascending j. It is a second, textbook order of
// operations, the accuracy oracle the column sweeps' residuals are held to.
func (f *refLU) oracleSolve(b Vector) Vector {
	n := f.lu.Rows
	x := NewVector(n)
	for i := 0; i < n; i++ {
		x[i] = b[f.piv[i]]
	}
	for i := 1; i < n; i++ {
		for j := 0; j < i; j++ {
			x[i] -= f.lu.At(i, j) * x[j]
		}
	}
	for i := n - 1; i >= 0; i-- {
		for j := i + 1; j < n; j++ {
			x[i] -= f.lu.At(i, j) * x[j]
		}
		x[i] /= f.lu.At(i, i)
	}
	return x
}

// oracleSolveT is oracleSolve's transposed counterpart: each entry is one
// dot product down a column of U or L.
func (f *refLU) oracleSolveT(b Vector) Vector {
	n := f.lu.Rows
	z := b.Clone()
	for i := 0; i < n; i++ {
		for j := 0; j < i; j++ {
			z[i] -= f.lu.At(j, i) * z[j]
		}
		z[i] /= f.lu.At(i, i)
	}
	for i := n - 1; i >= 0; i-- {
		for j := i + 1; j < n; j++ {
			z[i] -= f.lu.At(j, i) * z[j]
		}
	}
	x := NewVector(n)
	for i := range x {
		x[f.piv[i]] = z[i]
	}
	return x
}

// randomBasis draws an n×n matrix that is sparse-ish like a simplex basis,
// with entries spread over seven orders of magnitude.
func randomBasis(r *rand.Rand, n int) *Matrix {
	a := NewMatrix(n, n)
	for i := range a.Data {
		if r.Intn(3) > 0 {
			a.Data[i] = r.NormFloat64() * math.Pow(10, float64(r.Intn(7)-3))
		}
	}
	return a
}

// testRHS returns the right-hand sides the solves are checked on: a dense
// one, every unit vector (the BTRAN rhs of a leaving row, and the sparse
// columns FTRAN sees), and one whose leading half is zero, so that the
// sweeps' zero-skips run on both ends.
func testRHS(r *rand.Rand, n int) []Vector {
	dense := NewVector(n)
	for i := range dense {
		dense[i] = r.NormFloat64()
	}
	tail := NewVector(n)
	for i := n / 2; i < n; i++ {
		tail[i] = r.NormFloat64()
	}
	out := []Vector{dense, tail}
	for i := 0; i < n; i++ {
		e := NewVector(n)
		e[i] = 1
		out = append(out, e)
	}
	return out
}

// TestLUInPlaceBitIdentical holds one LU, refactorized in place over
// matrices of several sizes and solved through SolveInto/SolveTInto, to
// the reference loops bit for bit: the factors, the pivot order and both
// solves, on dense, unit and leading-zero right-hand sides. This is the
// floating-point-order contract the simplex relies on for reproducible
// pivot trajectories. Each solve's residual is also held to the
// row-oriented oracle's (CheckResidual): the sweeps' order of operations
// may move an answer by roundoff, not make it worse.
func TestLUInPlaceBitIdentical(t *testing.T) {
	r := rand.New(rand.NewSource(5))
	var f LU
	for trial := 0; trial < 60; trial++ {
		n := 1 + r.Intn(40)
		a := randomBasis(r, n)
		ref, refErr := refFactor(a)
		work := a.Clone()
		err := f.FactorInPlace(work)
		if (err == nil) != (refErr == nil) {
			t.Fatalf("trial %d: FactorInPlace err %v, reference %v", trial, err, refErr)
		}
		if err != nil {
			continue
		}
		checkBits(t, "factors", work.Data, ref.lu.Data)
		x := NewVector(n)
		for k, b := range testRHS(r, n) {
			label := fmt.Sprintf("trial %d (n=%d) rhs %d", trial, n, k)
			f.SolveInto(x, b)
			checkBits(t, "SolveInto", x, ref.solve(b))
			CheckResidual(t, label+" SolveInto", a, false, b, x, ref.oracleSolve(b))
			f.SolveTInto(x, b.Clone())
			checkBits(t, "SolveTInto", x, ref.solveT(b))
			CheckResidual(t, label+" SolveTInto", a, true, b, x, ref.oracleSolveT(b))
		}
	}
}

func checkBits(t *testing.T, what string, got, want []float64) {
	t.Helper()
	for i := range want {
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
			t.Fatalf("%s[%d] = %x, reference %x", what, i, math.Float64bits(got[i]), math.Float64bits(want[i]))
		}
	}
}
