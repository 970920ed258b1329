package mat

import (
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

func (f *refLU) solve(b Vector) Vector {
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

func (f *refLU) solveT(b Vector) Vector {
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

// TestLUInPlaceBitIdentical holds one LU, refactorized in place over
// matrices of several sizes and solved through SolveInto/SolveTInto, to
// the reference loops bit for bit: the factors, the pivot order and both
// solves. This is the floating-point-order contract the simplex relies on
// for reproducible pivot trajectories.
func TestLUInPlaceBitIdentical(t *testing.T) {
	r := rand.New(rand.NewSource(5))
	var f LU
	for trial := 0; trial < 60; trial++ {
		n := 1 + r.Intn(40)
		a := NewMatrix(n, n)
		for i := range a.Data {
			if r.Intn(3) > 0 { // sparse-ish, like a simplex basis
				a.Data[i] = r.NormFloat64() * math.Pow(10, float64(r.Intn(7)-3))
			}
		}
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
		b := NewVector(n)
		for i := range b {
			b[i] = r.NormFloat64()
		}
		x := NewVector(n)
		f.SolveInto(x, b)
		checkBits(t, "SolveInto", x, ref.solve(b))
		f.SolveTInto(x, b.Clone())
		checkBits(t, "SolveTInto", x, ref.solveT(b))
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
