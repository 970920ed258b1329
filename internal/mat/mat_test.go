package mat

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestVectorBasics(t *testing.T) {
	v := Vector{1, 2, 3}
	if got := v.Sum(); got != 6 {
		t.Errorf("Sum = %g, want 6", got)
	}
	w := Vector{4, 5, 6}
	if got := v.Dot(w); got != 32 {
		t.Errorf("Dot = %g, want 32", got)
	}
	c := v.Clone()
	c[0] = 99
	if v[0] != 1 {
		t.Errorf("Clone aliases original")
	}
	if got := w.Max(); got != 6 {
		t.Errorf("Max = %g, want 6", got)
	}
}

func TestVectorEmptyExtremes(t *testing.T) {
	var v Vector
	if !math.IsInf(v.Max(), -1) {
		t.Errorf("empty Max = %g, want -Inf", v.Max())
	}
}

func TestVectorScaleAddScaled(t *testing.T) {
	v := Vector{1, 2}
	v.Scale(3)
	if v[0] != 3 || v[1] != 6 {
		t.Errorf("Scale got %v", v)
	}
	v.AddScaled(2, Vector{1, 1})
	if v[0] != 5 || v[1] != 8 {
		t.Errorf("AddScaled got %v", v)
	}
}

func TestNormalize(t *testing.T) {
	v := Vector{1, 3}
	v.Normalize()
	if math.Abs(v[0]-0.25) > 1e-15 || math.Abs(v[1]-0.75) > 1e-15 {
		t.Errorf("Normalize got %v", v)
	}
	defer func() {
		if recover() == nil {
			t.Errorf("Normalize of zero vector did not panic")
		}
	}()
	Vector{0, 0}.Normalize()
}

func TestIsDistribution(t *testing.T) {
	cases := []struct {
		v    Vector
		want bool
	}{
		{Vector{0.5, 0.5}, true},
		{Vector{1}, true},
		{Vector{0.6, 0.6}, false},
		{Vector{-0.1, 1.1}, false},
		{Vector{0.5, math.NaN()}, false},
		{Vector{0.3, 0.3, 0.4}, true},
	}
	for i, c := range cases {
		if got := c.v.IsDistribution(0); got != c.want {
			t.Errorf("case %d: IsDistribution(%v) = %v, want %v", i, c.v, got, c.want)
		}
	}
}

func TestMatrixBasics(t *testing.T) {
	m := FromRows([][]float64{{1, 2}, {3, 4}})
	if m.At(1, 0) != 3 {
		t.Fatalf("At(1,0) = %g", m.At(1, 0))
	}
	m.Set(1, 0, 7)
	if m.At(1, 0) != 7 {
		t.Fatalf("Set failed")
	}
	m.Add(1, 0, 1)
	if m.At(1, 0) != 8 {
		t.Fatalf("Add failed")
	}
	tr := m.T()
	if tr.At(0, 1) != 8 {
		t.Fatalf("T failed: %v", tr)
	}
}

func TestMatrixMulVec(t *testing.T) {
	m := FromRows([][]float64{{1, 2}, {3, 4}})
	got := m.MulVec(Vector{1, 1})
	if got[0] != 3 || got[1] != 7 {
		t.Errorf("MulVec = %v, want [3 7]", got)
	}
	got = m.VecMul(Vector{1, 1})
	if got[0] != 4 || got[1] != 6 {
		t.Errorf("VecMul = %v, want [4 6]", got)
	}
}

func TestMatrixMul(t *testing.T) {
	a := FromRows([][]float64{{1, 2}, {3, 4}})
	b := FromRows([][]float64{{5, 6}, {7, 8}})
	c := a.Mul(b)
	want := FromRows([][]float64{{19, 22}, {43, 50}})
	if c.MaxAbsDiff(want) > 1e-15 {
		t.Errorf("Mul = %v, want %v", c, want)
	}
	id := FromRows([][]float64{{1, 0}, {0, 1}})
	if a.Mul(id).MaxAbsDiff(a) != 0 {
		t.Errorf("A*I != A")
	}
	if id.Mul(a).MaxAbsDiff(a) != 0 {
		t.Errorf("I*A != A")
	}
}

func TestStochasticChecks(t *testing.T) {
	good := FromRows([][]float64{{0.2, 0.8}, {1, 0}})
	if err := good.CheckStochastic(0); err != nil {
		t.Errorf("CheckStochastic(good) = %v", err)
	}
	badSum := FromRows([][]float64{{0.2, 0.7}})
	if err := badSum.CheckStochastic(0); err == nil {
		t.Errorf("CheckStochastic(badSum) = nil, want error")
	}
	badNeg := FromRows([][]float64{{-0.2, 1.2}})
	if err := badNeg.CheckStochastic(0); err == nil {
		t.Errorf("CheckStochastic(badNeg) = nil, want error")
	}
}

func TestSolveKnown(t *testing.T) {
	a := FromRows([][]float64{
		{2, 1, -1},
		{-3, -1, 2},
		{-2, 1, 2},
	})
	b := Vector{8, -11, -3}
	x, err := Solve(a, b)
	if err != nil {
		t.Fatalf("Solve: %v", err)
	}
	want := Vector{2, 3, -1}
	if x.MaxAbsDiff(want) > 1e-12 {
		t.Errorf("Solve = %v, want %v", x, want)
	}
}

func TestSolveSingular(t *testing.T) {
	a := FromRows([][]float64{{1, 2}, {2, 4}})
	if _, err := Solve(a, Vector{1, 2}); err != ErrSingular {
		t.Errorf("Solve(singular) err = %v, want ErrSingular", err)
	}
}

func TestSolveNeedsPivoting(t *testing.T) {
	// Zero on the diagonal forces a row swap.
	a := FromRows([][]float64{{0, 1}, {1, 0}})
	x, err := Solve(a, Vector{3, 5})
	if err != nil {
		t.Fatalf("Solve: %v", err)
	}
	if x.MaxAbsDiff(Vector{5, 3}) > 1e-14 {
		t.Errorf("Solve = %v, want [5 3]", x)
	}
}

func TestSolveT(t *testing.T) {
	a := FromRows([][]float64{{1, 2}, {0, 1}})
	// Aᵀ = [[1,0],[2,1]]; Aᵀx = [1, 4] → x = [1, 2].
	f, err := Factor(a)
	if err != nil {
		t.Fatalf("Factor: %v", err)
	}
	x := f.SolveT(Vector{1, 4})
	if x.MaxAbsDiff(Vector{1, 2}) > 1e-14 {
		t.Errorf("SolveT = %v, want [1 2]", x)
	}
}

// randomWellConditioned builds a diagonally dominant random matrix, which is
// guaranteed nonsingular.
func randomWellConditioned(rng *rand.Rand, n int) *Matrix {
	a := NewMatrix(n, n)
	for i := 0; i < n; i++ {
		rowSum := 0.0
		for j := 0; j < n; j++ {
			if i == j {
				continue
			}
			v := rng.NormFloat64()
			a.Set(i, j, v)
			rowSum += math.Abs(v)
		}
		a.Set(i, i, rowSum+1+rng.Float64())
	}
	return a
}

// Property: for random nonsingular A and x, Solve(A, A*x) recovers x.
func TestSolveRoundTripProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := 1 + r.Intn(12)
		a := randomWellConditioned(r, n)
		x := NewVector(n)
		for i := range x {
			x[i] = r.NormFloat64()
		}
		b := a.MulVec(x)
		got, err := Solve(a, b)
		if err != nil {
			return false
		}
		return got.MaxAbsDiff(x) < 1e-8
	}
	cfg := &quick.Config{MaxCount: 60, Rand: rng}
	if err := quick.Check(f, cfg); err != nil {
		t.Error(err)
	}
}

// Property: (A*B)ᵀ == Bᵀ*Aᵀ for random matrices.
func TestTransposeProductProperty(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n, m, p := 1+r.Intn(6), 1+r.Intn(6), 1+r.Intn(6)
		a, b := NewMatrix(n, m), NewMatrix(m, p)
		for i := range a.Data {
			a.Data[i] = r.NormFloat64()
		}
		for i := range b.Data {
			b.Data[i] = r.NormFloat64()
		}
		lhs := a.Mul(b).T()
		rhs := b.T().Mul(a.T())
		return lhs.MaxAbsDiff(rhs) < 1e-10
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

// Property: VecMul and MulVec agree with the transpose definition.
func TestVecMulTransposeProperty(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n, m := 1+r.Intn(8), 1+r.Intn(8)
		a := NewMatrix(n, m)
		for i := range a.Data {
			a.Data[i] = r.NormFloat64()
		}
		v := NewVector(n)
		for i := range v {
			v[i] = r.NormFloat64()
		}
		lhs := a.VecMul(v)
		rhs := a.T().MulVec(v)
		return lhs.MaxAbsDiff(rhs) < 1e-12
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

func TestAddMatrixScaled(t *testing.T) {
	a := FromRows([][]float64{{1, 2}})
	b := FromRows([][]float64{{10, 20}})
	a.AddMatrixScaled(0.5, b)
	if a.At(0, 0) != 6 || a.At(0, 1) != 12 {
		t.Errorf("AddMatrixScaled got %v", a)
	}
}

func TestStringSmoke(t *testing.T) {
	m := FromRows([][]float64{{1, 0.5}})
	if s := m.String(); len(s) == 0 {
		t.Errorf("String returned empty")
	}
}
