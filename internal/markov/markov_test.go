package markov

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/mat"
)

// mustNew is New for matrices the tests construct stochastic; it panics on
// error.
func mustNew(p *mat.Matrix, tol float64) *Chain {
	c, err := New(p, tol)
	if err != nil {
		panic(err)
	}
	return c
}

// twoState is the bursty SR of paper Example 3.2: P(1→1)=0.85, P(1→0)=0.15.
func twoState() *Chain {
	p := mat.FromRows([][]float64{
		{0.90, 0.10},
		{0.15, 0.85},
	})
	return mustNew(p, 0)
}

func randomChain(r *rand.Rand, n int) *Chain {
	p := mat.NewMatrix(n, n)
	for i := 0; i < n; i++ {
		row := p.Row(i)
		sum := 0.0
		for j := range row {
			row[j] = r.Float64() + 1e-3
			sum += row[j]
		}
		row.Scale(1 / sum)
	}
	return mustNew(p, 1e-9)
}

func TestNewRejectsBadMatrices(t *testing.T) {
	if _, err := New(mat.NewMatrix(2, 3), 0); err == nil {
		t.Errorf("non-square accepted")
	}
	bad := mat.FromRows([][]float64{{0.5, 0.4}, {1, 0}})
	if _, err := New(bad, 0); err == nil {
		t.Errorf("non-stochastic accepted")
	}
}

func TestStepAndEvolve(t *testing.T) {
	c := twoState()
	d0 := mat.Vector{1, 0}
	d1 := c.Step(d0)
	if math.Abs(d1[0]-0.90) > 1e-15 || math.Abs(d1[1]-0.10) > 1e-15 {
		t.Errorf("Step = %v", d1)
	}
	// Two steps: [0.9·0.9 + 0.1·0.15, 0.9·0.1 + 0.1·0.85].
	d2 := c.Step(d1)
	if d2.MaxAbsDiff(mat.Vector{0.825, 0.175}) > 1e-15 {
		t.Errorf("two steps = %v, want [0.825 0.175]", d2)
	}
	// Step must not mutate its input.
	if d0[0] != 1 || d0[1] != 0 {
		t.Errorf("Step mutated input: %v", d0)
	}
}

func TestStationaryTwoState(t *testing.T) {
	c := twoState()
	pi, err := c.Stationary()
	if err != nil {
		t.Fatalf("Stationary: %v", err)
	}
	// For flip probs a=0.10 (0→1) and b=0.15 (1→0): π = (b, a)/(a+b).
	want := mat.Vector{0.15 / 0.25, 0.10 / 0.25}
	if pi.MaxAbsDiff(want) > 1e-12 {
		t.Errorf("Stationary = %v, want %v", pi, want)
	}
	// Fixed point check.
	if c.Step(pi).MaxAbsDiff(pi) > 1e-12 {
		t.Errorf("stationary distribution is not a fixed point")
	}
}

func TestStationaryProperty(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		c := randomChain(r, 2+r.Intn(8))
		pi, err := c.Stationary()
		if err != nil {
			return false
		}
		if !pi.IsDistribution(1e-8) {
			return false
		}
		return c.Step(pi).MaxAbsDiff(pi) < 1e-8
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
		t.Error(err)
	}
}

func TestDiscountedValueMatchesSeries(t *testing.T) {
	c := twoState()
	cost := mat.Vector{1, 3}
	alpha := 0.9
	v, err := c.DiscountedValue(cost, alpha)
	if err != nil {
		t.Fatalf("DiscountedValue: %v", err)
	}
	// Power-series reference: v ≈ Σ_{t<T} αᵗ Pᵗ c.
	ref := mat.NewVector(2)
	d := mat.Matrix{Rows: 2, Cols: 2, Data: []float64{1, 0, 0, 1}}
	cur := &d
	scale := 1.0
	for step := 0; step < 400; step++ {
		ref.AddScaled(scale, cur.MulVec(cost))
		cur = cur.Mul(c.Sparse().Dense())
		scale *= alpha
	}
	if v.MaxAbsDiff(ref) > 1e-8 {
		t.Errorf("DiscountedValue = %v, series %v", v, ref)
	}
}

func TestDiscountedValueValidation(t *testing.T) {
	c := twoState()
	if _, err := c.DiscountedValue(mat.Vector{1, 2}, 1.0); err == nil {
		t.Errorf("alpha=1 accepted")
	}
	if _, err := c.DiscountedValue(mat.Vector{1}, 0.5); err == nil {
		t.Errorf("short cost vector accepted")
	}
}

func TestDiscountedOccupancySums(t *testing.T) {
	c := twoState()
	q0 := mat.Vector{1, 0}
	for _, alpha := range []float64{0, 0.5, 0.99, 0.99999} {
		y, err := c.DiscountedOccupancy(q0, alpha)
		if err != nil {
			t.Fatalf("alpha=%g: %v", alpha, err)
		}
		if math.Abs(y.Sum()-1) > 1e-8 {
			t.Errorf("alpha=%g: occupancy sums to %g", alpha, y.Sum())
		}
	}
	// alpha=0 occupancy is the initial distribution itself.
	y, _ := c.DiscountedOccupancy(q0, 0)
	if y.MaxAbsDiff(q0) > 1e-12 {
		t.Errorf("alpha=0 occupancy = %v, want %v", y, q0)
	}
}

func TestDiscountedOccupancyApproachesStationary(t *testing.T) {
	c := twoState()
	q0 := mat.Vector{1, 0}
	y, err := c.DiscountedOccupancy(q0, 1-1e-9)
	if err != nil {
		t.Fatalf("occupancy: %v", err)
	}
	pi, _ := c.Stationary()
	if y.MaxAbsDiff(pi) > 1e-6 {
		t.Errorf("occupancy at alpha→1 = %v, stationary %v", y, pi)
	}
}

// Property: occupancy-weighted cost equals (1-α)·q0·v where v is the
// discounted value vector — the identity connecting LP2's objective with the
// value formulation.
func TestOccupancyValueDuality(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := 2 + r.Intn(6)
		c := randomChain(r, n)
		alpha := 0.5 + 0.49*r.Float64()
		cost := mat.NewVector(n)
		q0 := mat.NewVector(n)
		for i := range cost {
			cost[i] = r.Float64() * 10
			q0[i] = r.Float64()
		}
		q0.Normalize()
		v, err := c.DiscountedValue(cost, alpha)
		if err != nil {
			return false
		}
		y, err := c.DiscountedOccupancy(q0, alpha)
		if err != nil {
			return false
		}
		lhs := y.Dot(cost)
		rhs := (1 - alpha) * q0.Dot(v)
		return math.Abs(lhs-rhs) < 1e-8*(1+math.Abs(rhs))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
		t.Error(err)
	}
}
