package markov

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/mat"
)

// twoState is the bursty SR of paper Example 3.2: P(1→1)=0.85, P(1→0)=0.15.
func twoState() *Chain {
	p := mat.FromRows([][]float64{
		{0.90, 0.10},
		{0.15, 0.85},
	})
	return MustNew(p, 0)
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
	return MustNew(p, 1e-9)
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

func TestMustNewPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Errorf("MustNew did not panic on bad input")
		}
	}()
	MustNew(mat.FromRows([][]float64{{0.3, 0.3}}), 0)
}

func TestStepAndEvolve(t *testing.T) {
	c := twoState()
	d0 := mat.Vector{1, 0}
	d1 := c.Step(d0)
	if math.Abs(d1[0]-0.90) > 1e-15 || math.Abs(d1[1]-0.10) > 1e-15 {
		t.Errorf("Step = %v", d1)
	}
	d2 := c.Evolve(d0, 2)
	want := c.Step(d1)
	if d2.MaxAbsDiff(want) > 1e-15 {
		t.Errorf("Evolve(2) = %v, want %v", d2, want)
	}
	// Evolve must not mutate the input.
	if d0[0] != 1 || d0[1] != 0 {
		t.Errorf("Evolve mutated input: %v", d0)
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

func TestExpectedHittingTimesGeometric(t *testing.T) {
	// Single transient state with exit probability p to target: E[T] = 1/p.
	p := 0.1
	m := mat.FromRows([][]float64{
		{1 - p, p},
		{0, 1},
	})
	c := MustNew(m, 0)
	h, err := c.ExpectedHittingTimes(map[int]bool{1: true})
	if err != nil {
		t.Fatalf("ExpectedHittingTimes: %v", err)
	}
	if math.Abs(h[0]-10) > 1e-9 {
		t.Errorf("h[0] = %g, want 10", h[0])
	}
	if h[1] != 0 {
		t.Errorf("h[target] = %g, want 0", h[1])
	}
}

func TestExpectedHittingTimesChain(t *testing.T) {
	// 0 → 1 → 2 deterministic: h = [2, 1, 0].
	m := mat.FromRows([][]float64{
		{0, 1, 0},
		{0, 0, 1},
		{0, 0, 1},
	})
	c := MustNew(m, 0)
	h, err := c.ExpectedHittingTimes(map[int]bool{2: true})
	if err != nil {
		t.Fatalf("ExpectedHittingTimes: %v", err)
	}
	if h.MaxAbsDiff(mat.Vector{2, 1, 0}) > 1e-12 {
		t.Errorf("h = %v, want [2 1 0]", h)
	}
}

func TestExpectedHittingTimesUnreachable(t *testing.T) {
	// State 0 never reaches state 1.
	m := mat.FromRows([][]float64{
		{1, 0},
		{0, 1},
	})
	c := MustNew(m, 0)
	if _, err := c.ExpectedHittingTimes(map[int]bool{1: true}); err == nil {
		t.Errorf("unreachable target did not error")
	}
}

func TestGeometricMeanTime(t *testing.T) {
	if got := GeometricMeanTime(0.25); got != 4 {
		t.Errorf("GeometricMeanTime(0.25) = %g, want 4", got)
	}
	defer func() {
		if recover() == nil {
			t.Errorf("GeometricMeanTime(0) did not panic")
		}
	}()
	GeometricMeanTime(0)
}

func TestAllTargetsHittingTime(t *testing.T) {
	c := twoState()
	h, err := c.ExpectedHittingTimes(map[int]bool{0: true, 1: true})
	if err != nil {
		t.Fatalf("ExpectedHittingTimes: %v", err)
	}
	if h[0] != 0 || h[1] != 0 {
		t.Errorf("h = %v, want zeros", h)
	}
}
