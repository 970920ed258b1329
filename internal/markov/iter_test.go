package markov

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/mat"
)

// randChain returns a well-connected random stochastic chain: every row
// mixes a random sparse row with a small uniform component, so the chain is
// irreducible and aperiodic and both solve paths are well-posed.
func randChain(t *testing.T, rng *rand.Rand, n int) *Chain {
	t.Helper()
	m := mat.NewMatrix(n, n)
	for i := 0; i < n; i++ {
		row := m.Row(i)
		d := 1 + rng.Intn(3)
		sum := 0.0
		for k := 0; k < d; k++ {
			row[rng.Intn(n)] += rng.Float64() + 0.05
		}
		for _, v := range row {
			sum += v
		}
		for j := range row {
			row[j] = 0.9*row[j]/sum + 0.1/float64(n)
		}
	}
	c, err := New(m, 1e-9)
	if err != nil {
		t.Fatalf("randChain: %v", err)
	}
	return c
}

func maxAbsDiff(a, b mat.Vector) float64 {
	d := 0.0
	for i := range a {
		if x := math.Abs(a[i] - b[i]); x > d {
			d = x
		}
	}
	return d
}

// TestStationaryIterMatchesDirect: damped power iteration agrees with the
// dense-LU balance solve to 1e-8 on seeded random chains.
func TestStationaryIterMatchesDirect(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	for trial := 0; trial < 10; trial++ {
		c := randChain(t, rng, 2+rng.Intn(40))
		direct, err := c.stationaryDirect()
		if err != nil {
			t.Fatalf("direct: %v", err)
		}
		iter, err := c.StationaryIter(0, 0)
		if err != nil {
			t.Fatalf("iterative: %v", err)
		}
		if d := maxAbsDiff(direct, iter); d > 1e-8 {
			t.Fatalf("trial %d: stationary paths differ by %g", trial, d)
		}
	}
}

// TestStationaryIterPeriodicChain: the ½ damping handles the 2-cycle, whose
// undamped power iteration oscillates forever.
func TestStationaryIterPeriodicChain(t *testing.T) {
	m := mat.NewMatrix(2, 2)
	m.Set(0, 1, 1)
	m.Set(1, 0, 1)
	c := mustNew(m, 0)
	pi, err := c.StationaryIter(0, 0)
	if err != nil {
		t.Fatalf("StationaryIter: %v", err)
	}
	if math.Abs(pi[0]-0.5) > 1e-9 || math.Abs(pi[1]-0.5) > 1e-9 {
		t.Fatalf("periodic chain stationary = %v, want [0.5 0.5]", pi)
	}
}

// TestDiscountedValueIterMatchesDirect to 1e-8 across random chains and
// discount factors.
func TestDiscountedValueIterMatchesDirect(t *testing.T) {
	rng := rand.New(rand.NewSource(22))
	for trial := 0; trial < 10; trial++ {
		n := 2 + rng.Intn(30)
		c := randChain(t, rng, n)
		cost := mat.NewVector(n)
		for i := range cost {
			cost[i] = rng.NormFloat64()
		}
		alpha := 0.5 + 0.45*rng.Float64()
		direct, err := c.discountedValueDirect(cost, alpha)
		if err != nil {
			t.Fatalf("direct: %v", err)
		}
		iter, err := c.DiscountedValueIter(cost, alpha, 1e-10, 0)
		if err != nil {
			t.Fatalf("iterative: %v", err)
		}
		if d := maxAbsDiff(direct, iter); d > 1e-8 {
			t.Fatalf("trial %d (α=%g): value paths differ by %g", trial, alpha, d)
		}
	}
}

// TestDiscountedOccupancyIterMatchesDirect to 1e-8, including Σy = 1.
func TestDiscountedOccupancyIterMatchesDirect(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	for trial := 0; trial < 10; trial++ {
		n := 2 + rng.Intn(30)
		c := randChain(t, rng, n)
		q0 := mat.NewVector(n)
		for i := range q0 {
			q0[i] = rng.Float64()
		}
		q0.Normalize()
		alpha := 0.5 + 0.45*rng.Float64()
		direct, err := c.discountedOccupancyDirect(q0, alpha)
		if err != nil {
			t.Fatalf("direct: %v", err)
		}
		iter, err := c.DiscountedOccupancyIter(q0, alpha, 1e-10, 0)
		if err != nil {
			t.Fatalf("iterative: %v", err)
		}
		if d := maxAbsDiff(direct, iter); d > 1e-8 {
			t.Fatalf("trial %d (α=%g): occupancy paths differ by %g", trial, alpha, d)
		}
		if s := iter.Sum(); math.Abs(s-1) > 1e-8 {
			t.Fatalf("trial %d: iterative occupancy sums to %g", trial, s)
		}
	}
}

// TestDispatchThreshold: above directLimit the default entry points route to
// the iterative path and still agree with the direct oracle.
func TestDispatchThreshold(t *testing.T) {
	rng := rand.New(rand.NewSource(24))
	c := randChain(t, rng, 12)
	old := directLimit
	directLimit = 4 // force the iterative path through the public API
	defer func() { directLimit = old }()

	direct, err := c.stationaryDirect()
	if err != nil {
		t.Fatalf("direct: %v", err)
	}
	pi, err := c.Stationary()
	if err != nil {
		t.Fatalf("Stationary: %v", err)
	}
	if d := maxAbsDiff(direct, pi); d > 1e-8 {
		t.Fatalf("dispatched stationary differs by %g", d)
	}

	q0 := mat.NewVector(c.N())
	q0[0] = 1
	wantOcc, err := c.discountedOccupancyDirect(q0, 0.9)
	if err != nil {
		t.Fatalf("direct occupancy: %v", err)
	}
	occ, err := c.DiscountedOccupancy(q0, 0.9)
	if err != nil {
		t.Fatalf("DiscountedOccupancy: %v", err)
	}
	if d := maxAbsDiff(wantOcc, occ); d > 1e-8 {
		t.Fatalf("dispatched occupancy differs by %g", d)
	}

	// A discount too stiff for the iteration budget falls back to the
	// direct solve on explicit chains rather than erroring.
	stiffAlpha := 1 - 1e-9
	v, err := c.DiscountedValue(q0, stiffAlpha)
	if err != nil {
		t.Fatalf("stiff DiscountedValue: %v", err)
	}
	wantV, err := c.discountedValueDirect(q0, stiffAlpha)
	if err != nil {
		t.Fatalf("direct stiff value: %v", err)
	}
	if d := maxAbsDiff(wantV, v); d > 1e-6*(1/(1-stiffAlpha)) {
		t.Fatalf("stiff value fallback differs by %g", d)
	}
}

// TestNewOpMatrixFree: a Chain over a lazy Kronecker operator answers the
// iterative queries without any expanded CSR, matching the expanded chain.
func TestNewOpMatrixFree(t *testing.T) {
	rng := rand.New(rand.NewSource(25))
	mkFactor := func(n int) *mat.CSR {
		d := mat.NewMatrix(n, n)
		for i := 0; i < n; i++ {
			row := d.Row(i)
			for j := range row {
				row[j] = rng.Float64() + 0.05
			}
			mat.Vector(row).Normalize()
		}
		return mat.FromDense(d)
	}
	a, b := mkFactor(4), mkFactor(3)
	lazy, err := NewOp(mat.NewKronOp(a, b), 0)
	if err != nil {
		t.Fatalf("NewOp: %v", err)
	}
	if lazy.Sparse() != nil {
		t.Fatalf("matrix-free chain exposes a CSR")
	}
	expanded, err := NewCSR(mat.KronAll(a, b), 0)
	if err != nil {
		t.Fatalf("NewCSR: %v", err)
	}

	piLazy, err := lazy.Stationary()
	if err != nil {
		t.Fatalf("lazy stationary: %v", err)
	}
	piExp, err := expanded.stationaryDirect()
	if err != nil {
		t.Fatalf("expanded stationary: %v", err)
	}
	if d := maxAbsDiff(piLazy, piExp); d > 1e-8 {
		t.Fatalf("lazy vs expanded stationary differ by %g", d)
	}

	n := lazy.N()
	cost := mat.NewVector(n)
	for i := range cost {
		cost[i] = rng.NormFloat64()
	}
	vLazy, err := lazy.DiscountedValue(cost, 0.9)
	if err != nil {
		t.Fatalf("lazy value: %v", err)
	}
	vExp, err := expanded.discountedValueDirect(cost, 0.9)
	if err != nil {
		t.Fatalf("expanded value: %v", err)
	}
	if d := maxAbsDiff(vLazy, vExp); d > 1e-8 {
		t.Fatalf("lazy vs expanded value differ by %g", d)
	}
}
