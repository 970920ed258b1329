package markov

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/mat"
)

// sparseBanded builds a banded stochastic CSR chain (each state moves to
// itself or a neighbor), the sparsity shape of the paper's queue law.
func sparseBanded(n int, p float64) *mat.CSR {
	t := mat.NewTriplet(n, n)
	for i := 0; i < n; i++ {
		j := i + 1
		if j == n {
			j = 0
		}
		t.Add(i, i, 1-p)
		t.Add(i, j, p)
	}
	return t.ToCSR()
}

func TestNewCSRValidation(t *testing.T) {
	if _, err := NewCSR(mat.NewTriplet(2, 3).ToCSR(), 0); err == nil {
		t.Errorf("non-square CSR accepted")
	}
	bad := mat.NewTriplet(2, 2)
	bad.Add(0, 0, 0.5)
	bad.Add(0, 1, 0.4)
	bad.Add(1, 0, 1)
	if _, err := NewCSR(bad.ToCSR(), 0); err == nil {
		t.Errorf("non-stochastic CSR accepted")
	}
	c, err := NewCSR(sparseBanded(5, 0.3), 0)
	if err != nil {
		t.Fatalf("NewCSR: %v", err)
	}
	if c.N() != 5 || c.Sparse().NNZ() != 10 {
		t.Errorf("chain shape wrong: N=%d nnz=%d", c.N(), c.Sparse().NNZ())
	}
}

// TestSparseDenseChainAgreement: a chain built through NewCSR and the same
// chain built through New (dense) agree on every query.
func TestSparseDenseChainAgreement(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := 2 + r.Intn(8)
		d := mat.NewMatrix(n, n)
		for i := 0; i < n; i++ {
			row := d.Row(i)
			// Sparse rows: 1-3 nonzeros each.
			k := 1 + r.Intn(3)
			sum := 0.0
			for t := 0; t < k; t++ {
				j := r.Intn(n)
				row[j] += r.Float64() + 1e-3
			}
			for _, v := range row {
				sum += v
			}
			row.Scale(1 / sum)
		}
		dense := mustNew(d, 1e-9)
		sparse, err := NewCSR(mat.FromDense(d), 1e-9)
		if err != nil {
			return false
		}
		dist := mat.NewVector(n)
		dist[r.Intn(n)] = 1
		if sparse.Step(dist).MaxAbsDiff(dense.Step(dist)) > 1e-12 {
			return false
		}
		if sparse.Step(sparse.Step(sparse.Step(dist))).MaxAbsDiff(dense.Step(dense.Step(dense.Step(dist)))) > 1e-12 {
			return false
		}
		alpha := 0.5 + 0.49*r.Float64()
		cost := mat.NewVector(n)
		for i := range cost {
			cost[i] = r.Float64() * 10
		}
		vs, err1 := sparse.DiscountedValue(cost, alpha)
		vd, err2 := dense.DiscountedValue(cost, alpha)
		if err1 != nil || err2 != nil || vs.MaxAbsDiff(vd) > 1e-9 {
			return false
		}
		ys, err1 := sparse.DiscountedOccupancy(dist, alpha)
		yd, err2 := dense.DiscountedOccupancy(dist, alpha)
		if err1 != nil || err2 != nil || ys.MaxAbsDiff(yd) > 1e-9 {
			return false
		}
		ps, err1 := sparse.Stationary()
		pd, err2 := dense.Stationary()
		if err1 != nil || err2 != nil {
			// Reducible random chains may be singular either way; accept only
			// symmetric failure.
			return (err1 != nil) == (err2 != nil)
		}
		// Both must be genuine fixed points (they may differ on reducible
		// chains with several stationary distributions).
		return sparse.Step(ps).MaxAbsDiff(ps) < 1e-8 && dense.Step(pd).MaxAbsDiff(pd) < 1e-8
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

func TestStationarySparseBig(t *testing.T) {
	// A 200-state banded chain: the sparse path must handle it exactly; the
	// uniform distribution is stationary for the symmetric ring.
	n := 200
	c, err := NewCSR(sparseBanded(n, 0.3), 0)
	if err != nil {
		t.Fatalf("NewCSR: %v", err)
	}
	pi, err := c.Stationary()
	if err != nil {
		t.Fatalf("Stationary: %v", err)
	}
	for i, v := range pi {
		if math.Abs(v-1/float64(n)) > 1e-9 {
			t.Fatalf("pi[%d] = %g, want uniform %g", i, v, 1/float64(n))
		}
	}
}
