package mat

import (
	"math"
	"math/rand"
	"testing"
)

// randSparse builds a random n×n sparse matrix with a guaranteed nonzero
// diagonal (so it is almost surely nonsingular) and ~density off-diagonal
// fill, returned as a column accessor plus a dense copy for the reference
// factorization.
func randSparseLU(rng *rand.Rand, n int, density float64) (func(j int) ([]int, []float64), *Matrix) {
	d := NewMatrix(n, n)
	for j := 0; j < n; j++ {
		d.Set(j, j, 1+rng.Float64()*4)
		for i := 0; i < n; i++ {
			if i != j && rng.Float64() < density {
				d.Set(i, j, rng.NormFloat64())
			}
		}
	}
	col := func(j int) ([]int, []float64) {
		var rows []int
		var vals []float64
		for i := 0; i < n; i++ {
			if v := d.At(i, j); v != 0 {
				rows = append(rows, i)
				vals = append(vals, v)
			}
		}
		return rows, vals
	}
	return col, d
}

func maxDiff(a, b Vector) float64 {
	m := 0.0
	for i := range a {
		if d := math.Abs(a[i] - b[i]); d > m {
			m = d
		}
	}
	return m
}

// sparseSolveT returns the BTRAN solution y of Bᵀ y = c through f's
// SolveTInto, the entry point the simplex uses.
func sparseSolveT(f *SparseLU, c Vector) Vector {
	y := NewVector(len(c))
	f.SolveTInto(y, c)
	return y
}

// TestSparseLUParity holds SparseLU's Solve and SolveTInto to the dense LU on
// random sparse systems across sizes and densities.
func TestSparseLUParity(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, n := range []int{1, 2, 5, 17, 60, 150} {
		for _, density := range []float64{0.02, 0.1, 0.3} {
			col, d := randSparseLU(rng, n, density)
			sf, err := FactorColumns(n, col, 0.1)
			if err != nil {
				t.Fatalf("n=%d density=%g: FactorColumns: %v", n, density, err)
			}
			lu, err := Factor(d)
			if err != nil {
				t.Fatalf("n=%d density=%g: dense Factor: %v", n, density, err)
			}
			for trial := 0; trial < 3; trial++ {
				b := NewVector(n)
				for i := range b {
					b[i] = rng.NormFloat64()
				}
				if diff := maxDiff(sf.Solve(b), lu.Solve(b)); diff > 1e-8 {
					t.Errorf("n=%d density=%g: Solve diverges from dense LU by %g", n, density, diff)
				}
				if diff := maxDiff(sparseSolveT(sf, b), lu.SolveT(b)); diff > 1e-8 {
					t.Errorf("n=%d density=%g: SolveT diverges from dense LU by %g", n, density, diff)
				}
			}
			if sf.NNZ() <= 0 && n > 0 {
				t.Errorf("n=%d: NNZ() = %d, want positive", n, sf.NNZ())
			}
		}
	}
}

// TestSparseLUResidual checks B·x ≈ b directly (no dense reference), which
// also exercises the Markowitz ordering on larger systems.
func TestSparseLUResidual(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	n := 400
	col, d := randSparseLU(rng, n, 0.01)
	sf, err := FactorColumns(n, col, 0.1)
	if err != nil {
		t.Fatalf("FactorColumns: %v", err)
	}
	b := NewVector(n)
	for i := range b {
		b[i] = rng.NormFloat64()
	}
	x := sf.Solve(b)
	res := NewVector(n)
	for j := 0; j < n; j++ {
		for i := 0; i < n; i++ {
			res[i] += d.At(i, j) * x[j]
		}
	}
	if diff := maxDiff(res, b); diff > 1e-8 {
		t.Errorf("residual ‖Bx−b‖∞ = %g, want ≤ 1e-8", diff)
	}
}

// TestSparseLUUpdateEquivalence is the Forrest–Tomlin property test: after k
// column-replacement updates, Solve/SolveT must match a fresh factorization
// of the updated matrix to 1e-8.
func TestSparseLUUpdateEquivalence(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for _, n := range []int{5, 25, 80} {
		for _, k := range []int{1, 3, 10} {
			col, d := randSparseLU(rng, n, 0.15)
			sf, err := FactorColumns(n, col, 0.1)
			if err != nil {
				t.Fatalf("n=%d: FactorColumns: %v", n, err)
			}
			for u := 0; u < k; u++ {
				slot := rng.Intn(n)
				// A fresh sparse column: diagonal-dominant at the slot so
				// the updated matrix stays comfortably nonsingular.
				var rows []int
				var vals []float64
				for i := 0; i < n; i++ {
					switch {
					case i == slot:
						rows = append(rows, i)
						vals = append(vals, 2+rng.Float64()*3)
					case rng.Float64() < 0.2:
						rows = append(rows, i)
						vals = append(vals, rng.NormFloat64())
					}
				}
				for i := 0; i < n; i++ {
					d.Set(i, slot, 0)
				}
				for idx, r := range rows {
					d.Set(r, slot, vals[idx])
				}
				if err := sf.Update(slot, rows, vals); err != nil {
					t.Fatalf("n=%d k=%d update %d: %v", n, k, u, err)
				}
			}
			if got := sf.Updates(); got != k {
				t.Errorf("n=%d: Updates() = %d, want %d", n, got, k)
			}
			fresh, err := Factor(d)
			if err != nil {
				t.Fatalf("n=%d: fresh Factor after updates: %v", n, err)
			}
			for trial := 0; trial < 3; trial++ {
				b := NewVector(n)
				for i := range b {
					b[i] = rng.NormFloat64()
				}
				if diff := maxDiff(sf.Solve(b), fresh.Solve(b)); diff > 1e-8 {
					t.Errorf("n=%d k=%d: updated Solve diverges from fresh factorization by %g", n, k, diff)
				}
				if diff := maxDiff(sparseSolveT(sf, b), fresh.SolveT(b)); diff > 1e-8 {
					t.Errorf("n=%d k=%d: updated SolveT diverges from fresh factorization by %g", n, k, diff)
				}
			}
		}
	}
}

// TestSparseLUUpdateSameSlotRepeated replaces the same column repeatedly —
// the stress case for the lazy column-structure maintenance.
func TestSparseLUUpdateSameSlotRepeated(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	n := 30
	col, d := randSparseLU(rng, n, 0.2)
	sf, err := FactorColumns(n, col, 0.1)
	if err != nil {
		t.Fatalf("FactorColumns: %v", err)
	}
	slot := 7
	for u := 0; u < 6; u++ {
		var rows []int
		var vals []float64
		for i := 0; i < n; i++ {
			if i == slot || rng.Float64() < 0.3 {
				rows = append(rows, i)
				v := rng.NormFloat64()
				if i == slot {
					v = 3 + rng.Float64()
				}
				rows = rows[:len(rows)]
				vals = append(vals, v)
			}
		}
		for i := 0; i < n; i++ {
			d.Set(i, slot, 0)
		}
		for idx, r := range rows {
			d.Set(r, slot, vals[idx])
		}
		if err := sf.Update(slot, rows, vals); err != nil {
			t.Fatalf("update %d: %v", u, err)
		}
	}
	fresh, err := Factor(d)
	if err != nil {
		t.Fatalf("fresh Factor: %v", err)
	}
	b := NewVector(n)
	for i := range b {
		b[i] = rng.NormFloat64()
	}
	if diff := maxDiff(sf.Solve(b), fresh.Solve(b)); diff > 1e-8 {
		t.Errorf("Solve diverges from fresh factorization by %g", diff)
	}
	if diff := maxDiff(sparseSolveT(sf, b), fresh.SolveT(b)); diff > 1e-8 {
		t.Errorf("SolveT diverges from fresh factorization by %g", diff)
	}
}

// TestSparseLUSingular verifies singular inputs are rejected rather than
// factored into garbage.
func TestSparseLUSingular(t *testing.T) {
	// A structurally empty column.
	n := 4
	cols := [][]float64{{1, 0, 0, 0}, {0, 0, 0, 0}, {0, 0, 1, 0}, {0, 0, 0, 1}}
	col := func(j int) ([]int, []float64) {
		var rows []int
		var vals []float64
		for i, v := range cols[j] {
			if v != 0 {
				rows = append(rows, i)
				vals = append(vals, v)
			}
		}
		return rows, vals
	}
	if _, err := FactorColumns(n, col, 0.1); err == nil {
		t.Error("FactorColumns accepted a matrix with an empty column")
	}
	// Two identical columns.
	cols = [][]float64{{1, 2, 0, 0}, {1, 2, 0, 0}, {0, 0, 1, 0}, {0, 0, 0, 1}}
	if _, err := FactorColumns(n, col, 0.1); err == nil {
		t.Error("FactorColumns accepted a rank-deficient matrix")
	}
}
