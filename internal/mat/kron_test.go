package mat

import (
	"math/rand"
	"testing"
)

// denseKron is the O(everything) reference: the textbook Kronecker product
// on dense matrices.
func denseKron(a, b *Matrix) *Matrix {
	out := NewMatrix(a.Rows*b.Rows, a.Cols*b.Cols)
	for ia := 0; ia < a.Rows; ia++ {
		for ja := 0; ja < a.Cols; ja++ {
			v := a.At(ia, ja)
			if v == 0 {
				continue
			}
			for ib := 0; ib < b.Rows; ib++ {
				for jb := 0; jb < b.Cols; jb++ {
					out.Set(ia*b.Rows+ib, ja*b.Cols+jb, v*b.At(ib, jb))
				}
			}
		}
	}
	return out
}

// randSparse returns an r×c matrix with the given fill probability.
func randSparse(rng *rand.Rand, r, c int, fill float64) *Matrix {
	m := NewMatrix(r, c)
	for i := 0; i < r; i++ {
		for j := 0; j < c; j++ {
			if rng.Float64() < fill {
				m.Set(i, j, rng.NormFloat64())
			}
		}
	}
	return m
}

func TestKronMatchesDense(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 25; trial++ {
		a := randSparse(rng, 1+rng.Intn(5), 1+rng.Intn(5), 0.4)
		b := randSparse(rng, 1+rng.Intn(5), 1+rng.Intn(5), 0.4)
		got := KronAll(FromDense(a), FromDense(b))
		want := denseKron(a, b)
		if got.Rows() != want.Rows || got.Cols() != want.Cols {
			t.Fatalf("trial %d: shape %dx%d, want %dx%d", trial, got.Rows(), got.Cols(), want.Rows, want.Cols)
		}
		if d := got.Dense().MaxAbsDiff(want); d > 1e-14 {
			t.Fatalf("trial %d: max abs diff %g", trial, d)
		}
		checkCSRWellFormed(t, got)
	}
}

func TestKronAllMatchesPairwiseFold(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 20; trial++ {
		k := 2 + rng.Intn(3)
		dense := make([]*Matrix, k)
		sparse := make([]*CSR, k)
		for i := range dense {
			dense[i] = randSparse(rng, 1+rng.Intn(4), 1+rng.Intn(4), 0.5)
			sparse[i] = FromDense(dense[i])
		}
		got := KronAll(sparse...)
		fold := dense[0]
		for i := 1; i < k; i++ {
			fold = denseKron(fold, dense[i])
		}
		if d := got.Dense().MaxAbsDiff(fold); d > 1e-14 {
			t.Fatalf("trial %d (k=%d): KronAll vs pairwise dense fold diff %g", trial, k, d)
		}
		checkCSRWellFormed(t, got)
	}
}

func TestKronAllSingleFactorClones(t *testing.T) {
	a := FromDense(FromRows([][]float64{{1, 0}, {0.5, 0.5}}))
	got := KronAll(a)
	if d := got.MaxAbsDiff(a); d != 0 {
		t.Fatalf("single-factor KronAll diff %g", d)
	}
	got.vals[0] *= 2
	if a.At(0, 0) != 1 {
		t.Fatal("KronAll(single) aliases its input")
	}
}

func TestKronStochasticFactorsStayStochastic(t *testing.T) {
	// Products of row-stochastic factors are row-stochastic — the property
	// the composite compiler relies on.
	a := FromDense(FromRows([][]float64{{0.9, 0.1}, {0.3, 0.7}}))
	b := FromDense(FromRows([][]float64{{1, 0, 0}, {0.05, 0, 0.95}, {0, 0.5, 0.5}}))
	c := FromDense(FromRows([][]float64{{0.2, 0.8}, {0, 1}}))
	p := KronAll(a, b, c)
	if err := p.CheckStochastic(1e-12); err != nil {
		t.Fatalf("Kronecker of stochastic factors not stochastic: %v", err)
	}
	if p.Rows() != 12 || p.Cols() != 12 {
		t.Fatalf("shape %dx%d, want 12x12", p.Rows(), p.Cols())
	}
}

func TestKronPanics(t *testing.T) {
	for name, fn := range map[string]func(){
		"no factors":  func() { KronAll() },
		"nil factor":  func() { KronAll(nil, nil) },
		"nil in list": func() { KronAll(FromDense(NewMatrix(2, 2)), nil) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: no panic", name)
				}
			}()
			fn()
		}()
	}
}

// checkCSRWellFormed verifies the structural CSR invariants the direct
// assembly promises: monotone row pointers and strictly increasing columns
// within each row.
func checkCSRWellFormed(t *testing.T, m *CSR) {
	t.Helper()
	if m.rowPtr[0] != 0 || m.rowPtr[m.rows] != len(m.vals) {
		t.Fatalf("rowPtr endpoints %d..%d, want 0..%d", m.rowPtr[0], m.rowPtr[m.rows], len(m.vals))
	}
	for i := 0; i < m.rows; i++ {
		if m.rowPtr[i] > m.rowPtr[i+1] {
			t.Fatalf("rowPtr decreases at row %d", i)
		}
		cols, _ := m.RowNZ(i)
		for k := 1; k < len(cols); k++ {
			if cols[k] <= cols[k-1] {
				t.Fatalf("row %d columns not strictly increasing: %v", i, cols)
			}
		}
		for _, j := range cols {
			if j < 0 || j >= m.cols {
				t.Fatalf("row %d column %d outside [0,%d)", i, j, m.cols)
			}
		}
	}
}
