package mat

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

// randomDense builds a random r×c matrix with the given fill fraction.
func randomDense(r *rand.Rand, rows, cols int, fill float64) *Matrix {
	m := NewMatrix(rows, cols)
	for i := range m.Data {
		if r.Float64() < fill {
			m.Data[i] = r.NormFloat64()
		}
	}
	return m
}

func TestTripletDuplicatesAndZeros(t *testing.T) {
	tr := NewTriplet(2, 3)
	tr.Add(0, 2, 1.5)
	tr.Add(0, 2, 0.5) // duplicate: sums to 2
	tr.Add(1, 0, 3)
	tr.Add(1, 0, -3) // cancels to zero: dropped
	tr.Add(1, 1, 0)  // explicit zero: dropped
	tr.Add(0, 0, 4)
	m := tr.ToCSR()
	if m.NNZ() != 2 {
		t.Fatalf("NNZ = %d, want 2", m.NNZ())
	}
	if m.At(0, 2) != 2 || m.At(0, 0) != 4 || m.At(1, 0) != 0 || m.At(1, 1) != 0 {
		t.Errorf("compressed values wrong: %v", m.Dense())
	}
	// Columns sorted within the row.
	cols, _ := m.RowNZ(0)
	if len(cols) != 2 || cols[0] != 0 || cols[1] != 2 {
		t.Errorf("row 0 columns = %v, want [0 2]", cols)
	}
}

func TestTripletOutOfRangePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Errorf("out-of-range Add did not panic")
		}
	}()
	NewTriplet(2, 2).Add(2, 0, 1)
}

func TestFromDenseRoundTrip(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	for trial := 0; trial < 50; trial++ {
		rows, cols := 1+r.Intn(8), 1+r.Intn(8)
		d := randomDense(r, rows, cols, 0.4)
		s := FromDense(d)
		if s.Dense().MaxAbsDiff(d) != 0 {
			t.Fatalf("trial %d: FromDense/Dense round trip differs", trial)
		}
		if s.Rows() != rows || s.Cols() != cols {
			t.Fatalf("trial %d: dims %dx%d, want %dx%d", trial, s.Rows(), s.Cols(), rows, cols)
		}
		// At agrees entrywise.
		for i := 0; i < rows; i++ {
			for j := 0; j < cols; j++ {
				if s.At(i, j) != d.At(i, j) {
					t.Fatalf("trial %d: At(%d,%d) = %g, want %g", trial, i, j, s.At(i, j), d.At(i, j))
				}
			}
		}
	}
}

func TestSparseProductsMatchDense(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		rows, cols := 1+r.Intn(10), 1+r.Intn(10)
		d := randomDense(r, rows, cols, 0.3)
		s := FromDense(d)
		x := NewVector(cols)
		y := NewVector(rows)
		for i := range x {
			x[i] = r.NormFloat64()
		}
		for i := range y {
			y[i] = r.NormFloat64()
		}
		if s.MulVec(x).MaxAbsDiff(d.MulVec(x)) > 1e-12 {
			return false
		}
		if s.VecMul(y).MaxAbsDiff(d.VecMul(y)) > 1e-12 {
			return false
		}
		// Row dot against the dense row.
		for i := 0; i < rows; i++ {
			if math.Abs(s.RowDot(i, x)-d.Row(i).Dot(x)) > 1e-12 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
		t.Error(err)
	}
}

func TestSparseTranspose(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		d := randomDense(r, 1+r.Intn(8), 1+r.Intn(8), 0.35)
		s := FromDense(d)
		return s.T().Dense().MaxAbsDiff(d.T()) == 0 &&
			s.T().T().Dense().MaxAbsDiff(d) == 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

func TestCSCMirrorsCSR(t *testing.T) {
	r := rand.New(rand.NewSource(5))
	d := randomDense(r, 6, 4, 0.4)
	src := FromDense(d)
	tr := src.T()
	c := NewCSC(6, 4, tr.rowPtr, tr.colIdx, tr.vals)
	if c.NNZ() != src.NNZ() {
		t.Fatalf("CSC has %d nonzeros, source %d", c.NNZ(), src.NNZ())
	}
	x := NewVector(6)
	for i := range x {
		x[i] = r.NormFloat64()
	}
	for j := 0; j < 4; j++ {
		wantRows, wantVals := 0, 0.0
		for i := 0; i < 6; i++ {
			if d.At(i, j) != 0 {
				wantRows++
				wantVals += d.At(i, j) * x[i]
			}
		}
		rowsNZ, vals := c.ColNZ(j)
		if len(rowsNZ) != wantRows {
			t.Errorf("col %d: %d nonzeros, want %d", j, len(rowsNZ), wantRows)
		}
		for k, i := range rowsNZ {
			if k > 0 && i <= rowsNZ[k-1] {
				t.Errorf("col %d: rows not strictly increasing: %v", j, rowsNZ)
			}
			if vals[k] != d.At(i, j) {
				t.Errorf("col %d row %d: %g, want %g", j, i, vals[k], d.At(i, j))
			}
		}
		if math.Abs(c.ColDot(j, x)-wantVals) > 1e-12 {
			t.Errorf("col %d: ColDot = %g, want %g", j, c.ColDot(j, x), wantVals)
		}
	}
}

func TestSparseMaxAbsDiff(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		rows, cols := 1+r.Intn(6), 1+r.Intn(6)
		a := randomDense(r, rows, cols, 0.4)
		b := randomDense(r, rows, cols, 0.4)
		want := a.MaxAbsDiff(b)
		got := FromDense(a).MaxAbsDiff(FromDense(b))
		return math.Abs(got-want) < 1e-15
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
		t.Error(err)
	}
}

func TestSparseCheckStochastic(t *testing.T) {
	good := FromDense(FromRows([][]float64{
		{0.5, 0.5, 0},
		{0, 0, 1},
		{0.2, 0.3, 0.5},
	}))
	if err := good.CheckStochastic(0); err != nil {
		t.Errorf("valid stochastic rejected: %v", err)
	}
	badSum := FromDense(FromRows([][]float64{{0.5, 0.4}, {1, 0}}))
	if badSum.CheckStochastic(0) == nil {
		t.Errorf("row summing to 0.9 accepted")
	}
	badEntry := FromDense(FromRows([][]float64{{1.5, -0.5}, {1, 0}}))
	if badEntry.CheckStochastic(0) == nil {
		t.Errorf("entry outside [0,1] accepted")
	}
	// All-zero row (implicit zeros only) sums to 0, not 1.
	zeroRow := NewTriplet(2, 2)
	zeroRow.Add(0, 0, 1)
	if zeroRow.ToCSR().CheckStochastic(0) == nil {
		t.Errorf("empty row accepted as a distribution")
	}
}

func TestSparseCloneAndScale(t *testing.T) {
	r := rand.New(rand.NewSource(9))
	d := randomDense(r, 5, 5, 0.4)
	s := FromDense(d)
	c := s.Clone()
	if c.Dense().MaxAbsDiff(d) != 0 {
		t.Errorf("Clone differs from source")
	}
	for k := range c.vals {
		c.vals[k] *= 2
	}
	if s.Dense().MaxAbsDiff(d) != 0 {
		t.Errorf("scaling the clone mutated the original")
	}
}

func TestLUSolveT(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := 1 + r.Intn(8)
		a := NewMatrix(n, n)
		for i := range a.Data {
			a.Data[i] = r.NormFloat64()
		}
		for i := 0; i < n; i++ {
			a.Add(i, i, float64(n)) // diagonally dominant: well conditioned
		}
		b := NewVector(n)
		for i := range b {
			b[i] = r.NormFloat64()
		}
		fa, err := Factor(a)
		if err != nil {
			return false
		}
		x := fa.SolveT(b)
		// Check Aᵀx = b.
		res := a.T().MulVec(x)
		return res.MaxAbsDiff(b) < 1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}
