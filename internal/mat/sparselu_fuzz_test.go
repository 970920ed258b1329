package mat

import (
	"math"
	"slices"
	"testing"
)

// fuzzReader doles out fuzz input bytes; past the end it returns zeros, so
// every input decodes to something.
type fuzzReader []byte

func (r *fuzzReader) next() byte {
	if len(*r) == 0 {
		return 0
	}
	b := (*r)[0]
	*r = (*r)[1:]
	return b
}

// fuzzColumn is one column as sorted, unique (row, value) pairs; values may
// be explicit zeros.
type fuzzColumn struct {
	rows []int
	vals []float64
}

// column decodes column j of an n×n matrix: a diagonal entry 1 + int8/8
// (so exhausted input decodes to the identity, and 0xF8 to an explicit
// zero), then up to three off-diagonal entries of value int8/8.
func (r *fuzzReader) column(n, j int) fuzzColumn {
	vals := map[int]float64{j: 1 + float64(int8(r.next()))/8}
	for k := r.next() % 4; k > 0; k-- {
		i := int(r.next()) % n
		vals[i] = float64(int8(r.next())) / 8
	}
	var c fuzzColumn
	for i := range n {
		if v, ok := vals[i]; ok {
			c.rows = append(c.rows, i)
			c.vals = append(c.vals, v)
		}
	}
	return c
}

// fuzzFactor is one decoded factorization job: a matrix, its pivot
// threshold, and the Forrest–Tomlin updates to absorb after factoring it.
type fuzzFactor struct {
	n        int
	tau      float64
	cols     []fuzzColumn
	slots    []int
	entering []fuzzColumn
}

func (r *fuzzReader) factor() fuzzFactor {
	ff := fuzzFactor{n: 1 + int(r.next())%24}
	ff.tau = []float64{0.1, 0.5, 1, 0}[r.next()%4]
	for j := range ff.n {
		ff.cols = append(ff.cols, r.column(ff.n, j))
	}
	for k := r.next() % 4; k > 0; k-- {
		slot := int(r.next()) % ff.n
		ff.slots = append(ff.slots, slot)
		ff.entering = append(ff.entering, r.column(ff.n, slot))
	}
	return ff
}

func (ff fuzzFactor) col(j int) ([]int, []float64) { return ff.cols[j].rows, ff.cols[j].vals }

// sameBits reports whether two vectors are bitwise equal.
func sameBits(a, b Vector) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}

// sameValues reports whether two vectors agree entry by entry under ==
// (which identifies ±0, as the SolveTSp equality contract does), with NaN
// matching NaN.
func sameValues(a, b Vector) bool {
	return slices.EqualFunc(a, b, func(x, y float64) bool { return x == y || x != x && y != y })
}

// sameSolves runs the same solves on both factorizations — dense Solve
// and SolveT on a fixed rhs, SolveSp and SolveTSp on every unit vector and
// on a Dense-marked rhs — and fails unless every result, pattern and
// health record agrees bit for bit, every SolveTSp result equals
// SolveTInto's, and every SolveSp result is Solve's, marked Dense.
func sameSolves(t *testing.T, tag string, got, want *SparseLU) {
	t.Helper()
	if got.n != want.n || got.NNZ() != want.NNZ() || got.Updates() != want.Updates() {
		t.Fatalf("%s: n/nnz/updates %d/%d/%d, fresh %d/%d/%d", tag, got.n, got.NNZ(), got.Updates(), want.n, want.NNZ(), want.Updates())
	}
	n := want.n
	rhs := NewVector(n)
	for i := range rhs {
		rhs[i] = float64(i%5) - 1.5
	}
	if a, b := got.Solve(rhs), want.Solve(rhs); !sameBits(a, b) {
		t.Fatalf("%s: Solve %v, fresh %v", tag, a, b)
	}
	if a, b := sparseSolveT(got, rhs), sparseSolveT(want, rhs); !sameBits(a, b) {
		t.Fatalf("%s: SolveT %v, fresh %v", tag, a, b)
	}
	// in returns rhs i: the unit vector e_i, or the fixed rhs marked Dense
	// for i < 0.
	in := func(i int) *SpVec {
		v := NewSpVec(n)
		if i < 0 {
			copy(v.Val, rhs)
			v.Dense = true
		} else {
			v.Set(i, 1)
		}
		return v
	}
	for i := -1; i < n; i++ {
		a, b := NewSpVec(n), NewSpVec(n)
		got.SolveTSp(in(i), a)
		want.SolveTSp(in(i), b)
		if a.Dense != b.Dense || !slices.Equal(a.Ind, b.Ind) || !sameBits(a.Val, b.Val) {
			t.Fatalf("%s: SolveTSp (rhs %d) %+v, fresh %+v", tag, i, a, b)
		}
		if ref := sparseSolveT(want, in(i).Val); !sameValues(b.Val, ref) {
			t.Fatalf("%s: SolveTSp (rhs %d) %v, SolveTInto %v", tag, i, b.Val, ref)
		}
		got.SolveSp(in(i), a)
		if ref := want.Solve(in(i).Val); !a.Dense || !sameBits(a.Val, ref) {
			t.Fatalf("%s: SolveSp (rhs %d) %+v, Solve %v", tag, i, a, ref)
		}
	}
	if got.Health() != want.Health() {
		t.Fatalf("%s: health %+v, fresh %+v", tag, got.Health(), want.Health())
	}
}

// refactorMatches refactors ff into used and checks it against a fresh
// FactorColumns of ff: the same verdict, then the same solves after the
// factorization and after each update both absorb.
func refactorMatches(t *testing.T, tag string, used *SparseLU, ff fuzzFactor) {
	t.Helper()
	errU := used.Refactor(ff.n, ff.col, ff.tau)
	fresh, errF := FactorColumns(ff.n, ff.col, ff.tau)
	if errU != errF {
		t.Fatalf("%s: Refactor error %v, fresh FactorColumns %v", tag, errU, errF)
	}
	if errF != nil {
		return
	}
	sameSolves(t, tag, used, fresh)
	for k, slot := range ff.slots {
		c := ff.entering[k]
		errU, errF := used.Update(slot, c.rows, c.vals), fresh.Update(slot, c.rows, c.vals)
		if errU != errF {
			t.Fatalf("%s: update %d error %v, fresh %v", tag, k, errU, errF)
		}
		if errF != nil {
			return // the factorization is invalid until the next Refactor
		}
		sameSolves(t, tag, used, fresh)
	}
}

// FuzzSparseRefactor holds Refactor's reuse of a factorization's storage
// to FactorColumns: a SparseLU that already factored (or failed to factor)
// one matrix and absorbed updates, refactored with a second matrix — which
// may be singular or of another size — and then the first again, must
// agree bitwise with a fresh factorization in its verdict, NNZ, health
// record and every dense and hyper-sparse solve, before and after further
// updates.
func FuzzSparseRefactor(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		r := fuzzReader(data)
		first, second := r.factor(), r.factor()
		used := new(SparseLU)
		refactorMatches(t, "first", used, first)
		refactorMatches(t, "second", used, second)
		refactorMatches(t, "first again", used, first)
	})
}
